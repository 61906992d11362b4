"""Wall-clock benchmark harness for the three operator families.

Mirrors the batched protocol used for the reported measurements: a fixed
batch of synthetic meshes, each with its adjacency and geometry, is pushed
through descriptor, convolution and pooling forward+backward repeatedly;
per-phase wall times are averaged over the batches. The descriptor phase
computes both term arrays once and passes them to forward and backward.
Peak resident memory is reported best-effort (Linux ``ru_maxrss``);
absolute numbers are hardware-dependent by nature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import conv as convmod
from . import descriptors as desc
from . import network as net
from . import pooling as poolmod
from .core import build_adjacency, compute_geometry
from .data import SyntheticSpec, generate_synthetic

PHASES = ("descriptor", "conv", "pool")
# Region size of the timed conv layer
KERNEL_SIZE = 6


@dataclass
class BenchReport:
    faces: int
    batch_size: int
    num_batches: int
    phase_mean_ms: dict[str, float]
    phase_std_ms: dict[str, float]
    removal_fraction: float
    peak_rss_mb: float | None
    checksum: float

    def lines(self) -> list[str]:
        out = [f"faces={self.faces} batch={self.batch_size} "
               f"batches={self.num_batches}"]
        for p in PHASES:
            out.append(f"phase={p} mean_ms={self.phase_mean_ms[p]:.3f} "
                       f"std_ms={self.phase_std_ms[p]:.3f}")
        out.append(f"removal_fraction={self.removal_fraction:.4f}")
        if self.peak_rss_mb is not None:
            out.append(f"peak_rss_mb={self.peak_rss_mb:.1f}")
        out.append(f"checksum={self.checksum:.12e}")
        return out

    def csv(self) -> str:
        rows = ["phase,mean_ms,std_ms"]
        for p in PHASES:
            rows.append(f"{p},{self.phase_mean_ms[p]:.6f},{self.phase_std_ms[p]:.6f}")
        return "\n".join(rows) + "\n"


def _peak_rss_mb() -> float | None:
    try:
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return kb / 1024.0
    except Exception:
        return None


def _mesh_work(item, params):
    """One mesh through the three phases; returns timings and a checksum."""
    mesh, adj, geo = item
    F = mesh.num_faces
    t = {}
    t0 = time.perf_counter()
    geo_terms = desc.compute_geodesic_terms(mesh, adj, geo)
    geom_terms = desc.compute_geometric_terms(mesh, adj, geo)
    feats = desc.descriptor_forward(geo_terms, geom_terms, params.descriptor)
    dgrad = desc.descriptor_backward(geo_terms, geom_terms, params.descriptor,
                                     np.ones_like(feats))
    t["descriptor"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    regions = convmod.build_regions(adj, KERNEL_SIZE)
    conv = params.conv_layers[0]
    out, cache = convmod.conv_forward(feats, regions, conv)
    gf, _ = convmod.conv_backward(cache, np.ones_like(out), conv)
    t["conv"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = poolmod.pool_to_target(mesh, adj, out, F // 2)
    gin = poolmod.pooling_backward(pooled.passes, np.ones_like(pooled.features))
    t["pool"] = time.perf_counter() - t0

    first_removed = (F - len(pooled.passes[0].provenance)) / F if pooled.passes else 0.0
    checksum = (float(np.sum(feats)) + float(np.sum(dgrad.geo)) + float(np.sum(out))
                + float(np.sum(gf)) + float(np.sum(pooled.features))
                + float(np.sum(gin)))
    return t, first_removed, checksum


def run_benchmark(faces: int = 500, batch_size: int = 50, num_batches: int = 50,
                  seed: int = 0) -> BenchReport:
    """Time descriptor/conv/pool forward+backward over repeated batches."""
    if batch_size < 1 or num_batches < 1:
        raise ValueError("batch size and batch count must be >= 1")
    lo, hi = max(8, int(faces * 0.85)), int(faces * 1.15)
    spec = SyntheticSpec(samples_per_class=-(-batch_size // 3),
                         face_band=(lo, hi), seed=seed)
    dataset = generate_synthetic(spec)
    meshes = [s.mesh for s in dataset.samples][:batch_size]
    params = net.init_params(net.ModelConfig(num_classes=3), np.random.default_rng(seed))
    items = [(m, build_adjacency(m), compute_geometry(m)) for m in meshes]

    per_batch = {p: [] for p in PHASES}
    removal, checksum = [], 0.0
    for b in range(num_batches):
        sums = {p: 0.0 for p in PHASES}
        for item in items:
            t, frac, cs = _mesh_work(item, params)
            for p in PHASES:
                sums[p] += t[p]
            if b == 0:
                removal.append(frac)
                checksum += cs
        for p in PHASES:
            per_batch[p].append(sums[p] * 1000.0)
    return BenchReport(
        faces=faces, batch_size=batch_size, num_batches=num_batches,
        phase_mean_ms={p: float(np.mean(per_batch[p])) for p in PHASES},
        phase_std_ms={p: float(np.std(per_batch[p])) for p in PHASES},
        removal_fraction=float(np.mean(removal)) if removal else 0.0,
        peak_rss_mb=_peak_rss_mb(), checksum=checksum)
