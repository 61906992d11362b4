"""Datasets: directory ingestion, split construction, and seeded synthetic
mesh generation (icosphere / box / torus).

Synthetic generation is deterministic: one child seed per sample, spawned
from the dataset seed, so results are independent of generation order.
Every sample is posed by a random rigid transform, whose uniform rotation
comes from a normalized Gaussian quaternion; vertex jitter is uniform per
component, scaled by the mesh bounding radius.

The generators build whole arrays, with no per-face Python loop;
``subdivide`` and ``box`` weld shared vertices with ``_weld``.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .core import Mesh, MeshError, load_mesh, save_off

logger = logging.getLogger(__name__)


@dataclass
class Sample:
    mesh: Mesh
    class_id: int
    split: str | None = None
    seed: int | None = None


@dataclass
class Dataset:
    samples: list[Sample]
    class_names: list[str]
    load_errors: int = 0

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def pairs(self) -> list[tuple[Mesh, int]]:
        return [(s.mesh, s.class_id) for s in self.samples]


def load_dataset(root: str) -> Dataset:
    """Load meshes from ``root/<class_name>/<split>/<file>.{off,obj}``.

    Classes are id-assigned in sorted name order; samples enumerated in
    lexicographic path order. Unreadable meshes are skipped with a
    warning and counted in ``load_errors``.
    """
    if not os.path.isdir(root):
        raise MeshError(f"dataset root {root!r} is not a directory")
    class_names = sorted(d for d in os.listdir(root)
                         if os.path.isdir(os.path.join(root, d)))
    if not class_names:
        raise MeshError(f"dataset root {root!r} contains no class directories")
    samples: list[Sample] = []
    errors = 0
    for cid, cname in enumerate(class_names):
        cdir = os.path.join(root, cname)
        paths = []
        for dirpath, _, files in os.walk(cdir):
            for fn in files:
                if fn.lower().endswith((".off", ".obj")):
                    paths.append(os.path.join(dirpath, fn))
        for path in sorted(paths):
            rel = os.path.relpath(path, cdir)
            parts = rel.split(os.sep)
            split = parts[0] if len(parts) > 1 else None
            try:
                mesh = load_mesh(path)
            except MeshError as e:
                logger.warning("skipping unreadable mesh %s: %s", path, e)
                errors += 1
                continue
            samples.append(Sample(mesh=mesh, class_id=cid, split=split))
    if not samples:
        raise MeshError(f"no readable meshes found under {root!r}")
    return Dataset(samples=samples, class_names=class_names, load_errors=errors)


def make_splits(dataset: Dataset, per_class_train: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded per-class shuffle: exactly ``per_class_train`` samples per
    class go to train, the remainder to test."""
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[Sample]] = {}
    for s in dataset.samples:
        by_class.setdefault(s.class_id, []).append(s)
    train, test = [], []
    for cid in sorted(by_class):
        group = by_class[cid]
        if len(group) < per_class_train + 1:
            raise ValueError(
                f"class {dataset.class_names[cid]!r} has {len(group)} samples; "
                f"needs at least {per_class_train + 1}")
        order = rng.permutation(len(group))
        for k, i in enumerate(order):
            s = group[int(i)]
            (train if k < per_class_train else test).append(s)
    return Dataset(train, dataset.class_names), Dataset(test, dataset.class_names)


# ---------------------------------------------------------------------------
# procedural generators


def icosahedron() -> Mesh:
    p = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, p, 0], [1, p, 0], [-1, -p, 0], [1, -p, 0],
        [0, -1, p], [0, 1, p], [0, -1, -p], [0, 1, -p],
        [p, 0, -1], [p, 0, 1], [-p, 0, -1], [-p, 0, 1]], dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]], dtype=np.int64)
    return Mesh(v, f)


def octahedron() -> Mesh:
    v = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                  [0, 0, 1], [0, 0, -1]], dtype=np.float64)
    f = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                  [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]], dtype=np.int64)
    return Mesh(v, f)


def _weld(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct ``keys`` 0, 1, ... in order of first occurrence.

    Returns ``(ids, first)``: ``ids[i]`` is the number of ``keys[i]``, and
    ``first[n]`` the position where number ``n`` first occurs. This is the
    numbering a dict filled in one pass over ``keys`` would give."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))   # the first indices are distinct
    return rank[inverse], np.sort(first)


def subdivide(mesh: Mesh, project_to_sphere: bool = False) -> Mesh:
    """Split every triangle (a, b, c) into four by edge midpoints. The
    midpoints are welded: each edge gets one new vertex, numbered after the
    old ones in the order the faces' edges ab, bc, ca first reach it."""
    f = mesh.faces
    ends = np.stack([f, np.roll(f, -1, axis=1)], axis=-1).reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    ids, first = _weld(lo * mesh.num_vertices + hi)
    m = (mesh.vertices[lo[first]] + mesh.vertices[hi[first]]) / 2.0
    if project_to_sphere:   # the scalar sqrt(m @ m) of each row, as np.linalg.norm
        m = m / np.sqrt(np.matmul(m[:, None, :], m[:, :, None]))[:, 0]
    a, b, c = f.T
    ab, bc, ca = ids.reshape(-1, 3).T + mesh.num_vertices
    faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return Mesh(np.concatenate([mesh.vertices, m]), faces.reshape(-1, 3))


def icosphere(subdivisions: int, base: str = "icosahedron") -> Mesh:
    """Sphere by repeated subdivision of an icosahedron (20*4^n faces) or
    octahedron (8*4^n faces), projected onto the unit sphere."""
    if base not in ("icosahedron", "octahedron"):
        raise ValueError(f"icosphere base must be 'icosahedron' or 'octahedron', not {base!r}")
    if subdivisions < 0:
        raise ValueError(f"icosphere subdivisions must be >= 0, not {subdivisions}")
    mesh = icosahedron() if base == "icosahedron" else octahedron()
    for _ in range(subdivisions):
        mesh = subdivide(mesh, project_to_sphere=True)
    return mesh


def box(segments: int) -> Mesh:
    """Axis-aligned cube [-1, 1]^3 with ``segments`` divisions per side;
    12 * segments^2 triangles. Grid points are welded along the edges,
    numbered in order of first use: side by side, quad by quad, corner by
    corner."""
    n = segments
    if n < 1:
        raise ValueError(f"box segments must be >= 1, not {n}")
    # corners (u, v), (u+1, v), (u+1, v+1), (u, v+1) of every quad
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    u, v = u[..., None] + [0, 1, 1, 0], v[..., None] + [0, 0, 1, 1]
    w0, wn = np.zeros_like(u), np.full_like(u, n)
    # each side: u, v span it, the third axis fixed at 0 or n
    points = np.stack([np.stack(p, axis=-1) for p in [
        (u, v, w0), (u, v, wn), (u, w0, v), (u, wn, v), (w0, u, v), (wn, u, v)]]).reshape(-1, 3)
    ids, first = _weld(np.ravel_multi_index(points.T, (n + 1,) * 3))
    # two triangles per quad, reversed on the sides that face the other way
    tri = np.array([[2, 1, 0, 3, 2, 0], [0, 1, 2, 0, 2, 3]])[[0, 1, 1, 0, 0, 1]]
    faces = np.take_along_axis(ids.reshape(6, -1, 4), tri[:, None, :], axis=2)
    return Mesh(points[first] * (2.0 / n) - 1.0, faces.reshape(-1, 3))


def torus(major_segments: int, minor_segments: int) -> Mesh:
    """Closed torus grid with 2 * major * minor triangles, major radius 1
    and minor radius 0.4."""
    nu, nv = major_segments, minor_segments
    if nu < 3 or nv < 3:
        raise ValueError("torus needs at least 3 segments per direction")
    u = 2 * np.pi * np.arange(nu) / nu
    v = 2 * np.pi * np.arange(nv) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = 1.0 + 0.4 * np.cos(vv)
    verts = np.stack([ring * np.cos(uu), ring * np.sin(uu),
                      0.4 * np.sin(vv)], axis=-1).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    i1, j1 = (i + 1) % nu, (j + 1) % nv
    a, b, c, d = i * nv + j, i1 * nv + j, i1 * nv + j1, i * nv + j1
    return Mesh(verts, np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3))


GENERATORS = ("icosphere", "box", "torus")
# Bounds on a spec's work: samples over all classes, face band upper bound
MAX_SYNTHETIC_SAMPLES, MAX_SYNTHETIC_FACES = 10**6, 10**7


def _resolution_options(cls: str, lo: int, hi: int) -> list[tuple]:
    opts: list[tuple] = []
    if cls == "icosphere":
        for base in ("octahedron", "icosahedron"):
            base_faces = 8 if base == "octahedron" else 20
            for k in range(8):
                n = base_faces * 4 ** k
                if lo <= n <= hi:
                    opts.append(("icosphere", k, base))
    elif cls == "box":
        n = 1
        while 12 * n * n <= hi:
            if 12 * n * n >= lo:
                opts.append(("box", n))
            n += 1
    elif cls == "torus":
        for nu in range(3, 64):
            for nv in range(3, nu + 1):
                if lo <= 2 * nu * nv <= hi:
                    opts.append(("torus", nu, nv))
    else:
        raise ValueError(f"unknown synthetic class {cls!r}")
    return opts


def _build(option: tuple) -> Mesh:
    kind = option[0]
    if kind == "icosphere":
        return icosphere(option[1], base=option[2])
    if kind == "box":
        return box(option[1])
    return torus(option[1], option[2])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation matrix from a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@dataclass
class SyntheticSpec:
    """What ``generate_synthetic`` builds. ``jitter`` is at most 1: it scales
    the mesh's bounding radius into each coordinate's largest displacement."""

    classes: tuple[str, ...] = GENERATORS
    samples_per_class: int = 10
    face_band: tuple[int, int] = (420, 560)
    jitter: float = 0.01
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.face_band
        if lo > hi:
            raise ValueError("face band lower bound exceeds upper bound")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be finite and >= 0, and at most 1; got {self.jitter}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.samples_per_class < 1:
            raise ValueError("samples per class must be >= 1")
        if len(self.classes) * self.samples_per_class > MAX_SYNTHETIC_SAMPLES:
            raise ValueError(f"{len(self.classes)} classes x {self.samples_per_class} "
                             f"samples exceeds {MAX_SYNTHETIC_SAMPLES} synthetic samples")
        if hi > MAX_SYNTHETIC_FACES:
            raise ValueError(f"face band upper bound {hi} exceeds {MAX_SYNTHETIC_FACES}")
        if not self.classes:
            raise ValueError("no synthetic classes")
        for i, c in enumerate(self.classes):
            if c not in GENERATORS:
                raise ValueError(f"unknown synthetic class {c!r}")
            if c in self.classes[:i]:
                raise ValueError(f"synthetic class {c!r} is listed twice")
            if not _resolution_options(c, lo, hi):
                raise ValueError(f"face band [{lo}, {hi}] unreachable for class {c!r}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Seeded synthetic dataset of closed manifold meshes.

    Every sample gets its own child seed controlling resolution choice,
    rigid transform and jitter. ``SyntheticSpec`` has checked that every
    class reaches the face band at some generator resolution.
    """
    options = {cls: _resolution_options(cls, *spec.face_band) for cls in spec.classes}
    ss = np.random.SeedSequence(spec.seed)
    children = ss.spawn(len(spec.classes) * spec.samples_per_class)
    samples = []
    class_names = sorted(spec.classes)
    for cid, cls in enumerate(class_names):
        for k in range(spec.samples_per_class):
            child = children[spec.classes.index(cls) * spec.samples_per_class + k]
            sample_seed = int(child.generate_state(1)[0])
            rng = np.random.default_rng(child)
            mesh = _build(options[cls][int(rng.integers(len(options[cls])))])
            verts = mesh.vertices @ random_rotation(rng).T + rng.uniform(-1, 1, size=3)
            if spec.jitter > 0:
                radius = float(np.linalg.norm(
                    verts - verts.mean(axis=0), axis=1).max())
                verts = verts + rng.uniform(-spec.jitter * radius,
                                            spec.jitter * radius,
                                            size=verts.shape)
            mesh = Mesh(verts, mesh.faces, name=f"{cls}_{k:04d}")
            samples.append(Sample(mesh=mesh, class_id=cid, seed=sample_seed))
    return Dataset(samples=samples, class_names=class_names)


def write_dataset(dataset: Dataset, root: str, split: str = "train") -> str:
    """Write the dataset as OFF files plus a manifest; returns manifest path.

    Files are ``root/<class>/<split>/<stem>.off``, named by the stem of the
    mesh name (a path for loaded meshes); two samples on one path raise
    ``ValueError`` before any write. Lines: ``path class_id face_count seed``.
    """
    paths: list[str] = []
    for i, s in enumerate(dataset.samples):
        stem = os.path.splitext(os.path.basename(s.mesh.name or f"mesh_{i:05d}"))[0]
        paths.append(os.path.join(root, dataset.class_names[s.class_id],
                                  s.split or split, stem + ".off"))
    if len(set(paths)) < len(paths):
        raise ValueError(f"two samples would be written to "
                         f"{next(p for p in paths if paths.count(p) > 1)!r}")
    lines = []
    for s, path in zip(dataset.samples, paths):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        save_off(s.mesh, path)
        lines.append(f"{os.path.relpath(path, root)} {s.class_id} "
                     f"{s.mesh.num_faces} {s.seed if s.seed is not None else -1}")
    manifest = os.path.join(root, "manifest.txt")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest
