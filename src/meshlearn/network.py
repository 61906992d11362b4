"""Classifier network: descriptor -> 3 x (conv block + pooling) -> global
average pooling -> linear head, with a hand-written backward pass.

The forward pass records a tape (activations, region tables, pooling
records) so the backward pass can chain the analytic adjoints of every
layer. Pool plans are part of the tape; replaying a tape freezes them,
which is what finite-difference gradient checking needs.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import conv as convmod
from . import descriptors as desc
from . import pooling as poolmod
from .core import (AdjacencyMatrix, Mesh, NumericalError, build_adjacency,
                   compute_geometry)

# Most elements ``init_params`` may allocate for one config (800 MB of float64)
MAX_PARAMS = 10**8
# grad_check's first finite-difference step and coordinates probed per group
GRAD_CHECK_STEP, GRAD_CHECK_SAMPLES = 1e-5, 12


@dataclass
class ModelConfig:
    num_classes: int = 3
    k_geo: int = 8
    k_geom: int = 8
    block_channels: tuple[int, ...] = (32, 64, 128)
    convs_per_block: int = 2
    region_sizes: tuple[int, ...] = (3, 6, 9)
    t_schedule: tuple[int, ...] = (400, 300, 200)
    use_activation: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (len(self.block_channels) == len(self.region_sizes)
                == len(self.t_schedule)):
            raise ValueError("block_channels/region_sizes/t_schedule lengths differ")
        if any(t2 >= t1 for t1, t2 in zip(self.t_schedule, self.t_schedule[1:])):
            raise ValueError("t_schedule must be strictly decreasing")
        if min(self.num_classes, self.k_geo, self.k_geom,
               self.convs_per_block, min(self.block_channels)) < 1:
            raise ValueError("all sizes must be >= 1")
        if min(self.region_sizes) < 3:
            raise ValueError(f"region_sizes {self.region_sizes} has an entry below 3")
        if min(self.t_schedule) < 4:
            raise ValueError(f"t_schedule {self.t_schedule} has an entry below 4")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if (n := param_count(self)) > MAX_PARAMS:
            raise ValueError(f"{n} parameters exceed the budget of {MAX_PARAMS}")

    @property
    def num_blocks(self) -> int:
        return len(self.block_channels)

    @property
    def descriptor_channels(self) -> int:
        return 3 * (self.k_geo + self.k_geom)

    def layer_activation(self, block: int, layer: int) -> bool:
        """ReLU everywhere except the final pre-pooling layer of the last block."""
        if not self.use_activation:
            return False
        return not (block == self.num_blocks - 1
                    and layer == self.convs_per_block - 1)


def field_type(f: dataclasses.Field) -> tuple[type, bool]:
    """The type of a config field's values, read from its default, and
    whether the field holds a tuple of them (typed by its first item)."""
    many = isinstance(f.default, tuple)
    return type(f.default[0] if many else f.default), many


@dataclass
class ModelParams:
    descriptor: desc.DescriptorParams
    conv_layers: list[convmod.ConvParams]
    classifier_w: np.ndarray   # (num_classes, C_last)
    classifier_b: np.ndarray

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = [("descriptor.geo", self.descriptor.geo),
               ("descriptor.geom", self.descriptor.geom)]
        for i, cp in enumerate(self.conv_layers):
            out += [(f"conv{i}.w0", cp.w0), (f"conv{i}.w1", cp.w1),
                    (f"conv{i}.w2", cp.w2), (f"conv{i}.bias", cp.bias)]
        out += [("classifier.w", self.classifier_w), ("classifier.b", self.classifier_b)]
        return out


def param_count(config: ModelConfig) -> int:
    """Number of elements of ``init_params(config)``, without allocating."""
    n, c_in = 3 * config.k_geo + 4 * config.k_geom, config.descriptor_channels
    for width in config.block_channels:
        n += 3 * c_in * width + width + (config.convs_per_block - 1) * (3 * width + 1) * width
        c_in = width
    return n + config.num_classes * (c_in + 1)


def init_params(config: ModelConfig, rng: np.random.Generator | None = None) -> ModelParams:
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    dp = desc.init_descriptor_params(config.k_geo, config.k_geom, rng)
    layers = []
    c_in = config.descriptor_channels
    for b, width in enumerate(config.block_channels):
        for _ in range(config.convs_per_block):
            layers.append(convmod.init_conv_params(c_in, width, rng))
            c_in = width
    s = 1.0 / np.sqrt(c_in)
    w = rng.uniform(-s, s, size=(config.num_classes, c_in))
    return ModelParams(dp, layers, w, np.zeros(config.num_classes))


def zeros_like_params(params: ModelParams) -> ModelParams:
    zeros = copy.deepcopy(params)
    for _, arr in zeros.named_arrays():
        arr[...] = 0.0
    return zeros


def add_params(acc: ModelParams, other: ModelParams, scale: float = 1.0) -> None:
    """In-place acc += scale * other, array by array."""
    for (_, a), (_, b) in zip(acc.named_arrays(), other.named_arrays()):
        a += scale * b


@dataclass
class StaticInputs:
    """Parameter-independent quantities for one mesh; cacheable across
    epochs. The geometry the descriptor terms come from is not kept."""

    adjacency: AdjacencyMatrix
    geo_terms: np.ndarray    # (F, 3, 3), ``compute_geodesic_terms``
    geom_terms: np.ndarray   # (F, 4, 3), ``compute_geometric_terms``
    first_regions: convmod.RegionTable


def precompute_static(mesh: Mesh, config: ModelConfig) -> StaticInputs:
    adj = build_adjacency(mesh)
    geo = compute_geometry(mesh)
    return StaticInputs(
        adjacency=adj,
        geo_terms=desc.compute_geodesic_terms(mesh, adj, geo),
        geom_terms=desc.compute_geometric_terms(mesh, adj, geo),
        first_regions=convmod.build_regions(adj, config.region_sizes[0]))


@dataclass
class BlockTape:
    conv_caches: list[convmod.ConvCache]   # each holds its layer's input
    pool: poolmod.PooledMesh


@dataclass
class Tape:
    static: StaticInputs
    blocks: list[BlockTape] = field(default_factory=list)
    gap_output: np.ndarray | None = None


def model_forward(mesh: Mesh, params: ModelParams, config: ModelConfig,
                  static: StaticInputs | None = None,
                  replay: Tape | None = None) -> tuple[np.ndarray, Tape]:
    """Run the full pipeline on one mesh; returns (logits, tape).

    With ``replay`` given, region tables and pool plans are taken from the
    earlier tape instead of being recomputed, freezing all discrete
    choices (for gradient checking). Raises ``NumericalError``, with no
    overflow warning, when the logits or the pooling saliency are not finite.
    """
    if static is None:
        static = replay.static if replay is not None else precompute_static(mesh, config)
    with np.errstate(over="ignore", invalid="ignore"):
        feats = desc.descriptor_forward(static.geo_terms, static.geom_terms, params.descriptor)
        tape = Tape(static=static)
        cur_mesh, cur_adj = mesh, static.adjacency
        layer_idx = 0
        for b in range(config.num_blocks):
            if replay is not None:
                regions = replay.blocks[b].conv_caches[0].regions
            elif b == 0:
                regions = static.first_regions
            else:
                regions = convmod.build_regions(cur_adj, config.region_sizes[b])
            caches = []
            for l in range(config.convs_per_block):
                feats, cache = convmod.conv_forward(
                    feats, regions, params.conv_layers[layer_idx],
                    activation=config.layer_activation(b, l))
                caches.append(cache)
                layer_idx += 1
            if replay is not None:
                pooled = _replay_pool(feats, replay.blocks[b].pool)
            else:
                pooled = poolmod.pool_to_target(cur_mesh, cur_adj, feats,
                                                config.t_schedule[b])
            tape.blocks.append(BlockTape(conv_caches=caches, pool=pooled))
            cur_mesh, cur_adj, feats = pooled.mesh, pooled.adjacency, pooled.features
        tape.gap_output = global_average_pool(feats)
        logits = params.classifier_w @ tape.gap_output + params.classifier_b
    if not np.isfinite(logits).all():
        raise NumericalError(f"non-finite logits {logits}")
    return logits, tape


def _replay_pool(feats: np.ndarray, recorded: poolmod.PooledMesh) -> poolmod.PooledMesh:
    """Re-run only the feature averaging of a recorded pooling stage."""
    for rec in recorded.passes:
        feats = rec.provenance.mean(feats)
    return dataclasses.replace(recorded, features=feats)


def global_average_pool(features: np.ndarray) -> np.ndarray:
    """Per-channel mean over faces."""
    if features.shape[0] < 1:
        raise ValueError("global average pooling over an empty feature matrix")
    return features.mean(axis=0)


def cross_entropy_loss(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy with log-sum-exp stabilization.

    Returns (loss, gradient wrt logits) where gradient = softmax - onehot.
    """
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    loss = float(lse - logits[label])
    grad = np.exp(logits - lse)
    grad[label] -= 1.0
    return loss, grad


@np.errstate(over="ignore", invalid="ignore")    # as in model_forward
def model_backward(tape: Tape, params: ModelParams, config: ModelConfig,
                   grad_logits: np.ndarray) -> ModelParams:
    """Full parameter gradient by chaining the layer adjoints in reverse."""
    grad_gap = params.classifier_w.T @ grad_logits
    F_last = tape.blocks[-1].pool.features.shape[0]
    grad_feats = np.tile(grad_gap / F_last, (F_last, 1))

    conv_grads = [None] * len(params.conv_layers)
    layer_idx = len(params.conv_layers)
    for b in range(config.num_blocks - 1, -1, -1):
        bt = tape.blocks[b]
        grad_feats = poolmod.pooling_backward(bt.pool.passes, grad_feats)
        for l in range(config.convs_per_block - 1, -1, -1):
            layer_idx -= 1
            grad_feats, conv_grads[layer_idx] = convmod.conv_backward(
                bt.conv_caches[l], grad_feats, params.conv_layers[layer_idx])
    return ModelParams(desc.descriptor_backward(tape.static.geo_terms, tape.static.geom_terms,
                                                params.descriptor, grad_feats),
                       conv_grads, np.outer(grad_logits, tape.gap_output), grad_logits.copy())


# ---------------------------------------------------------------------------
# gradient checking


def _kink_signs(tape: Tape) -> list[np.ndarray]:
    """Signs of every abs/ReLU argument of a forward pass: the conv
    neighbour differences, as the cache stores them, and the
    pre-activations a ReLU follows."""
    signs = []
    for bt in tape.blocks:
        for cache in bt.conv_caches:
            signs.append(cache["sign"])
            if cache.activation:
                signs.append(np.sign(cache["z"]))
    return signs


def _crosses_kink(base: list[np.ndarray], probe: list[np.ndarray]) -> bool:
    """Whether some nonzero argument of ``base`` has another sign in
    ``probe``. Zeros do not count: under sign(0) = 0 the central
    difference of |x| at 0 is 0, as is its analytic derivative."""
    return any(np.any((b != 0) & (p != b)) for b, p in zip(base, probe))


def grad_check(config: ModelConfig, mesh: Mesh, tolerance: float = 1e-3,
               linear_only: bool = False) -> dict:
    """Compare analytic parameter gradients with central finite differences.

    Uses the scalar loss <logits, r> for a fixed random projection r, with
    pool plans frozen to the unperturbed forward pass. The scalar is only
    piecewise smooth, so when either probe of a coordinate leaves an
    abs/ReLU argument on the other side of its kink than the unperturbed
    pass, that coordinate's step is divided by 10 and the probes are
    repeated; a coordinate that crosses a kink at every step down to
    ``GRAD_CHECK_STEP`` / 1000 counts as an infinite error. Returns a
    report mapping parameter-group names to their max relative error, plus
    "max_error"/"passed"/"tolerance" and "step", the smallest step used.
    """
    rng = np.random.default_rng(0)
    step = GRAD_CHECK_STEP
    if linear_only:
        # abs-free configuration: no ReLU, no abs-difference conv term.
        # The loss is then exactly linear in every parameter, so a larger
        # step only reduces roundoff in the central difference, and no
        # kink needs testing.
        config = dataclasses.replace(config, use_activation=False)
        step = 1e-3
    params = init_params(config, rng)
    if linear_only:
        for cp in params.conv_layers:
            cp.w2[:] = 0.0
    logits, tape = model_forward(mesh, params, config)
    base = _kink_signs(tape)
    proj = rng.normal(size=logits.shape[0])
    analytic = model_backward(tape, params, config, proj)

    def probe(flat: np.ndarray, c: int, h: float) -> tuple[float, bool]:
        old = flat[c]
        flat[c] = old + h
        lg, probe_tape = model_forward(mesh, params, config, replay=tape)
        flat[c] = old
        crossed = not linear_only and _crosses_kink(base, _kink_signs(probe_tape))
        return float(lg @ proj), crossed

    report: dict = {"groups": {}, "step": step}
    max_err = 0.0
    for (name, arr), (_, g) in zip(params.named_arrays(), analytic.named_arrays()):
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        n = min(GRAD_CHECK_SAMPLES, flat.size)
        # bias sampling toward the largest analytic entries, plus random picks
        by_mag = np.argsort(-np.abs(gflat))[: max(1, n // 2)]
        rand = rng.choice(flat.size, size=n, replace=False)
        coords = np.unique(np.concatenate([by_mag, rand]))
        worst = 0.0
        for c in coords:
            h = step
            for _ in range(4):
                (lp, crossed_p), (lm, crossed_m) = probe(flat, c, h), probe(flat, c, -h)
                if not (crossed_p or crossed_m):
                    break
                h /= 10.0
            else:
                worst = np.inf
                continue
            report["step"] = min(report["step"], h)
            fd = (lp - lm) / (2 * h)
            # floor keeps FD roundoff noise on near-zero gradients from
            # registering as large relative error
            denom = max(abs(fd), abs(gflat[c]), 1e-6)
            worst = max(worst, abs(fd - gflat[c]) / denom)
        group = name.split(".")[0]
        report["groups"][group] = max(report["groups"].get(group, 0.0), worst)
        max_err = max(max_err, worst)
    report["max_error"] = max_err
    report["passed"] = max_err <= tolerance
    report["tolerance"] = tolerance
    return report
