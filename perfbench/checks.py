"""Output checks.

Each check is computed here with the benchmark's own NumPy code, or is a
property the method must have; none compares against stored output. A
check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import numpy as np

from meshlearn import core, network, pooling

# Same zero-area threshold as the library: relative to the squared
# bounding-box diagonal.
AREA_EPS = 1e-12
# Relative tolerance of the central-difference directional derivative,
# before its rounding term: FD_ROUNDING units of float64 rounding in each
# term of <logits, r>.
FD_TOLERANCE = 1e-6
FD_ROUNDING = 16
# Central differences tried at shrinking steps before a kink-free one.
FD_MAX_PROBES = 8


def euler_characteristic(mesh: core.Mesh) -> int:
    """V - E + F, with E the number of unique undirected edges."""
    V = mesh.num_vertices
    a = mesh.faces.reshape(-1)
    b = np.roll(mesh.faces, -1, axis=1).reshape(-1)
    edges = np.minimum(a, b) * V + np.maximum(a, b)
    return V - len(np.unique(edges)) + mesh.num_faces


def mesh_problems(mesh: core.Mesh) -> list[str]:
    """Closed, manifold, consistently oriented, no degenerate face and no
    unused vertex."""
    f, V = mesh.faces, mesh.num_vertices
    out = []
    if ((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])).any():
        out.append("face with a repeated vertex")
    a, b = f.reshape(-1), np.roll(f, -1, axis=1).reshape(-1)
    key, rev = a * V + b, b * V + a   # directed edges and their reverses
    if len(np.unique(key)) != len(key):
        out.append("directed edge used twice (not oriented or not manifold)")
    elif not np.isin(rev, key).all():
        out.append("edge without an opposite half-edge (not closed)")
    if (np.bincount(f.reshape(-1), minlength=V) == 0).any():
        out.append("vertex used by no face")
    v = mesh.vertices
    diag2 = float(np.sum((v.max(0) - v.min(0)) ** 2))
    area2 = np.sum(np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]) ** 2, axis=1)
    if (np.sqrt(area2) * 0.5 <= AREA_EPS * diag2).any():
        out.append("degenerate face")
    return out


def _provenance_mean(x: np.ndarray, provenance: list[list[int]]) -> np.ndarray:
    """Mean of each provenance row set, summed left to right in the listed
    order (the method's fixed reduction order), so the result is exact."""
    counts = np.array([len(p) for p in provenance], dtype=np.int64)
    rows = np.zeros((len(provenance), int(counts.max())), dtype=np.int64)
    for j, p in enumerate(provenance):
        rows[j, : len(p)] = p
    acc = x[rows[:, 0]]
    for k in range(1, rows.shape[1]):
        acc = acc + np.where((counts > k)[:, None], x[rows[:, k]], 0.0)
    return acc / counts[:, None]


def stage_problems(mesh, adj, features, target, pooled) -> list[str]:
    """Every property one ``pool_to_target`` stage must have."""
    out = []
    F0, V0 = mesh.num_faces, mesh.num_vertices
    m = pooled.mesh
    F1, V1 = m.num_faces, m.num_vertices
    if euler_characteristic(m) != euler_characteristic(mesh):
        out.append("Euler characteristic changed")
    out += mesh_problems(m)
    if F0 <= target:
        if pooled.passes or F1 != F0:
            out.append(f"{F0} faces already at target {target}, yet pooled")
    elif not pooled.stalled and not target - 3 <= F1 <= target:
        out.append(f"{F1} faces outside [{target - 3}, {target}] without a stall")
    removed = F0 - F1
    if removed % 4 or 2 * (V0 - V1) != removed:
        out.append(f"faces -{removed} vertices -{V0 - V1}: not 4 and 2 per collapse")
    sizes = [F0] + [len(r.provenance) for r in pooled.passes]
    if [r.old_num_faces for r in pooled.passes] != sizes[:-1] or sizes[-1] != F1:
        out.append("pass records do not chain from the input to the output")
    elif any((a - b) % 4 or a == b for a, b in zip(sizes, sizes[1:])):
        out.append("a pass removed no faces or not 4 per collapse")
    ref = core.build_adjacency(m)
    if not (np.array_equal(ref.neighbors, pooled.adjacency.neighbors)
            and np.array_equal(ref.shared_edges, pooled.adjacency.shared_edges)):
        out.append("pooled adjacency differs from build_adjacency")
    x = features
    for rec in pooled.passes:
        x = _provenance_mean(x, rec.provenance)
    if not np.array_equal(x, pooled.features):
        out.append("pooled features are not the provenance means")
    ones = np.ones((F1, features.shape[1]))
    g = pooling.pooling_backward(pooled.passes, ones)
    if g.shape[0] != F0 or not np.allclose(g.sum(axis=0), F1, rtol=1e-12, atol=0.0):
        out.append("pooling_backward of ones does not sum to the face count")
    return out


def _params_plus(params, direction, h):
    out = network.zeros_like_params(params)
    network.add_params(out, params)
    network.add_params(out, direction, scale=h)
    return out


def _kink_args(tape):
    """Every abs and ReLU argument of a forward pass, array by array: the
    neighbour differences inside the regions (0 in padding) and the conv
    pre-activations."""
    for bt in tape.blocks:
        for cache in bt.conv_caches:
            yield cache["diff"]
            yield cache["z"]


def _kink_probe(base, tape, h: float) -> tuple[bool, float]:
    """Whether every abs/ReLU argument of ``tape``, the pass at step ``h``,
    has the sign it has in ``base``, and the smallest distance to a kink
    along the direction, from each argument's rate of change."""
    same, distance = True, np.inf
    for a0, a in zip(_kink_args(base), _kink_args(tape)):
        same = same and np.array_equal(np.sign(a), np.sign(a0))
        rate = np.abs(a - a0) / abs(h)
        moving = (a0 != 0) & (rate > 0)
        if moving.any():
            distance = min(distance, float(np.min(np.abs(a0[moving]) / rate[moving])))
    return same, distance


def directional_derivative_problems(item, params, config, seed: int) -> list[str]:
    """Central difference against <gradient, direction> for the scalar
    <logits, r>, r a seeded random vector (the scalar of network.grad_check:
    unlike the loss, it does not flatten once the mesh is classified
    confidently). The direction is the unit gradient plus a seeded random
    unit vector, normalised, so the derivative is large next to the
    rounding error of the scalar while every gradient component still
    counts. The tape is replayed so the pool plans stay frozen.

    The scalar is piecewise smooth, so both probes must lie on the same
    side of every abs/ReLU kink as the unperturbed pass. ``Tape.kink_margin``
    measures that distance in argument space, not along the direction, so
    the step is found by probing: while some argument changes sign between
    the three passes, the step shrinks to a quarter of the smallest
    distance to a kink along the direction, estimated from the probes. The
    tolerance adds a bound on the rounding error of the difference, which
    matters only for the tiny steps that trained parameters can need."""
    mesh, _, static = item
    rng = np.random.default_rng(seed)
    logits, tape = network.model_forward(mesh, params, config, static=static)
    proj = rng.standard_normal(logits.shape)
    grads = network.model_backward(tape, params, config, proj)
    direction = network.zeros_like_params(params)
    for _, arr in direction.named_arrays():
        arr[...] = rng.standard_normal(arr.shape)
    _scale(direction, 1.0 / _norm(direction))
    network.add_params(direction, grads, scale=1.0 / _norm(grads))
    _scale(direction, 1.0 / _norm(direction))
    analytic = sum(float(np.sum(g * d)) for (_, g), (_, d)
                   in zip(grads.named_arrays(), direction.named_arrays()))

    def probe(step):
        lg, t = network.model_forward(mesh, _params_plus(params, direction, step),
                                      config, replay=tape)
        return lg, _kink_probe(tape, t, step)

    h = 1e-5
    for _ in range(FD_MAX_PROBES):
        (lp, (same_p, dist_p)), (lm, (same_m, dist_m)) = probe(h), probe(-h)
        if same_p and same_m:
            break
        h = min(h / 10.0, 0.25 * min(dist_p, dist_m))
    else:
        return [f"no step down to {h:.2e} keeps the central difference "
                "on one side of every abs/ReLU kink"]
    fd = float(lp @ proj - lm @ proj) / (2.0 * h)
    rounding = (FD_ROUNDING * np.finfo(np.float64).eps
                * float(np.abs(lp * proj).sum() + np.abs(lm * proj).sum()) / (2.0 * h))
    err = abs(fd - analytic) / max(abs(fd), abs(analytic))
    tolerance = FD_TOLERANCE + rounding / max(abs(fd), abs(analytic))
    if not err <= tolerance:
        return [f"directional derivative {analytic:.9g} vs central difference "
                f"{fd:.9g} (relative error {err:.2e} > {tolerance:.2e}, step {h:.2e})"]
    return []


def _norm(params) -> float:
    return float(np.sqrt(sum(np.sum(a * a) for _, a in params.named_arrays())))


def _scale(params, factor: float) -> None:
    for _, arr in params.named_arrays():
        arr *= factor
