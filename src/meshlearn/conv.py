"""Order-invariant face convolution over BFS-grown regions.

For a face f with surrounding faces n in its region:

    out_f = W0 d_f + W1 sum_n d_n + W2 sum_n |d_f - d_n| + bias

followed by an optional ReLU. Both sums are order invariant; in addition
contributions are accumulated in ascending face-id order so the result
is bit-identical under any permutation of the stored region list.

Regions of all faces grow at once by a lockstep BFS, which stops as soon
as no row can grow. Each region table builds its sparse structure once,
slot-major: canonical member order and validity mask as (K, F) tables,
the padded rows, and the transposed CSR of its valid slots. The
convolution works on (K, F, C) tensors, so each sum over a region is
K - 1 adds of whole (F, C) slabs, in slot order. That is the order in
which NumPy reduces a face-major (F, K, C) array, with one exception:
with one channel, NumPy sums a contiguous face-major row pairwise once
K >= 8, so a one-channel slot sum reduces a face-major copy instead.
The backward cache keeps the sums, the pre-activation and the int8
signs of the slot-major differences, the only part of them the backward
pass reads, made by two compares (``d > 0`` minus ``d < 0``, the bytes
of ``np.sign`` cast to int8, NaN included); ``diff`` is rebuilt as a
face-major (F, K, C) view when looked up. The backward pass sums
the signs over slots in an integer type, exact as the float sum was,
and scatters through the CSR, each face's terms in ascending source face
as ``np.add.at`` added them. Padding slots scatter nothing; ``np.add.at``
added their +-0.0 onto face 0, which changed no finite result: a gradient
row starts as a matrix product, never -0.0, and x + +-0.0 = x for every
other x. (A non-finite padded row no longer leaks onto face 0.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CSR, NONE, AdjacencyMatrix


@dataclass(eq=False)
class RegionTable:
    """Per-face convolution support.

    ``members[f]`` holds up to K (its column count) surrounding face ids
    in BFS discovery order, padded with -1 at the end. A row is shorter
    than K only when the face's connected component has fewer than K+1
    faces. Derived on construction, slot-major: ``idx``
    (K, F), whose column f is ``members[f]`` ascending with padding last
    as face 0, its mask ``valid`` (K, F), the ``padded`` face ids, and
    ``scatter``, whose row g lists the positions ``k*F + f`` of ``idx``
    holding face g in ascending source face f. No face-major copy is kept.
    """

    members: np.ndarray  # (F, K) int64, -1 padding

    def __post_init__(self):
        F, K = self.members.shape
        m = np.where(self.members < 0, F + 1, self.members)
        m = np.ascontiguousarray(np.sort(m, axis=1).T)
        self.valid = m <= F
        m[~self.valid] = 0
        self.idx = m
        self.padded = np.flatnonzero(~self.valid.all(axis=0))
        # pairs keyed by the face-major position f*K + k sort each target's
        # sources by face; the stored columns are then made slot-major
        f, k = np.divmod(np.flatnonzero(self.valid.T), K)
        t = CSR.from_pairs(m[k, f], f * K + k, F)
        self.scatter = CSR(t.indptr, t.indices % K * F + t.indices // K)

    @property
    def num_faces(self) -> int:
        return self.members.shape[0]

    def row(self, f: int) -> list[int]:
        """The surrounding faces of f in BFS order, without padding."""
        r = self.members[f]
        return r[r >= 0].tolist()


def build_regions(adj: AdjacencyMatrix, kernel_size: int) -> RegionTable:
    """Grow each face's region breadth-first until K surrounding faces.

    The frontier starts at the face's adjacency slots (in sorted-slot
    order) and expands each frontier face's slots in turn, skipping NONE
    and already-included faces. All faces grow in lockstep: column 0 of
    M is the face itself, and step (h, s) appends ``nb[M[f, h], s]`` to
    each row f with a face at h and room left, until no row has both.
    Deterministic, and
    invariant under rigid transforms because the slot order is.
    """
    if kernel_size < 3:
        raise ValueError("kernel_size must be >= 3")
    F, nb = adj.num_faces, adj.neighbors
    M = np.full((F, kernel_size + 1), NONE, dtype=np.int64)
    M[:, 0] = np.arange(F)
    n = np.ones(F, dtype=np.int64)
    for h, s in np.ndindex(kernel_size, 3):
        # a row with no face at h, or no room, never grows again
        rows = np.flatnonzero((h < n) & (n <= kernel_size))
        if not len(rows):
            break
        cand = nb[M[rows, h], s]
        new = (cand != NONE) & ~(M[rows] == cand[:, None]).any(axis=1)
        rows = rows[new]
        M[rows, n[rows]] = cand[new]
        n[rows] += 1
    return RegionTable(M[:, 1:].copy())


@dataclass
class ConvParams:
    """Three C_out x C_in maps (center, neighbor-sum, abs-diff-sum) + bias."""

    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.w0 = np.atleast_2d(np.asarray(self.w0, dtype=np.float64))
        self.w1 = np.atleast_2d(np.asarray(self.w1, dtype=np.float64))
        self.w2 = np.atleast_2d(np.asarray(self.w2, dtype=np.float64))
        self.bias = np.atleast_1d(np.asarray(self.bias, dtype=np.float64))
        if not (self.w0.shape == self.w1.shape == self.w2.shape):
            raise ValueError("w0/w1/w2 must share one C_out x C_in shape")
        if self.bias.shape != (self.w0.shape[0],):
            raise ValueError("bias shape must be (C_out,)")

    @property
    def in_channels(self) -> int:
        return self.w0.shape[1]

    @property
    def out_channels(self) -> int:
        return self.w0.shape[0]


def init_conv_params(c_in: int, c_out: int, rng: np.random.Generator) -> ConvParams:
    # fan-in of the three-term combination
    s = 1.0 / np.sqrt(3.0 * c_in)
    return ConvParams(
        w0=rng.uniform(-s, s, size=(c_out, c_in)),
        w1=rng.uniform(-s, s, size=(c_out, c_in)),
        w2=rng.uniform(-s, s, size=(c_out, c_in)),
        # small positive bias keeps all-zero feature rows off the exact
        # ReLU kink (z = bias when the input row is fully clipped)
        bias=np.full(c_out, 0.01),
    )


def _slot_sum(x: np.ndarray) -> np.ndarray:
    """(F, C) sum of a (K, F, C) array over its slots, bit for bit as NumPy
    reduces the face-major (F, K, C) copy: slot after slot, except pairwise
    along a contiguous one-channel row."""
    if x.shape[2] == 1:
        return np.ascontiguousarray(x.transpose(1, 0, 2)).sum(axis=1)
    return x.sum(axis=0)


def _differences(features: np.ndarray, regions: RegionTable) -> tuple[np.ndarray, np.ndarray]:
    """The (K, F, C) neighbour differences ``d_f - d_n``, 0 in padding, and
    the (F, C) neighbour sum ``s1``."""
    pad, valid = regions.padded, regions.valid
    diff = features[regions.idx]                           # (K, F, C)
    diff[:, pad] *= valid[:, pad, None]
    s1 = _slot_sum(diff)
    np.subtract(features, diff, out=diff)
    diff[:, pad] = np.where(valid[:, pad, None], diff[:, pad], 0.0)
    return diff, s1


class ConvCache(dict):
    """Backward cache of one ``conv_forward``: its ``features``, ``regions``
    and ``activation`` arguments, ``s1``, ``s2``, ``z`` and the int8 ``sign``
    (K, F, C) of the neighbour differences. ``diff``, a face-major (F, K, C)
    view, is rebuilt on each lookup from the input and region table, byte
    for byte as the forward pass made it, so no float64 difference is kept."""

    def __init__(self, features: np.ndarray, regions: RegionTable, activation: bool, **arrays):
        super().__init__(**arrays)
        self.features, self.regions, self.activation = features, regions, activation

    def __missing__(self, key):
        if key == "diff":
            return _differences(self.features, self.regions)[0].transpose(1, 0, 2)
        raise KeyError(key)


def conv_forward(features: np.ndarray, regions: RegionTable, params: ConvParams,
                 activation: bool = True) -> tuple[np.ndarray, ConvCache]:
    """Apply the three-term convolution; returns (out, backward cache)."""
    if features.shape[0] != regions.num_faces:
        raise ValueError("features row count does not match region table")
    if features.shape[1] != params.in_channels:
        raise ValueError("feature channels do not match conv params")
    diff, s1 = _differences(features, regions)
    sign = np.greater(diff, 0.0).view(np.int8)
    sign -= np.less(diff, 0.0).view(np.int8)
    s2 = _slot_sum(np.abs(diff, out=diff))
    z = features @ params.w0.T + s1 @ params.w1.T + s2 @ params.w2.T + params.bias
    out = np.maximum(z, 0.0) if activation else z
    return out, ConvCache(features, regions, activation, s1=s1, s2=s2, z=z, sign=sign)


def conv_backward(cache: ConvCache, grad_out: np.ndarray, params: ConvParams):
    """Adjoint of conv_forward, given the cache of its forward pass, which
    holds that pass's input, region table and activation flag.

    Returns (grad_features, grad_params). The |x| subgradient at 0 is 0.
    The stored int8 sign of a -0.0 difference is 0, where ``np.sign``
    gives -0.0; that changes no bit, since each term it enters is added to
    or subtracted from a matrix product (``gz @ w0``, ``h1``), never -0.0.
    """
    features, s1, s2, z = cache.features, cache["s1"], cache["s2"], cache["z"]
    if grad_out.shape != (features.shape[0], params.out_channels):
        raise ValueError("grad_out shape mismatch")
    gz = grad_out * (z > 0) if cache.activation else grad_out
    h1 = gz @ params.w1   # (F, C_in) pull-back of the neighbor sum
    h2 = gz @ params.w2   # pull-back of the abs-diff sum
    sign = cache["sign"]                                   # (K, F, C_in)
    grad_features = gz @ params.w0
    # an integer sum of -1/0/1, exact as the float sum in any order, so no
    # one-channel rule here; the type holds +-K
    grad_features += h2 * sign.sum(axis=0, dtype=np.min_scalar_type(-len(sign) - 1))
    sign = sign.astype(np.float64)
    # per slot h1 - h2 * sign, scattered onto its member (padding skipped)
    np.multiply(h2, sign, out=sign)
    np.subtract(h1, sign, out=sign)
    cache.regions.scatter.segment_sum(sign.reshape(-1, features.shape[1]),
                                      out=grad_features)
    return grad_features, ConvParams(gz.T @ features, gz.T @ s1, gz.T @ s2,
                                     gz.sum(axis=0))
