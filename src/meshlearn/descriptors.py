"""Learnable per-face descriptors: geodesic and geometric blocks.

Each kernel is a small weight vector combining fixed geometric terms:

* geodesic kernel (a0, a1, a2):
  a0 * sum_i (v_i - centroid)  +  a1 * sum_i vertex_normal_i
  + a2 * sum_i |e_i1 - e_i2|
  where e_i1/e_i2 point from vertex i along the free edges of the two
  triangles adjacent to face f across the edges incident to vertex i.
* geometric kernel (b0, b1, b2, b3):
  b0 * centroid + b1 * face_normal
  + b2 * sum_n |centroid - centroid_n| + b3 * sum_n |normal x normal_n|
  with n running over the (up to 3) edge-neighbor faces.

Both families are fixed (F, T, 3) term arrays (T = 3, 4) made once per
mesh; ``descriptor_forward`` and ``descriptor_backward`` take the two.

|.| is the componentwise absolute value, keeping every term a 3-vector.
Missing neighbors on borders contribute zero vectors. The first geodesic
term is identically zero for the arithmetic centroid; it is kept so the
kernel layout stays a plain (a0, a1, a2) triple.

Every stage works on whole arrays in a fixed order: a sum over a face's
three vertex or neighbor slots adds them left to right, and a kernel adds
its weighted terms onto zeros in term order. That is the order of
``sum(axis=1)`` and ``einsum("jt,ftc->fjc")``, which keeps the features,
the bench checksum and trained checkpoints bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NONE, AdjacencyMatrix, GeometryCache, Mesh


@dataclass
class DescriptorParams:
    """Learnable kernel weights: geo (k_geo, 3) and geom (k_geom, 4)."""

    geo: np.ndarray
    geom: np.ndarray

    def __post_init__(self):
        self.geo = np.atleast_2d(np.asarray(self.geo, dtype=np.float64))
        self.geom = np.atleast_2d(np.asarray(self.geom, dtype=np.float64))
        if self.geo.shape[1] != 3 or self.geom.shape[1] != 4:
            raise ValueError("geo kernels need 3 weights, geom kernels 4")

    @property
    def k_geo(self) -> int:
        return self.geo.shape[0]

    @property
    def k_geom(self) -> int:
        return self.geom.shape[0]


def init_descriptor_params(k_geo: int, k_geom: int, rng: np.random.Generator) -> DescriptorParams:
    # uniform in [-s, s], s = 1/sqrt(term count) of each kernel
    s_geo, s_geom = 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(4.0)
    return DescriptorParams(
        geo=rng.uniform(-s_geo, s_geo, size=(k_geo, 3)),
        geom=rng.uniform(-s_geom, s_geom, size=(k_geom, 4)),
    )


def _slot_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` over three slots, added left to right as that sum
    adds them (bit-equal), without the reduction's overhead."""
    return (x[:, 0] + x[:, 1]) + x[:, 2]


def compute_geodesic_terms(mesh: Mesh, adj: AdjacencyMatrix,
                           geo: GeometryCache) -> np.ndarray:
    """(F, 3 terms, 3) raw terms of the geodesic descriptor, each summed
    over the three vertex slots left to right, as ``sum(axis=1)`` adds
    them; pure geometry, no learnable weights involved."""
    v, f = mesh.vertices, mesh.faces
    vf = v[f]
    pos_dev = vf - geo.face_centroids[:, None, :]
    vnormal = geo.vertex_normals[f]

    # vertex ids are added exactly: with fs a face's id sum and es a
    # shared edge's, fs[nb] - es is the neighbor's free vertex and
    # fs - es the own vertex opposite the slot
    nb = adj.neighbors
    es = adj.shared_edges[:, :, 0] + adj.shared_edges[:, :, 1]
    fs = f[:, 0] + f[:, 1] + f[:, 2]
    border = nb == NONE
    free = np.where(border, 0, fs[nb] - es)
    own = fs[:, None] - es
    # opp[:, s] is the vertex slot opposite adjacency slot s; vertex slot
    # i lies on the two other adjacency slots, taken in slot order
    opp = (own == f[:, 1:2]) + 2 * (own == f[:, 2:3])
    i = np.arange(3)
    first = (opp[:, :1] == i).astype(np.int64)
    second = 2 - (opp[:, 2:] == i)

    def toward(slot):
        """From each vertex to the free vertex across the chosen slot."""
        e = v[np.take_along_axis(free, slot, axis=1)] - vf
        e[np.take_along_axis(border, slot, axis=1)] = 0.0
        return e

    edge_pair_diff = np.abs(toward(first) - toward(second))
    return np.stack([_slot_sum(x) for x in (pos_dev, vnormal, edge_pair_diff)], axis=1)


def compute_geometric_terms(mesh: Mesh, adj: AdjacencyMatrix,
                            geo: GeometryCache) -> np.ndarray:
    """(F, 4 terms, 3) raw terms of the geometric descriptor."""
    c, n = geo.face_centroids, geo.face_normals
    nb = adj.neighbors            # a border slot reads face -1, then is zeroed
    border = (nb == NONE)[:, :, None]
    cdiff = np.where(border, 0.0, np.abs(c[:, None, :] - c[nb]))
    ncross = np.cross(np.broadcast_to(n[:, None, :], nb.shape + (3,)), n[nb])
    ncross = np.where(border, 0.0, np.abs(ncross))
    return np.stack([c, n, _slot_sum(cdiff), _slot_sum(ncross)], axis=1)


def _kernel_forward(w: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """(F, 3*J) block of J kernels over (F, T, 3) terms: ``w[j, t] *
    terms[:, t]`` added onto zeros in term order, the order in which
    ``einsum("jt,ftc->fjc")`` evaluates it."""
    slabs = np.ascontiguousarray(terms.transpose(1, 0, 2))   # (T, F, 3)
    out = np.zeros((w.shape[0],) + slabs.shape[1:])
    for t, slab in enumerate(slabs):
        for j, o in enumerate(out):
            o += w[j, t] * slab
    return out.transpose(1, 0, 2).reshape(len(terms), -1)


def geodesic_forward(terms: np.ndarray, params: DescriptorParams) -> np.ndarray:
    """(F, 3*k_geo) geodesic feature block from ``compute_geodesic_terms``."""
    return _kernel_forward(params.geo, terms)


def geometric_forward(terms: np.ndarray, params: DescriptorParams) -> np.ndarray:
    """(F, 3*k_geom) geometric feature block from ``compute_geometric_terms``."""
    return _kernel_forward(params.geom, terms)


def descriptor_forward(geo_terms: np.ndarray, geom_terms: np.ndarray,
                       params: DescriptorParams) -> np.ndarray:
    """Concatenated (F, 3*(k_geo + k_geom)) face features.

    Channel layout: geodesic block first, then geometric block; each
    kernel's three channels are contiguous.
    """
    return np.concatenate([geodesic_forward(geo_terms, params),
                           geometric_forward(geom_terms, params)], axis=1)


def descriptor_backward(geo_terms: np.ndarray, geom_terms: np.ndarray,
                        params: DescriptorParams,
                        grad_out: np.ndarray) -> DescriptorParams:
    """Parameter gradients of the descriptor layer.

    Geometry is treated as constant (input layer); the layer is linear in
    the kernel weights, so the gradients are plain term/grad contractions.
    """
    F = geo_terms.shape[0]
    k_geo, k_geom = params.k_geo, params.k_geom
    if grad_out.shape != (F, 3 * (k_geo + k_geom)):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match layout")
    g_geo = grad_out[:, : 3 * k_geo].reshape(F, k_geo, 3)
    g_geom = grad_out[:, 3 * k_geo:].reshape(F, k_geom, 3)
    return DescriptorParams(
        geo=np.einsum("fjc,ftc->jt", g_geo, geo_terms),
        geom=np.einsum("fjc,ftc->jt", g_geom, geom_terms),
    )
