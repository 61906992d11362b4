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

|.| is the componentwise absolute value by default, keeping every term a
3-vector; ``abs_mode="norm"`` broadcasts the Euclidean norm instead.
Missing neighbors on borders contribute zero vectors. The first geodesic
term is identically zero for the arithmetic centroid; it is kept so the
kernel layout stays a plain (a0, a1, a2) triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NONE, AdjacencyMatrix, GeometryCache, Mesh


def _abs_terms(x: np.ndarray, abs_mode: str) -> np.ndarray:
    if abs_mode == "componentwise":
        return np.abs(x)
    if abs_mode == "norm":
        return np.repeat(np.linalg.norm(x, axis=-1, keepdims=True), 3, axis=-1)
    raise ValueError(f"unknown abs_mode {abs_mode!r}")


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
        if not (np.isfinite(self.geo).all() and np.isfinite(self.geom).all()):
            raise ValueError("descriptor weights must be finite")

    @property
    def k_geo(self) -> int:
        return self.geo.shape[0]

    @property
    def k_geom(self) -> int:
        return self.geom.shape[0]

    @property
    def out_channels(self) -> int:
        return 3 * (self.k_geo + self.k_geom)


def init_descriptor_params(k_geo: int, k_geom: int, rng: np.random.Generator) -> DescriptorParams:
    # uniform in [-s, s], s = 1/sqrt(term count) of each kernel
    s_geo, s_geom = 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(4.0)
    return DescriptorParams(
        geo=rng.uniform(-s_geo, s_geo, size=(k_geo, 3)),
        geom=rng.uniform(-s_geom, s_geom, size=(k_geom, 4)),
    )


@dataclass
class GeodesicTerms:
    """Per-face, per-vertex-slot raw terms of the geodesic descriptor."""

    pos_dev: np.ndarray         # (F, 3 slots, 3)
    vnormal: np.ndarray         # (F, 3 slots, 3)
    edge_pair_diff: np.ndarray  # (F, 3 slots, 3), componentwise >= 0

    @property
    def slot_sums(self) -> np.ndarray:
        """(F, 3 terms, 3): each term summed over the vertex slots."""
        return np.stack([self.pos_dev.sum(axis=1),
                         self.vnormal.sum(axis=1),
                         self.edge_pair_diff.sum(axis=1)], axis=1)


def compute_geodesic_terms(mesh: Mesh, adj: AdjacencyMatrix, geo: GeometryCache,
                           abs_mode: str = "componentwise") -> GeodesicTerms:
    """Raw geodesic terms; pure geometry, no learnable weights involved."""
    v, f = mesh.vertices, mesh.faces
    F = mesh.num_faces
    pos_dev = v[f] - geo.face_centroids[:, None, :]
    vnormal = geo.vertex_normals[f]

    # vector from each face vertex along the free edge of the neighbor
    # triangle across each incident edge of the face
    nb = adj.neighbors                       # (F, 3)
    se = adj.shared_edges                    # (F, 3, 2)
    safe_nb = np.where(nb == NONE, 0, nb)
    # free vertex of each neighbor: the one not on the shared edge
    opp = f[safe_nb].sum(axis=2) - se.sum(axis=2)          # (F, 3)
    evec = np.zeros((F, 3, 2, 3))  # [face, vertex slot, incident edge j, xyz]
    for i in range(3):
        vi = f[:, i]                                       # (F,)
        on_edge = (se[:, :, 0] == vi[:, None]) | (se[:, :, 1] == vi[:, None])
        # exactly two of the three slots touch vertex i; order j by slot order
        slot_idx = np.argsort(~on_edge, axis=1, kind="stable")[:, :2]  # (F, 2)
        rows = np.arange(F)[:, None]
        chosen_nb = nb[rows, slot_idx]
        # opp is meaningless where the neighbor is NONE; clamp before indexing
        chosen_opp = np.clip(opp[rows, slot_idx], 0, mesh.num_vertices - 1)
        vecs = v[chosen_opp] - v[vi][:, None, :]
        vecs[chosen_nb == NONE] = 0.0
        evec[:, i] = vecs
    edge_pair_diff = _abs_terms(evec[:, :, 0, :] - evec[:, :, 1, :], abs_mode)
    return GeodesicTerms(pos_dev, vnormal, edge_pair_diff)


def compute_geometric_terms(mesh: Mesh, adj: AdjacencyMatrix, geo: GeometryCache,
                            abs_mode: str = "componentwise") -> np.ndarray:
    """(F, 4 terms, 3) raw terms of the geometric descriptor."""
    nb = adj.neighbors
    safe_nb = np.where(nb == NONE, 0, nb)
    missing = (nb == NONE)[:, :, None]

    cdiff = geo.face_centroids[:, None, :] - geo.face_centroids[safe_nb]
    cdiff = np.where(missing, 0.0, _abs_terms(cdiff, abs_mode))
    ncross = np.cross(np.broadcast_to(geo.face_normals[:, None, :], safe_nb.shape + (3,)),
                      geo.face_normals[safe_nb])
    ncross = np.where(missing, 0.0, _abs_terms(ncross, abs_mode))
    return np.stack([geo.face_centroids, geo.face_normals,
                     cdiff.sum(axis=1), ncross.sum(axis=1)], axis=1)


def geodesic_forward(terms: GeodesicTerms, params: DescriptorParams) -> np.ndarray:
    """(F, 3*k_geo) geodesic feature block; kernels laid out contiguously."""
    out = np.einsum("jt,ftc->fjc", params.geo, terms.slot_sums)
    return out.reshape(out.shape[0], -1)


def geometric_forward(terms: np.ndarray, params: DescriptorParams) -> np.ndarray:
    """(F, 3*k_geom) geometric feature block from ``compute_geometric_terms``."""
    out = np.einsum("jt,ftc->fjc", params.geom, terms)
    return out.reshape(out.shape[0], -1)


def descriptor_forward(mesh: Mesh, adj: AdjacencyMatrix, geo: GeometryCache,
                       params: DescriptorParams,
                       abs_mode: str = "componentwise") -> np.ndarray:
    """Concatenated (F, 3*(k_geo + k_geom)) face features.

    Channel layout: geodesic block first, then geometric block.
    """
    return np.concatenate([
        geodesic_forward(compute_geodesic_terms(mesh, adj, geo, abs_mode), params),
        geometric_forward(compute_geometric_terms(mesh, adj, geo, abs_mode), params)],
        axis=1)


def descriptor_backward(geo_terms: GeodesicTerms, geom_terms: np.ndarray,
                        params: DescriptorParams,
                        grad_out: np.ndarray) -> DescriptorParams:
    """Parameter gradients of the descriptor layer.

    Geometry is treated as constant (input layer); the layer is linear in
    the kernel weights, so the gradients are plain term/grad contractions.
    """
    F = geo_terms.pos_dev.shape[0]
    k_geo, k_geom = params.k_geo, params.k_geom
    if grad_out.shape != (F, 3 * (k_geo + k_geom)):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match layout")
    g_geo = grad_out[:, : 3 * k_geo].reshape(F, k_geo, 3)
    g_geom = grad_out[:, 3 * k_geo:].reshape(F, k_geom, 3)
    return DescriptorParams(
        geo=np.einsum("fjc,ftc->jt", g_geo, geo_terms.slot_sums),
        geom=np.einsum("fjc,ftc->jt", g_geom, geom_terms),
    )
