"""Face-collapse pooling.

A pooling pass scores every face by the squared feature distance to its
edge-neighbors, greedily selects a conflict-free set of low-score faces,
and collapses each selected face: its three vertices merge into one
point at the face centroid, which removes the face and its three
edge-neighbors (2 vertices, 6 edges, 4 faces per collapse, preserving
the Euler characteristic). Each surviving face at a merge point (a
"ring" face) averages its features with those of the collapse's removed
faces it shares a vertex with.

Conflicts between candidate collapses are decided by simulating the
combined result of all selections so far: a candidate is accepted only
if, after applying every accepted collapse simultaneously, each affected
edge still has exactly two incident faces (or vanishes entirely with
them), orientation stays consistent, no face degenerates or duplicates,
and no vertex is left without a face. The edge conditions need only the
merge point: old edges at the center vertices vanish with the removed
and ring faces, ring-face edges away from them are unchanged, and every
new edge touches the fresh merge point, which no earlier face holds. So
the ring's half-edges out of the merge point must end at distinct
vertices, those into it too, and both sets of ends must agree. Removed
sets are pairwise disjoint and no vertex is merged by two regions, so
all collapses of a pass commute and can be applied simultaneously in any
order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .core import (CSR, NONE, AdjacencyMatrix, Mesh, MeshError, NumericalError,
                   build_adjacency)

# elements per (channels, faces) slab in compute_face_weights
_WEIGHT_BLOCK = 2**16


class Provenance(CSR):
    """Feature-averaging provenance of one pass: new face j is the mean of
    old faces ``self[j]``, ascending."""

    def mean(self, x: np.ndarray) -> np.ndarray:
        """Pooled features: per new face, the mean of its rows of ``x``."""
        return self.segment_sum(x) / np.diff(self.indptr)[:, None]

    @cached_property
    def transposed(self) -> CSR:
        """Row i: the new faces holding old face i, ascending, for every old
        face up to the highest one held."""
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        return CSR.from_pairs(self.indices, rows, int(self.indices.max(initial=-1)) + 1)

    def mean_adjoint(self, grad: np.ndarray, num_old: int) -> np.ndarray:
        """Adjoint of ``mean``: old face i sums grad[j] / len(row j) over the
        rows j holding it, in ascending j (the transposed CSR's order)."""
        t = self.transposed
        out = np.zeros((num_old,) + grad.shape[1:])
        t.segment_sum(grad / np.diff(self.indptr)[:, None], out=out[:len(t)])
        return out


@dataclass
class PoolPlan:
    """A full pooling pass: the center face of each collapse in selection
    order, which fixes the rest (it and its three edge-neighbors vanish,
    and the r-th of R centers' vertices merge into new vertex V' - R + r),
    plus the dense remaps and feature-averaging provenance they induce."""

    regions: list[int]
    face_remap: np.ndarray     # (F,) old -> new face id, REMOVED = -1
    vertex_remap: np.ndarray   # (V,) old -> new vertex id
    provenance: Provenance


@dataclass
class PassRecord:
    """What the backward pass needs from one applied pooling pass."""

    provenance: Provenance
    old_num_faces: int


@dataclass
class PooledMesh:
    mesh: Mesh
    adjacency: AdjacencyMatrix
    features: np.ndarray
    passes: list[PassRecord] = field(default_factory=list)
    stalled: bool = False

    @property
    def pass_count(self) -> int:
        return len(self.passes)


def compute_face_weights(features: np.ndarray, adj: AdjacencyMatrix) -> np.ndarray:
    """Per-face saliency: sum of squared feature distances to the (up to
    three) edge-neighbors; missing neighbors contribute 0. Raises
    ``NumericalError``, without an overflow warning, when a weight is not
    finite.

    Bit-equal to a scalar loop that adds, per slot, the squared channel
    differences one after another, then the slots left to right: per
    block of faces and per slot, a (C, faces) slab of a transposed copy
    is summed over axis 0, which NumPy adds row by row. A block holds
    about ``_WEIGHT_BLOCK`` elements and never one face alone (unless F
    is 1), whose channels NumPy would sum pairwise."""
    if features.shape[0] != adj.num_faces:
        raise ValueError("features row count does not match adjacency")
    (F, C), nb = features.shape, adj.neighbors.T
    safe = np.where(nb == NONE, 0, nb)
    x = np.ascontiguousarray(features.T)
    starts = range(0, max(F - 1, 1), max(2, _WEIGHT_BLOCK // max(C, 1)))
    sq = np.empty(nb.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(starts, [*starts[1:], F]):
            for s in range(3):
                d = np.take(x, safe[s, lo:hi], axis=1)
                np.subtract(x[:, lo:hi], d, out=d)
                d *= d
                d.sum(axis=0, out=sq[s, lo:hi])
        sq[nb == NONE] = 0.0
        weights = (sq[0] + sq[1]) + sq[2]
    if not np.isfinite(weights).all():
        raise NumericalError("pooling saliency is not finite: the features overflow")
    return weights


def _face_components(adj: AdjacencyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Connected component label and size per face (edge-adjacency).

    Hook and compress: each neighbor pair whose labels differ hooks the
    higher label's root onto the lower label, then pointer jumping
    flattens every chain, until no pair differs. Labels only fall and
    stay within the component, so every face ends on the lowest face id
    of its component and components are numbered in order of their
    lowest face. The rounds grow with the log of the diameter, not with
    the diameter as plain min-label propagation does.
    """
    ids = np.arange(adj.num_faces)
    nb = adj.neighbors
    u, s = np.nonzero(nb > ids[:, None])     # each pair once; NONE is -1
    v = nb[u, s]
    label = ids
    while True:
        lu, lv = label[u], label[v]
        differ = lu != lv
        if not differ.any():
            break
        np.minimum.at(label, np.maximum(lu, lv)[differ], np.minimum(lu, lv)[differ])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    _, comp, sizes = np.unique(label, return_inverse=True, return_counts=True)
    return comp, sizes


class _PassState:
    """Incrementally maintained simulation of one pooling pass.

    Tracks, for the hypothetical mesh obtained by applying every accepted
    collapse simultaneously: which input faces are still present, ``rep``,
    the current id of each input vertex, and the face count of each
    current vertex. A collapse deletes ``removed`` and merges the center
    vertices into a fresh token t (vertex ids from V upwards), which
    becomes their ``rep``; no face is rewritten. Whether the edges stay
    2-manifold and consistently oriented is decided by the ring faces' new
    half-edges alone:

    - old edges always pass: every old edge at a center vertex lies only
      in faces of removed + ring, so it disappears with them;
    - ring-face edges cancel: a ring face's edge away from the center
      vertices is the same edge before and after;
    - only new edges matter: each touches t, which no earlier face holds.

    A ring face holds one center vertex (never merged, or the face could
    not be tried), followed by ``next`` and ``prev``, and gives the
    half-edges (t, rep[next]) and (rep[prev], t). Every edge (t, x) then
    has one face on each side exactly when the outgoing ends are distinct,
    the incoming ends are distinct, and the two sets are equal.

    ``settled`` marks the faces that can never collapse in this pass: from
    the start those with a border slot or a repeated neighbor, and from
    each commit on every neighbor of a removed face and every face at a
    merged vertex (faces only die and vertices are only merged). The
    removed faces neighbor each other, so every dead face is settled. The
    walk skips these and the faces whose component would keep fewer than 4
    faces, so a face tried is accepted or rejected only for now. Such a
    face is deferred on the watch list of every vertex of its one-ring
    faces; a commit wakes the faces watching the vertices of the faces it
    touched, which are exactly the deferred faces within two vertex hops
    of them.

    Everything is held in flat Python lists, which index far faster one
    element at a time than NumPy rows. Built once per pass: ``faces`` and
    ``neighbors``, the input tables, and ``corners[v]``, which lists ``h,
    next, prev`` for each face h at vertex v in ascending face order.
    """

    def __init__(self, mesh: Mesh, adj: AdjacencyMatrix):
        F, V = mesh.num_faces, mesh.num_vertices
        nb = adj.neighbors
        self.faces = mesh.faces.tolist()
        self.neighbors = nb.tolist()
        corners = self.corners = [[] for _ in range(V)]
        for h, (a, b, c) in enumerate(self.faces):
            corners[a] += h, b, c
            corners[b] += h, c, a
            corners[c] += h, a, b
        comp, comp_sizes = _face_components(adj)
        self.comp = comp.tolist()
        self.comp_left = comp_sizes.tolist()
        self.alive = [True] * F
        self.settled = ((nb == NONE).any(axis=1) | (nb[:, 0] == nb[:, 1])
                        | (nb[:, 1] == nb[:, 2]) | (nb[:, 2] == nb[:, 0])).tolist()
        self.watch: dict[int, list[int]] = {}   # vertex -> deferred faces
        self.rep = list(range(V))
        self.next_token = V
        self.vcount = np.bincount(mesh.faces.ravel(), minlength=V + F).tolist()

    def try_candidate(self, f: int):
        """Return the collapse of the alive, unsettled face f as (removed,
        ring, lost, center_verts) if it is compatible with everything
        accepted so far, or None if the simulation rejects it for now.
        ``lost`` holds the current vertex opposite f in each neighbor.

        The degenerate-face test fires only on a ring face with a repeated
        vertex (build_adjacency accepts one, validate_mesh does not): on an
        edge-manifold input, o or q in cvs would make the face a neighbor,
        and o, q merged into one token would put it on an edge of an
        earlier center face, which died with it. The duplicate-face test
        fires on two ring faces across one edge o-q in opposite directions:
        at a vertex-manifold merge point that 2-cycle is the whole link, so
        f's component has 6 faces and is never tried, but a pinched vertex
        carrying a pillow of two faces reaches it."""
        nbs = self.neighbors[f]
        cvs = self.faces[f]
        alive, rep, corners = self.alive, self.rep, self.corners
        ring = []
        succ = {}       # out end -> in end of each ring face's (t, o), (q, t)
        for c in cvs:
            row = iter(corners[c])
            for h, o, q in zip(row, row, row):
                if alive[h] and h != f and h not in nbs:
                    o, q = rep[o], rep[q]
                    if o == q or o in cvs or q in cvs:
                        return None  # face would degenerate under the merge
                    ring.append(h)
                    succ[o] = q
        # one key per ring face: equal sets also make the in ends distinct
        if len(succ) < len(ring) or set(succ.values()) != succ.keys():
            return None  # an edge at the merge point not 2-manifold or oriented
        # every new face holds the fresh token, so it can only duplicate
        # another new face, (t, q, o) against (t, o, q), never an old one
        if any(succ[q] == o for o, q in succ.items()):
            return None  # duplicate face after the merge
        # no surviving vertex may lose its last face
        lost = [rep[v] for h in nbs for v in self.faces[h] if v not in cvs]
        if any(self.vcount[v] <= lost.count(v) for v in lost):
            return None
        return [f, *nbs], ring, lost, cvs

    def defer(self, f: int) -> None:
        """Watch a face the simulation rejected for now: put it on the list
        of every vertex of its one-ring faces in the input mesh."""
        faces, corners, watch = self.faces, self.corners, self.watch
        for v in {v for u in faces[f] for z in corners[u][::3] for v in faces[z]}:
            watch.setdefault(v, []).append(f)

    def commit(self, f: int, candidate) -> list[int]:
        """Apply an accepted ``try_candidate`` result to the simulation and
        return the deferred faces it wakes (possibly repeated, dead,
        settled or already woken: callers filter)."""
        removed, ring, lost, cvs = candidate
        vcount, rep, token = self.vcount, self.rep, self.next_token
        alive, settled, neighbors = self.alive, self.settled, self.neighbors
        for v in lost:
            vcount[v] -= 1
        vcount[token] = len(ring)
        for h in removed:
            alive[h] = False
            for w in neighbors[h]:
                settled[w] = True
        for c in cvs:
            rep[c] = token
            for w in self.corners[c][::3]:
                settled[w] = True
        self.next_token += 1
        self.comp_left[self.comp[f]] -= 4
        if not self.watch:
            return []       # no face is deferred: nothing to wake
        faces, watch = self.faces, self.watch
        touched = {v for h in removed + ring for v in faces[h]}
        return [w for v in touched if v in watch for w in watch.pop(v)]


def plan_pass(mesh: Mesh, adj: AdjacencyMatrix, weights: np.ndarray,
              target: int) -> PoolPlan:
    """Greedy conflict-free selection of collapse regions.

    Lowest weight first (ties by ascending face id): the next collapse is
    always the first face in that order whose collapse passes the manifold
    guard and is compatible with every collapse accepted so far, until
    the projected face count reaches ``target`` or no selectable face
    remains. Compatibility is judged by the shared pass simulation (see
    _PassState), so accepted collapses always compose into a valid
    simultaneous application.

    The order is walked once. A settled face is skipped, and so is a face
    whose component would keep fewer than 4 faces (components only
    shrink). Every other face is tried: a compatible collapse is
    committed, and a face the simulation rejects for now is deferred until
    a later commit within its two-hop neighborhood wakes it and puts its
    position on a retry heap. Every tried face lies before the walk
    pointer, so the smallest queued position, if any, is the first
    eligible face, and otherwise the walk continues.
    """
    if target < 4:
        raise ValueError("target face count must be >= 4")
    F = mesh.num_faces
    projected = F
    if projected <= target:
        return _finalize_plan(mesh, adj, [])
    state = _PassState(mesh, adj)
    settled = state.settled
    comp, comp_left = state.comp, state.comp_left
    order = np.lexsort((np.arange(F), weights))
    position = np.empty(F, dtype=np.int64)
    position[order] = np.arange(F)
    order, position = order.tolist(), position.tolist()
    centers: list[int] = []
    retry: list[int] = []           # heap of positions of woken faces
    queued = [False] * F
    walk = 0                        # first position never tried
    while projected > target:
        if retry:
            f = order[heapq.heappop(retry)]
            queued[f] = False
        elif walk < F:
            f = order[walk]
            walk += 1
        else:
            break
        if settled[f] or comp_left[comp[f]] < 8:
            continue
        cand = state.try_candidate(f)
        if cand is None:
            state.defer(f)
            continue
        centers.append(f)
        projected -= 4
        for w in state.commit(f, cand):
            if not settled[w] and not queued[w]:
                queued[w] = True
                heapq.heappush(retry, position[w])
    return _finalize_plan(mesh, adj, centers)


def _finalize_plan(mesh: Mesh, adj: AdjacencyMatrix, centers: list[int]) -> PoolPlan:
    F, V = mesh.num_faces, mesh.num_vertices
    c = np.array(centers, dtype=np.int64)
    removed = np.column_stack([c, adj.neighbors[c]])
    old_vertices = mesh.faces[c]
    survivors = np.flatnonzero(np.bincount(removed.ravel(), minlength=F) == 0)
    face_remap = np.full(F, -1, dtype=np.int64)
    face_remap[survivors] = np.arange(len(survivors))

    kept = np.flatnonzero(np.bincount(old_vertices.ravel(), minlength=V) == 0)
    n_survive = len(kept)
    vertex_remap = np.full(V, -1, dtype=np.int64)
    vertex_remap[kept] = np.arange(n_survive)
    vertex_remap[old_vertices] = np.arange(n_survive, n_survive + len(c))[:, None]

    # each survivor averages itself and, per merge point it holds, the
    # removed faces of that region sharing a vertex with it (it holds at
    # most one vertex of a center face: two would make it a neighbor)
    f = mesh.faces
    region = vertex_remap[f[survivors]] - n_survive
    held, slot = np.nonzero(region >= 0)
    lost = removed[region[held, slot]]
    touch = _shares_vertex(f, survivors[held], lost)
    provenance = Provenance.from_pairs(
        np.concatenate([np.arange(len(survivors)), np.repeat(held, 4)[touch.ravel()]]),
        np.concatenate([survivors, lost[touch]]), len(survivors))
    return PoolPlan(regions=centers, face_remap=face_remap,
                    vertex_remap=vertex_remap, provenance=provenance)


def _shares_vertex(faces: np.ndarray, ring: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """(n, 4) mask: whether face ``ring[i]`` shares a vertex with face
    ``lost[i, j]``, as nine element-wise compares of the two gathers."""
    a, b = faces[ring], faces[lost]
    touch = np.zeros(lost.shape, dtype=bool)
    for p in range(3):
        for q in range(3):
            touch |= a[:, p, None] == b[:, :, q]
    return touch


def apply_pass(mesh: Mesh, features: np.ndarray, plan: PoolPlan) -> PooledMesh:
    """Apply all planned collapses simultaneously; each new face gets the
    provenance mean of the features it absorbs.

    The adjacency of the pooled mesh is built anew by ``build_adjacency``,
    whose sort-based construction costs less than patching ring rows of
    the old table would.
    """
    F, V = mesh.num_faces, mesh.num_vertices
    if plan.face_remap.shape[0] != F or plan.vertex_remap.shape[0] != V:
        raise MeshError("pool plan does not match mesh")
    if features.shape[0] != F:
        raise MeshError("features do not match mesh")

    # surviving vertices keep their coordinates, merged ones get centroids
    new_verts = np.empty((plan.vertex_remap.max() + 1, 3))
    new_verts[plan.vertex_remap] = mesh.vertices
    merged = mesh.faces[plan.regions]
    new_verts[len(new_verts) - len(merged):] = mesh.vertices[merged].mean(axis=1)

    survive_f = plan.face_remap >= 0
    new_faces = plan.vertex_remap[mesh.faces[survive_f]]
    new_mesh = Mesh(new_verts, new_faces, name=mesh.name)

    record = PassRecord(provenance=plan.provenance, old_num_faces=F)
    return PooledMesh(mesh=new_mesh, adjacency=build_adjacency(new_mesh),
                      features=plan.provenance.mean(features),
                      passes=[record])


def pool_to_target(mesh: Mesh, adj: AdjacencyMatrix, features: np.ndarray,
                   target: int, max_passes: int = 64) -> PooledMesh:
    """Repeat weight/plan/apply passes until the face count reaches the
    target band [target-3, target]. A result left above the band, because
    a pass made no progress or ``max_passes`` ran out, is flagged as a
    stall."""
    if target < 4:
        raise ValueError("target face count must be >= 4")
    passes: list[PassRecord] = []
    current = PooledMesh(mesh=mesh, adjacency=adj, features=features)
    while current.mesh.num_faces > target and len(passes) < max_passes:
        weights = compute_face_weights(current.features, current.adjacency)
        plan = plan_pass(current.mesh, current.adjacency, weights, target)
        if not plan.regions:
            break
        current = apply_pass(current.mesh, current.features, plan)
        passes.extend(current.passes)
    return replace(current, passes=passes, stalled=current.mesh.num_faces > target)


def pooling_backward(passes: list[PassRecord], grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of the feature averaging across all recorded passes.

    The discrete region selection is treated as constant (like max-pool
    indices): each contributing old face receives grad/m from every new
    face it was averaged into.
    """
    grad = grad_out
    for rec in reversed(passes):
        if grad.shape[0] != len(rec.provenance):
            raise ValueError("gradient rows do not match pass provenance")
        grad = rec.provenance.mean_adjoint(grad, rec.old_num_faces)
    return grad
