"""Independent brute-force reference implementations.

These deliberately avoid the library's data paths: adjacency is found by
O(F^2) pairwise edge matching, regions by a standalone BFS, convolution
by a dense (F, K, C) gather and an ``np.add.at`` scatter, weights by a
plain per-face Python loop, pooling plans by a naive greedy that
re-validates every candidate against a from-scratch reconstruction of
the whole post-collapse mesh, and OFF files by a per-line parser and a
per-row writer, OBJ files by a per-line parser. Geometry and descriptor
terms use NumPy's reductions (``mean``, ``sum(axis=1)``, ``np.add.at``,
``einsum``) and a per-vertex-slot loop with an argsort. The library must
bit-match all of them.
"""

from __future__ import annotations

import io

import numpy as np

from meshlearn.core import NONE, GeometryCache, Mesh, MeshError

# ---------------------------------------------------------------------------
# OFF and OBJ file I/O


def oracle_load_off(text: str) -> Mesh:
    """Per-line OFF parser: every non-empty line (``#`` comments cut) is
    parsed on its own, and each error names its line."""
    lines = [(i + 1, ln.split("#", 1)[0].strip())
             for i, ln in enumerate(text.splitlines())]
    lines = [(n, ln) for n, ln in lines if ln]
    if not lines:
        raise MeshError("empty OFF file")
    n0, header = lines[0]
    rest = lines[1:]
    if header != "OFF":
        # counts may share the header line ("OFF 8 12 0")
        if header.startswith("OFF"):
            rest = [(n0, header[3:].strip())] + rest
        else:
            raise MeshError(f"line {n0}: missing OFF header")
    if not rest:
        raise MeshError("missing OFF counts line")
    n1, counts = rest[0]
    parts = counts.split()
    if len(parts) < 2:
        raise MeshError(f"line {n1}: malformed counts line {counts!r}")
    try:
        nv, nf = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshError(f"line {n1}: malformed counts line {counts!r}") from None
    if nv < 0 or nf < 0:
        raise MeshError(f"line {n1}: malformed counts line {counts!r}")
    body = rest[1:]
    if len(body) < nv + nf:
        raise MeshError(f"OFF file truncated: expected {nv} vertices and {nf} faces")
    verts = np.empty((nv, 3))
    for i in range(nv):
        n, ln = body[i]
        p = ln.split()
        if len(p) < 3:
            raise MeshError(f"line {n}: malformed vertex line")
        try:
            verts[i] = [float(p[0]), float(p[1]), float(p[2])]
        except ValueError:
            raise MeshError(f"line {n}: malformed vertex line") from None
    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        n, ln = body[nv + i]
        p = ln.split()
        try:
            k = int(p[0])
        except (ValueError, IndexError):
            raise MeshError(f"line {n}: malformed face line") from None
        if k != 3:
            raise MeshError(f"non-triangle face at line {n}")
        if len(p) < 4:
            raise MeshError(f"line {n}: malformed face line")
        try:
            faces[i] = [int(p[1]), int(p[2]), int(p[3])]
        except (ValueError, OverflowError):
            raise MeshError(f"line {n}: malformed face line") from None
    if nf and faces.size and (faces.min() < 0 or faces.max() >= nv):
        bad = int(np.argmax((faces < 0).any(axis=1) | (faces >= nv).any(axis=1)))
        raise MeshError(f"face {bad}: vertex index out of range")
    if nf == 0:
        raise MeshError("mesh has no faces")
    return Mesh(verts, faces)


def oracle_save_off(mesh: Mesh) -> str:
    """OFF text written one vertex and one face at a time."""
    buf = io.StringIO()
    buf.write("OFF\n%d %d 0\n" % (mesh.num_vertices, mesh.num_faces))
    for v in mesh.vertices:
        buf.write("%.17g %.17g %.17g\n" % (v[0], v[1], v[2]))
    for f in mesh.faces:
        buf.write("3 %d %d %d\n" % (f[0], f[1], f[2]))
    return buf.getvalue()


def oracle_load_obj(text: str) -> Mesh:
    """Per-line OBJ parser: ``v`` and triangular ``f`` lines (``#`` comments
    cut, other keywords skipped), 1-based or negative relative indices,
    texture/normal sub-indices ignored; each error names its line."""
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        p = ln.split()
        if p[0] == "v":
            if len(p) < 4:
                raise MeshError(f"line {n}: malformed vertex line")
            try:
                verts.append([float(p[1]), float(p[2]), float(p[3])])
            except ValueError:
                raise MeshError(f"line {n}: malformed vertex line") from None
        elif p[0] == "f":
            if len(p) != 4:
                raise MeshError(f"non-triangle face at line {n}")
            idx = []
            for tok in p[1:]:
                head = tok.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MeshError(f"line {n}: malformed face index {tok!r}") from None
                idx.append(i - 1 if i > 0 else len(verts) + i)
            if any(i < 0 or i >= len(verts) for i in idx):
                raise MeshError(f"line {n}: vertex index out of range")
            faces.append(idx)
    if not faces:
        raise MeshError("mesh has no faces")
    return Mesh(np.array(verts, dtype=np.float64).reshape(-1, 3),
                np.array(faces, dtype=np.int64).reshape(-1, 3))


# ---------------------------------------------------------------------------
# adjacency


def oracle_adjacency(mesh: Mesh):
    """O(F^2) pairwise shared-edge search; returns (neighbors, shared_edges)."""
    F = mesh.num_faces
    v = mesh.vertices
    fsets = [set(int(x) for x in mesh.faces[f]) for f in range(F)]
    neighbors = np.full((F, 3), NONE, dtype=np.int64)
    shared = np.full((F, 3, 2), NONE, dtype=np.int64)
    for f in range(F):
        a, b, c = (int(x) for x in mesh.faces[f])
        slots = []
        for u, w in ((a, b), (b, c), (c, a)):
            edge = (u, w) if u < w else (w, u)
            nb = NONE
            for g in range(F):
                if g != f and edge[0] in fsets[g] and edge[1] in fsets[g]:
                    # shared edge only if it is an actual edge of g
                    ga, gb, gc = (int(x) for x in mesh.faces[g])
                    gedges = {tuple(sorted(e)) for e in ((ga, gb), (gb, gc), (gc, ga))}
                    if edge in gedges:
                        nb = g
                        break
            slots.append((nb, edge))
        # canonical order: length descending, ties ascending id, NONE last
        def key(slot):
            nb, edge = slot
            d = v[edge[0]] - v[edge[1]]
            return (-float(d @ d), nb if nb != NONE else F)
        slots.sort(key=key)
        for s, (nb, edge) in enumerate(slots):
            neighbors[f, s] = nb
            shared[f, s] = edge
    return neighbors, shared


# ---------------------------------------------------------------------------
# convolution regions


def oracle_regions(neighbors: np.ndarray, kernel_size: int):
    """Standalone BFS over the face-adjacency graph in slot order."""
    F = neighbors.shape[0]
    rows = []
    for f in range(F):
        seen = {f}
        queue = []
        for g in neighbors[f]:
            g = int(g)
            if g != NONE and g not in seen and len(queue) < kernel_size:
                seen.add(g)
                queue.append(g)
        i = 0
        while i < len(queue) and len(queue) < kernel_size:
            for g in neighbors[queue[i]]:
                g = int(g)
                if g != NONE and g not in seen:
                    seen.add(g)
                    queue.append(g)
                    if len(queue) >= kernel_size:
                        break
            i += 1
        rows.append(queue)
    return rows


# ---------------------------------------------------------------------------
# convolution: the full (F, K, C) gather and np.add.at scatter


def _oracle_canonical_members(regions):
    """Region members sorted ascending per row (canonical accumulation
    order), with a boolean validity mask. Padding sorts last."""
    big = regions.num_faces + 1
    m = np.where(regions.members < 0, big, regions.members)
    m = np.sort(m, axis=1)
    valid = m < big
    return np.where(valid, m, 0), valid


def _oracle_gather_sums(features, regions):
    idx, valid = _oracle_canonical_members(regions)
    gathered = features[idx] * valid[:, :, None]          # (F, K, C)
    s1 = gathered.sum(axis=1)
    diff = np.where(valid[:, :, None], features[:, None, :] - gathered, 0.0)
    s2 = np.abs(diff).sum(axis=1)
    return idx, valid, diff, s1, s2


def oracle_conv_forward(features, regions, params, activation=True):
    """Returns (out, cache) of the three-term convolution."""
    idx, valid, diff, s1, s2 = _oracle_gather_sums(features, regions)
    z = features @ params.w0.T + s1 @ params.w1.T + s2 @ params.w2.T + params.bias
    out = np.maximum(z, 0.0) if activation else z
    return out, {"idx": idx, "valid": valid, "diff": diff, "s1": s1,
                 "s2": s2, "z": z}


def oracle_conv_backward(features, regions, params, grad_out, activation=True):
    """Returns (grad_features, (grad_w0, grad_w1, grad_w2, grad_bias))."""
    _, cache = oracle_conv_forward(features, regions, params, activation=activation)
    idx, valid, diff = cache["idx"], cache["valid"], cache["diff"]
    s1, s2, z = cache["s1"], cache["s2"], cache["z"]
    gz = grad_out * (z > 0) if activation else grad_out

    grad_w0 = gz.T @ features
    grad_w1 = gz.T @ s1
    grad_w2 = gz.T @ s2
    grad_bias = gz.sum(axis=0)

    h1 = gz @ params.w1
    h2 = gz @ params.w2
    sign = np.sign(diff)
    grad_features = gz @ params.w0
    grad_features += h2 * sign.sum(axis=1)
    scatter = (h1[:, None, :] - h2[:, None, :] * sign) * valid[:, :, None]
    np.add.at(grad_features, idx.ravel(), scatter.reshape(-1, features.shape[1]))
    return grad_features, (grad_w0, grad_w1, grad_w2, grad_bias)


# ---------------------------------------------------------------------------
# pooling weights


def oracle_weights(features: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Plain per-face loop over Eq-style squared feature distances."""
    F, C = features.shape
    out = np.zeros(F)
    for f in range(F):
        w = 0.0
        for s in range(3):
            g = int(neighbors[f, s])
            acc = 0.0
            if g != NONE:
                for c in range(C):
                    d = features[f, c] - features[g, c]
                    acc += d * d
            w += acc
        out[f] = w
    return out


# ---------------------------------------------------------------------------
# pooling plan


def _face_neighbors_from_list(faces) -> list[list[int]]:
    """Edge-neighbors recomputed from the raw face list."""
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for f, (a, b, c) in enumerate(faces):
        for u, w in ((a, b), (b, c), (c, a)):
            key = (u, w) if u < w else (w, u)
            edge_faces.setdefault(key, []).append(f)
    nbs: list[list[int]] = [[] for _ in faces]
    for fs in edge_faces.values():
        if len(fs) == 2:
            nbs[fs[0]].append(fs[1])
            nbs[fs[1]].append(fs[0])
    return nbs


def _components(faces) -> tuple[list[int], dict[int, int]]:
    nbs = _face_neighbors_from_list(faces)
    comp = [-1] * len(faces)
    sizes: dict[int, int] = {}
    cid = 0
    for seed in range(len(faces)):
        if comp[seed] >= 0:
            continue
        stack = [seed]
        comp[seed] = cid
        n = 0
        while stack:
            f = stack.pop()
            n += 1
            for g in nbs[f]:
                if comp[g] < 0:
                    comp[g] = cid
                    stack.append(g)
        sizes[cid] = n
        cid += 1
    return comp, sizes


def oracle_plan_pass(mesh: Mesh, weights: np.ndarray, target: int):
    """Naive greedy selection with from-scratch global validation.

    Every candidate is judged by materializing the entire post-collapse
    mesh (all committed collapses plus the candidate, applied at once)
    and checking global validity: every edge has exactly two incident
    faces (input must be closed), orientation is consistent, no face is
    degenerate or duplicated, no expected vertex disappears, and the
    component keeps at least 4 faces. Returns the selected regions as
    (center, removed, old_vertices) triples in selection order.

    Only valid for closed manifold input meshes.
    """
    F, V = mesh.num_faces, mesh.num_vertices
    faces = [tuple(int(x) for x in mesh.faces[f]) for f in range(F)]
    nbs = _face_neighbors_from_list(faces)
    comp, comp_sizes = _components(faces)
    order = sorted(range(F), key=lambda f: (weights[f], f))

    committed: list[tuple[int, list[int], list[int]]] = []
    removed_all: set[int] = set()
    merged: dict[int, int] = {}
    per_comp: dict[int, int] = {}
    projected = F

    def candidate_valid(f: int):
        if len(nbs[f]) != 3 or len(set(nbs[f])) != 3:
            return None
        removed = sorted(set(nbs[f]) | {f})
        if len(removed) != 4 or any(h in removed_all for h in removed):
            return None
        if comp_sizes[comp[f]] - 4 * (per_comp.get(comp[f], 0) + 1) < 4:
            return None
        cvs = set(faces[f])
        if any(v in merged for v in cvs):
            return None
        token = V + len(committed)
        merged2 = dict(merged)
        for v in cvs:
            merged2[v] = token
        removed2 = removed_all | set(removed)
        post = [tuple(merged2.get(v, v) for v in faces[g])
                for g in range(F) if g not in removed2]
        # global validity of the simultaneous application
        fkeys: dict[tuple[int, ...], int] = {}
        ecount: dict[tuple[int, int], int] = {}
        dcount: dict[tuple[int, int], int] = {}
        present: set[int] = set()
        for tri in post:
            if len(set(tri)) != 3:
                return None  # degenerate face
            k = tuple(sorted(tri))
            fkeys[k] = fkeys.get(k, 0) + 1
            if fkeys[k] > 1:
                return None  # duplicate face
            a, b, c = tri
            for u, w in ((a, b), (b, c), (c, a)):
                dcount[(u, w)] = dcount.get((u, w), 0) + 1
                if dcount[(u, w)] > 1:
                    return None  # inconsistent orientation
                e = (u, w) if u < w else (w, u)
                ecount[e] = ecount.get(e, 0) + 1
            present.update(tri)
        if any(n != 2 for n in ecount.values()):
            return None  # mesh would not stay closed 2-manifold
        expected = set(range(V)) - set(merged2) | set(merged2.values())
        if present != expected:
            return None  # some vertex would lose its last face
        return removed, sorted(cvs)

    if projected <= target:
        return []
    while projected > target:
        progressed = False
        for f in order:
            if f in removed_all:
                continue
            cand = candidate_valid(f)
            if cand is None:
                continue
            removed, cvs = cand
            token = V + len(committed)
            committed.append((f, removed, cvs))
            removed_all.update(removed)
            for v in cvs:
                merged[v] = token
            per_comp[comp[f]] = per_comp.get(comp[f], 0) + 1
            projected -= 4
            progressed = True
            break
        if not progressed:
            break
    return committed


def oracle_provenance(mesh: Mesh, regions) -> list[list[int]]:
    """Provenance rows of one pass by the documented rule, in a scalar
    loop over the (center, removed, old_vertices) triples: each surviving
    face, in ascending order, averages itself and, for every region whose
    center face shares a vertex with it, each removed face of that region
    that shares a vertex with it. Rows are ascending."""
    faces = [set(f) for f in mesh.faces.tolist()]
    gone = {h for _, removed, _ in regions for h in removed}
    rows = []
    for g, fg in enumerate(faces):
        if g in gone:
            continue
        row = {g}
        for center, removed, _ in regions:
            if faces[center] & fg:
                row.update(h for h in removed if faces[h] & fg)
        rows.append(sorted(row))
    return rows


# ---------------------------------------------------------------------------
# geometry and face descriptors


def oracle_geometry(mesh: Mesh) -> GeometryCache:
    """Centroids by ``mean``; vertex normal sums by ``np.add.at`` in
    slot-major order (every face's slot 0, then slot 1, then slot 2)."""
    v, f = mesh.vertices, mesh.faces
    V, F = mesh.num_vertices, mesh.num_faces
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    norms = np.linalg.norm(cross, axis=1)
    normals = cross / norms[:, None]
    vsum = np.zeros((V, 3))
    np.add.at(vsum, f.T.ravel(), np.tile(normals, (3, 1)))
    vcount = np.bincount(f.ravel(), minlength=V)
    used = vcount > 0
    vnormals = np.zeros((V, 3))
    vnormals[used] = vsum[used] / vcount[used, None]
    # a zero mean falls back to the normal of the first incident face
    for u in np.flatnonzero(used & (np.linalg.norm(vnormals, axis=1) <= 1e-300)):
        vnormals[u] = normals[np.flatnonzero((f == u).any(axis=1))[0]]
    vn = np.linalg.norm(vnormals, axis=1)
    nz = vn > 0
    vnormals[nz] = vnormals[nz] / vn[nz, None]
    return GeometryCache(v[f].mean(axis=1), normals, 0.5 * norms, vnormals)


def oracle_geodesic_terms(mesh: Mesh, adj, geo: GeometryCache):
    """(pos_dev, vnormal, edge_pair_diff, slot_sums). For each vertex slot
    i, a stable argsort picks the two adjacency slots whose shared edge
    holds vertex i, in slot order; each gives the vector from vertex i to
    the neighbor's free vertex, or zero across a border."""
    v, f = mesh.vertices, mesh.faces
    F = mesh.num_faces
    pos_dev = v[f] - geo.face_centroids[:, None, :]
    vnormal = geo.vertex_normals[f]
    nb, se = adj.neighbors, adj.shared_edges
    safe_nb = np.where(nb == NONE, 0, nb)
    opp = f[safe_nb].sum(axis=2) - se.sum(axis=2)
    evec = np.zeros((F, 3, 2, 3))
    rows = np.arange(F)[:, None]
    for i in range(3):
        vi = f[:, i]
        on_edge = (se[:, :, 0] == vi[:, None]) | (se[:, :, 1] == vi[:, None])
        slot_idx = np.argsort(~on_edge, axis=1, kind="stable")[:, :2]
        chosen_opp = np.clip(opp[rows, slot_idx], 0, mesh.num_vertices - 1)
        vecs = v[chosen_opp] - v[vi][:, None, :]
        vecs[nb[rows, slot_idx] == NONE] = 0.0
        evec[:, i] = vecs
    edge_pair_diff = np.abs(evec[:, :, 0] - evec[:, :, 1])
    slot_sums = np.stack([x.sum(axis=1) for x in (pos_dev, vnormal, edge_pair_diff)],
                         axis=1)
    return pos_dev, vnormal, edge_pair_diff, slot_sums


def oracle_geometric_terms(adj, geo: GeometryCache) -> np.ndarray:
    """(F, 4, 3): centroid, normal, and the neighbor sums (``sum(axis=1)``)
    of |centroid difference| and |normal cross product|, zero across a
    border."""
    nb = adj.neighbors
    safe_nb = np.where(nb == NONE, 0, nb)
    missing = (nb == NONE)[:, :, None]
    c, n = geo.face_centroids, geo.face_normals
    cdiff = np.where(missing, 0.0, np.abs(c[:, None, :] - c[safe_nb]))
    ncross = np.cross(np.broadcast_to(n[:, None, :], safe_nb.shape + (3,)), n[safe_nb])
    ncross = np.where(missing, 0.0, np.abs(ncross))
    return np.stack([c, n, cdiff.sum(axis=1), ncross.sum(axis=1)], axis=1)


def oracle_kernel_forward(w: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """(F, 3*J) features of J kernels over (F, T, 3) terms, by ``einsum``."""
    return np.einsum("jt,ftc->fjc", w, terms).reshape(len(terms), -1)
