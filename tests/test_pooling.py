"""Face-collapse pooling: weights, planning, application, backward."""

import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshlearn import pooling
from meshlearn.core import (NONE, Mesh, NumericalError, build_adjacency,
                            compute_geometry, euler_characteristic,
                            normalize_mesh, validate_mesh)
from meshlearn.data import box, icosahedron, icosphere, octahedron, torus
from meshlearn.descriptors import (compute_geodesic_terms, compute_geometric_terms,
                                   descriptor_forward, init_descriptor_params)
from meshlearn.network import _replay_pool
from meshlearn.pooling import (PooledMesh, PoolPlan, Provenance,
                               apply_pass, compute_face_weights, plan_pass,
                               pool_to_target, pooling_backward,
                               _face_components, _finalize_plan)

from conftest import (assert_plan_matches_oracle, closed_corpus, disjoint_union,
                      flip_edges, jitter_mesh, rigid_transform, tetrahedron)
from oracles import (_components, _face_neighbors_from_list, oracle_adjacency,
                     oracle_plan_pass, oracle_provenance, oracle_weights)


def _desc_features(mesh, seed=0, k=3):
    adj = build_adjacency(mesh)
    geo = compute_geometry(mesh)
    params = init_descriptor_params(k, k, np.random.default_rng(seed))
    return adj, descriptor_forward(compute_geodesic_terms(mesh, adj, geo),
                                   compute_geometric_terms(mesh, adj, geo), params)


def _count_tries(monkeypatch) -> Counter:
    """Count ``try_candidate`` calls per face; a face tried twice was
    requeued by a watch list."""
    tries = Counter()
    try_candidate = pooling._PassState.try_candidate

    def counting(self, f):
        tries[f] += 1
        return try_candidate(self, f)

    monkeypatch.setattr(pooling._PassState, "try_candidate", counting)
    return tries


# ---------------------------------------------------------------------------
# weights


def test_weights_constant_field_zero(rng):
    mesh = jitter_mesh(torus(6, 4), rng)
    adj = build_adjacency(mesh)
    feats = np.full((mesh.num_faces, 4), 2.5)
    assert np.abs(compute_face_weights(feats, adj)).max() == 0.0


def test_weights_one_hot_scalar():
    adj = build_adjacency(tetrahedron())
    feats = np.zeros((4, 1))
    feats[0] = 1.0
    w = compute_face_weights(feats, adj)
    assert w[0] == 3.0          # three neighbors at squared distance 1
    assert w[1:].tolist() == [1.0, 1.0, 1.0]


def test_weights_match_oracle(rng):
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    feats = rng.normal(size=(20, 5))
    assert np.array_equal(compute_face_weights(feats, adj),
                          oracle_weights(feats, adj.neighbors))


@pytest.mark.parametrize("channels", [8, 32, 128])
def test_weights_match_oracle_wide(rng, channels):
    """At and above NumPy's pairwise-sum width of 8: summing the last axis
    of an (F, 3, C) difference would round differently from the oracle."""
    for mesh in (torus(15, 10), _bordered(icosphere(2), 3, 0)):
        adj = build_adjacency(mesh)
        feats = rng.normal(size=(mesh.num_faces, channels))
        assert np.array_equal(compute_face_weights(feats, adj),
                              oracle_weights(feats, adj.neighbors))


def test_weights_match_oracle_across_blocks(rng):
    mesh = icosphere(4)
    assert mesh.num_faces * 24 > 1.5 * pooling._WEIGHT_BLOCK
    adj = build_adjacency(mesh)
    feats = rng.normal(size=(mesh.num_faces, 24))
    assert np.array_equal(compute_face_weights(feats, adj),
                          oracle_weights(feats, adj.neighbors))


@pytest.mark.parametrize("faces_per_block", [2, 4, 6])
def test_weights_small_blocks_match_oracle(monkeypatch, rng, faces_per_block):
    """Small blocks over an odd face count: no block may hold a single
    face, whose 64 channels NumPy would sum pairwise."""
    monkeypatch.setattr(pooling, "_WEIGHT_BLOCK", 64 * faces_per_block)
    mesh = _bordered(icosphere(2), 1, 0)
    adj = build_adjacency(mesh)
    assert mesh.num_faces % 2 == 1
    for _ in range(6):
        feats = rng.normal(size=(mesh.num_faces, 64))
        assert np.array_equal(compute_face_weights(feats, adj),
                              oracle_weights(feats, adj.neighbors))


def test_weights_shape_mismatch(rng):
    adj = build_adjacency(tetrahedron())
    with pytest.raises(ValueError, match="row count"):
        compute_face_weights(rng.normal(size=(5, 2)), adj)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [1e200, np.inf, np.nan])
def test_weights_not_finite_raise_numerical_error(rng, value):
    """Finite features whose squared distances overflow, and non-finite
    features, raise the typed error, not a ValueError, with no warning."""
    adj = build_adjacency(tetrahedron())
    feats = rng.normal(size=(4, 2))
    feats[1, 0] *= value
    assert not issubclass(NumericalError, ValueError)
    with pytest.raises(NumericalError, match="not finite"):
        compute_face_weights(feats, adj)


# ---------------------------------------------------------------------------
# plan_pass


def test_plan_target_too_small():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    with pytest.raises(ValueError, match=">= 4"):
        plan_pass(mesh, adj, np.zeros(20), 3)


def test_plan_already_at_target():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    plan = plan_pass(mesh, adj, np.zeros(20), 20)
    assert plan.regions == []
    assert len(plan.provenance) == 20
    assert np.array_equal(plan.face_remap, np.arange(20))


def test_icosahedron_t16_single_region():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    plan = plan_pass(mesh, adj, np.zeros(20), 16)
    assert plan.regions == [0]              # ties broken by lowest face id
    assert np.flatnonzero(plan.face_remap < 0).tolist() \
        == sorted([0, *adj.neighbors[0].tolist()])
    assert len(plan.provenance) == 16


def test_icosahedron_t12_two_regions():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    plan = plan_pass(mesh, adj, np.zeros(20), 12)
    assert plan.regions == [0, 8]
    assert np.count_nonzero(plan.face_remap < 0) == 8
    assert len(plan.provenance) == 12
    # centers are the lowest-id compatible faces under the greedy rule
    oracle = oracle_plan_pass(mesh, np.zeros(20), 12)
    assert [c for c, _, _ in oracle] == [0, 8]


def test_plan_matches_oracle_small_corpus():
    for i, mesh in enumerate(closed_corpus(seeds=range(10))):
        adj, feats = _desc_features(mesh, seed=i)
        weights = compute_face_weights(feats, adj)
        target = max(4, mesh.num_faces // 2)
        plan = plan_pass(mesh, adj, weights, target)
        assert_plan_matches_oracle(plan, oracle_plan_pass(mesh, weights, target))


PROPERTY_MESHES = [box(1), box(2), icosahedron(), icosphere(1), torus(5, 3),
                   torus(6, 4),
                   # closed but irregular: edge-flipped, and two components
                   flip_edges(icosphere(1), np.random.default_rng(1), 30),
                   flip_edges(box(2), np.random.default_rng(2), 20),
                   flip_edges(torus(6, 4), np.random.default_rng(3), 15),
                   disjoint_union(icosahedron(), box(1)),
                   disjoint_union(torus(5, 3), flip_edges(box(2),
                                                          np.random.default_rng(4), 20))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plan_matches_oracle_tied_weights_property(data):
    mesh = data.draw(st.sampled_from(PROPERTY_MESHES))
    F = mesh.num_faces
    weights = np.array(data.draw(st.lists(st.integers(0, 2), min_size=F,
                                          max_size=F)), dtype=float)
    target = data.draw(st.integers(4, F))
    plan = plan_pass(mesh, build_adjacency(mesh), weights, target)
    assert_plan_matches_oracle(plan, oracle_plan_pass(mesh, weights, target))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plan_matches_oracle_tied_weights_later_passes_property(data):
    # passes 2 and 3 run on pooled meshes, where earlier merges have moved
    # the ends of the ring faces' half-edges to merge points
    mesh = data.draw(st.sampled_from(PROPERTY_MESHES))
    target = data.draw(st.integers(4, mesh.num_faces // 3))
    for _ in range(3):
        F = mesh.num_faces
        if F <= target:
            break
        weights = np.array(data.draw(st.lists(st.integers(0, 2), min_size=F,
                                              max_size=F)), dtype=float)
        plan = plan_pass(mesh, build_adjacency(mesh), weights, target)
        assert_plan_matches_oracle(plan, oracle_plan_pass(mesh, weights, target))
        if not plan.regions:
            break
        mesh = apply_pass(mesh, np.zeros((F, 1)), plan).mesh


@pytest.mark.parametrize("mesh", PROPERTY_MESHES + [icosphere(2)])
def test_vertex_counts_match_recount_after_every_commit(monkeypatch, mesh):
    # after each commit, the face count of every current vertex equals a
    # recount of the alive faces read through rep
    checked = []
    commit = pooling._PassState.commit

    def checking(self, f, candidate):
        woken = commit(self, f, candidate)
        count = Counter(self.rep[v] for h, face in enumerate(self.faces)
                        if self.alive[h] for v in face)
        assert all(self.vcount[v] == count[v] for v in set(self.rep))
        checked.append(f)
        return woken

    monkeypatch.setattr(pooling._PassState, "commit", checking)
    adj, feats = _desc_features(mesh)
    out = pool_to_target(mesh, adj, feats, max(4, mesh.num_faces // 4))
    assert len(checked) == sum(rec.old_num_faces - len(rec.provenance)
                               for rec in out.passes) // 4


def test_plan_retry_heap_accepts_out_of_order(monkeypatch):
    # box(1) after a few edge flips: the low-valence vertices make face 2
    # fail at first and pass once the collapse around face 6 has been
    # committed, so the accepted centers are out of weight order
    faces = [[1, 5, 3], [3, 6, 2], [4, 5, 6], [4, 6, 3], [5, 0, 3], [5, 4, 7],
             [3, 2, 1], [3, 7, 4], [7, 3, 0], [7, 0, 5], [2, 6, 5], [5, 1, 2]]
    mesh = Mesh(box(1).vertices, np.array(faces))
    assert validate_mesh(mesh).ok
    weights = np.array([2, 2, 0, 0, 1, 2, 0, 1, 1, 2, 2, 2], dtype=float)
    tries = _count_tries(monkeypatch)
    plan = plan_pass(mesh, build_adjacency(mesh), weights, 4)
    order = np.lexsort((np.arange(12), weights)).tolist()
    assert [order.index(c) for c in plan.regions] == [2, 0]
    # face 2 was deferred, woken by the commit and accepted on its retry
    assert plan.regions[1] == 2 and tries[2] == 2
    assert_plan_matches_oracle(plan, oracle_plan_pass(mesh, weights, 4))


def test_plan_matches_oracle_icosphere3_descriptor_weights(monkeypatch):
    # two passes to F/4: the first defers no face; the second, on the
    # pooled mesh's irregular valences, defers faces and retries some of
    # them after a commit wakes them
    mesh = icosphere(3)
    adj, feats = _desc_features(mesh)
    target = mesh.num_faces // 4
    current = PooledMesh(mesh=mesh, features=feats, _adjacency=adj)
    tries = _count_tries(monkeypatch)
    for _ in range(2):
        tries.clear()
        weights = compute_face_weights(current.features, current.adjacency)
        plan = plan_pass(current.mesh, current.adjacency, weights, target)
        assert_plan_matches_oracle(plan, oracle_plan_pass(current.mesh, weights, target))
        current = apply_pass(current.mesh, current.features, plan)
    assert max(tries.values()) > 1


def test_first_pass_on_icosphere4_defers_no_face(monkeypatch):
    # every try of a regular mesh's first pass is accepted or skipped, so
    # each commit finds the watch lists empty
    deferred = []
    monkeypatch.setattr(pooling._PassState, "defer", lambda self, f: deferred.append(f))
    mesh = icosphere(4)
    adj, feats = _desc_features(mesh)
    plan = plan_pass(mesh, adj, compute_face_weights(feats, adj), mesh.num_faces // 4)
    assert deferred == [] and len(plan.regions) == 730


def test_commit_wakes_nothing_while_no_face_is_deferred():
    mesh = icosahedron()
    state = pooling._PassState(mesh, build_adjacency(mesh))
    assert state.watch == {} and state.commit(0, state.try_candidate(0)) == []
    state = pooling._PassState(mesh, build_adjacency(mesh))
    state.defer(19)
    assert set(state.commit(0, state.try_candidate(0))) == {19}


# sha256 of repr(per-pass plan.regions) of pool_to_target to F/4 with
# _desc_features, as the planner gave before commit skipped its wake set
# the torus is a pool-large input: its second pass defers faces and
# retries 129 of them
POOL_REGIONS_SHA256 = {
    "icosphere4": "52723d382f3360705cb0c17855e9fe2026e8704c47b840cec23cdf49b847a1f5",
    "box12": "113c42031d22e8c2bbfebd0de06124eb0fbc691cf7dcbb8d59ea910a42bb3276",
    "torus92x55": "2e3ae13edafb11b435267fec2298f8401e73eb38fb2b324919ca7125d92ae349",
}


@pytest.mark.parametrize("name,mesh", [("icosphere4", icosphere(4)), ("box12", box(12)),
                                       ("torus92x55", torus(92, 55))])
def test_pool_to_target_regions_pinned(monkeypatch, name, mesh):
    regions = []
    plan = pooling.plan_pass

    def recording(*args):
        out = plan(*args)
        regions.append(out.regions)
        return out

    monkeypatch.setattr(pooling, "plan_pass", recording)
    adj, feats = _desc_features(mesh)
    target = mesh.num_faces // 4
    out = pool_to_target(mesh, adj, feats, target)
    assert target - 3 <= out.mesh.num_faces <= target and len(regions) == 2
    assert hashlib.sha256(repr(regions).encode()).hexdigest() == POOL_REGIONS_SHA256[name]


def test_plan_pass_peak_memory_per_face():
    # the pass tables point into one shared int per id and are freed
    # before the remaps are built: about 330 B/face, where fresh ints for
    # every table entry, kept through the remaps, took 848
    mesh = icosphere(4)
    adj, feats = _desc_features(mesh)
    weights = compute_face_weights(feats, adj)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        plan = plan_pass(mesh, adj, weights, mesh.num_faces // 4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(plan.regions) == 730
    assert peak / mesh.num_faces < 450


@pytest.mark.parametrize("mesh", [flip_edges(icosphere(1), np.random.default_rng(1), 30),
                                  disjoint_union(torus(5, 3), box(1))])
def test_watch_lists_wake_exactly_the_two_hop_faces(mesh):
    # a commit wakes the deferred faces that share a vertex with a face
    # sharing a vertex with a touched face
    state = pooling._PassState(mesh, build_adjacency(mesh))
    for f in range(mesh.num_faces):
        state.defer(f)
    incidence = np.zeros((mesh.num_faces, mesh.num_vertices), dtype=int)
    np.put_along_axis(incidence, mesh.faces, 1, axis=1)
    share = incidence @ incidence.T > 0
    two_hop = (share.astype(int) @ share.astype(int)) > 0
    for y in range(mesh.num_faces):
        woken = {w for v in mesh.faces[y].tolist() for w in state.watch[v]}
        assert woken == set(np.flatnonzero(two_hop[:, y]).tolist())


def test_try_candidate_rejects_repeated_vertex_ring_face():
    # a face (a, x, x) at a center vertex a gives o == q; build_adjacency
    # accepts it, with a border in every slot, and validate_mesh does not
    ico = icosphere(2)
    x = ico.num_vertices
    mesh = Mesh(np.vstack([ico.vertices, [[2.0, 2, 2]]]),
                np.vstack([ico.faces, [[ico.faces[0, 0], x, x]]]))
    adj = build_adjacency(mesh)
    assert (adj.neighbors[-1] == NONE).all() and not validate_mesh(mesh).ok
    state = pooling._PassState(mesh, adj)
    # vertex a ends a border slot of (a, x, x), so face 0, which holds
    # it, is settled; the walk skips it, but try_candidate does not read
    # settled
    assert state.settled[0]
    assert state.try_candidate(0) is None
    # the self-loop x -> x also reads as a duplicate face, so the result
    # changes only when both tests are dropped
    assert pooling._PassState(ico, build_adjacency(ico)).try_candidate(0) is not None


def _bipyramid() -> Mesh:
    """Triangular bipyramid. Collapsing face 0 = (0, 1, 2) turns its two
    ring faces (0, 3, 4) and (1, 4, 3), across edge 3-4, into one triangle
    in both orientations."""
    s = np.sqrt(3) / 2
    return Mesh(np.array([[1.0, 0, 0], [-0.5, s, 0], [0, 0, 1], [-0.5, -s, 0], [0, 0, -1]]),
                np.array([[0, 1, 2], [1, 0, 4], [2, 1, 3], [0, 2, 3], [0, 3, 4], [1, 4, 3]]))


def test_try_candidate_rejects_duplicate_face_after_merge():
    mesh = _bipyramid()
    assert validate_mesh(mesh).ok
    state = pooling._PassState(mesh, build_adjacency(mesh))
    assert not any(state.settled)
    assert state.try_candidate(0) is None


def test_plan_rejects_duplicate_face_at_pinched_vertex(monkeypatch):
    # a pillow of two faces (0, a, b), (0, b, a) pinched onto vertex 0 of
    # a valid mesh: the first face tried holds vertex 0 and is rejected
    ico = icosphere(1)
    V = ico.num_vertices
    p = ico.vertices[0]
    mesh = Mesh(np.vstack([ico.vertices, p + [0.3, 0.1, 0.0], p + [0.1, 0.3, 0.05]]),
                np.vstack([ico.faces, [[0, V, V + 1], [0, V + 1, V]]]))
    assert validate_mesh(mesh).ok
    first = int(np.flatnonzero((ico.faces == 0).any(axis=1))[0])
    weights = np.ones(mesh.num_faces)
    weights[first] = 0.0
    tries = _count_tries(monkeypatch)
    plan = plan_pass(mesh, build_adjacency(mesh), weights, mesh.num_faces // 2)
    assert tries[first] >= 1
    assert first not in plan.regions
    assert plan.regions


def _interleaved_components() -> Mesh:
    """Three components with their faces shuffled together, so that the
    hooks cross between id ranges."""
    mesh = disjoint_union(disjoint_union(icosphere(1), torus(6, 4)), box(2))
    order = np.random.default_rng(5).permutation(mesh.num_faces)
    return Mesh(mesh.vertices, mesh.faces[order])


@pytest.mark.parametrize("mesh", PROPERTY_MESHES + [_interleaved_components()])
def test_face_components_match_oracle(mesh):
    comp, sizes = _face_components(build_adjacency(mesh))
    want, want_sizes = _components([tuple(f) for f in mesh.faces.tolist()])
    assert comp.tolist() == want
    assert sizes.tolist() == [want_sizes[c] for c in range(len(want_sizes))]


def test_plan_invariants(rng):
    mesh = jitter_mesh(icosphere(2), rng)   # 320 faces
    adj, feats = _desc_features(mesh)
    weights = compute_face_weights(feats, adj)
    target = 160
    plan = plan_pass(mesh, adj, weights, target)
    # each center and its three neighbors go, removed sets disjoint
    gone = np.flatnonzero(plan.face_remap < 0)
    assert len(gone) == 4 * len(plan.regions)
    assert set(gone.tolist()) == {h for c in plan.regions
                                  for h in [c, *adj.neighbors[c].tolist()]}
    # region r's center vertices merge into new vertex V' - R + r
    R, top = len(plan.regions), plan.vertex_remap.max() + 1
    for r, c in enumerate(plan.regions):
        assert (plan.vertex_remap[mesh.faces[c]] == top - R + r).all()
    assert len(plan.provenance) == mesh.num_faces - len(gone) >= target - 3


def _bordered(mesh: Mesh, drop: int, seed: int) -> Mesh:
    gone = np.random.default_rng(seed).choice(mesh.num_faces, drop, replace=False)
    return Mesh(mesh.vertices, np.delete(mesh.faces, gone, axis=0))


@pytest.mark.parametrize("mesh", PROPERTY_MESHES
                         + [_bordered(icosphere(2), n, n) for n in (1, 2, 3)]
                         + [jitter_mesh(icosphere(3), np.random.default_rng(7))])
def test_provenance_matches_oracle(mesh):
    adj, feats = _desc_features(mesh)
    F, faces = mesh.num_faces, mesh.faces.tolist()
    nbs = _face_neighbors_from_list(faces)
    for weights in (compute_face_weights(feats, adj), np.zeros(F)):
        for target in (max(4, F // 2), max(4, F // 4)):
            plan = plan_pass(mesh, adj, weights, target)
            triples = [(c, [c, *nbs[c]], faces[c]) for c in plan.regions]
            assert [row.tolist() for row in plan.provenance] \
                == oracle_provenance(mesh, triples)


def test_manifold_guard_posthoc_scan(rng):
    # no surviving face may contain two vertices of any merged center face
    mesh = jitter_mesh(icosphere(2), rng)
    adj, feats = _desc_features(mesh, seed=5)
    plan = plan_pass(mesh, adj, compute_face_weights(feats, adj), 160)
    survivors = np.nonzero(plan.face_remap >= 0)[0]
    for c in plan.regions:
        cvs = set(mesh.faces[c].tolist())
        for g in survivors:
            assert len(set(int(v) for v in mesh.faces[g]) & cvs) < 2


# ---------------------------------------------------------------------------
# apply_pass


def test_apply_empty_plan_identity(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    adj = build_adjacency(mesh)
    feats = rng.normal(size=(20, 3))
    plan = plan_pass(mesh, adj, np.zeros(20), 20)
    out = apply_pass(mesh, feats, plan)
    assert np.array_equal(out.mesh.vertices, mesh.vertices)
    assert np.array_equal(out.mesh.faces, mesh.faces)
    assert np.array_equal(out.features, feats)
    assert np.array_equal(out.adjacency.neighbors, adj.neighbors)


def test_icosahedron_single_region_counts():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    plan = plan_pass(mesh, adj, np.zeros(20), 16)
    out = apply_pass(mesh, np.zeros((20, 2)), plan)
    assert (mesh.num_vertices, mesh.num_faces) == (12, 20)
    assert (out.mesh.num_vertices, out.mesh.num_faces) == (10, 16)
    assert euler_characteristic(mesh) == euler_characteristic(out.mesh) == 2
    assert validate_mesh(out.mesh).ok


def test_constant_features_stay_constant(rng):
    mesh = jitter_mesh(icosphere(1), rng)
    adj = build_adjacency(mesh)
    feats = np.full((mesh.num_faces, 3), 0.5)
    plan = plan_pass(mesh, adj, np.zeros(mesh.num_faces), 40)
    out = apply_pass(mesh, feats, plan)
    assert np.allclose(out.features, 0.5, atol=1e-15)


def test_incremental_adjacency_equals_rebuild(rng):
    for i, mesh in enumerate([jitter_mesh(icosphere(1), rng),
                              jitter_mesh(box(3), rng),
                              jitter_mesh(torus(10, 6), rng)]):
        adj, feats = _desc_features(mesh, seed=i)
        plan = plan_pass(mesh, adj, compute_face_weights(feats, adj),
                         mesh.num_faces // 2)
        out = apply_pass(mesh, feats, plan)
        full = build_adjacency(out.mesh)
        assert np.array_equal(out.adjacency.neighbors, full.neighbors)
        assert np.array_equal(out.adjacency.shared_edges, full.shared_edges)
        nb, se = oracle_adjacency(out.mesh)
        assert np.array_equal(out.adjacency.neighbors, nb)
        assert np.array_equal(out.adjacency.shared_edges, se)


def test_region_order_reversal(rng):
    """Applying the same region set listed in reverse order yields the
    same mesh (up to the merged-vertex numbering), identical surviving
    face order, identical neighbor table and identical features."""
    mesh = jitter_mesh(icosphere(1), rng)
    adj, feats = _desc_features(mesh)
    plan = plan_pass(mesh, adj, compute_face_weights(feats, adj), 40)
    assert len(plan.regions) >= 2
    rev = _finalize_plan(mesh, adj, plan.regions[::-1])
    a = apply_pass(mesh, feats, plan)
    b = apply_pass(mesh, feats, rev)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.adjacency.neighbors, b.adjacency.neighbors)
    assert np.array_equal(plan.face_remap, rev.face_remap)
    # merged ids are assigned in region-list order: translate and compare
    trans = {int(plan.vertex_remap[v]): int(rev.vertex_remap[v])
             for v in mesh.faces[plan.regions, 0]}
    amap = np.arange(a.mesh.num_vertices)
    for src, dst in trans.items():
        amap[src] = dst
    assert np.array_equal(amap[a.mesh.faces], b.mesh.faces)
    assert np.allclose(a.mesh.vertices[list(trans)],
                       b.mesh.vertices[[trans[k] for k in trans]], atol=0)


def test_provenance_covers_every_old_face(rng):
    mesh = jitter_mesh(icosphere(1), rng)
    adj, feats = _desc_features(mesh)
    plan = plan_pass(mesh, adj, compute_face_weights(feats, adj), 40)
    contributors = set()
    for lst in plan.provenance:
        contributors.update(lst)
    removed = set(np.flatnonzero(plan.face_remap < 0).tolist())
    # removed faces at the merge points are averaged somewhere
    assert plan.regions and removed & contributors
    survivors = set(np.nonzero(plan.face_remap >= 0)[0].tolist())
    assert survivors <= contributors


# ---------------------------------------------------------------------------
# pool_to_target


def test_pool_to_target_icosahedron():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    out = pool_to_target(mesh, adj, np.zeros((20, 2)), 12)
    assert out.mesh.num_faces == 12
    assert out.pass_count == 1
    assert euler_characteristic(out.mesh) == 2
    assert not out.stalled


def test_pool_to_target_noop():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    out = pool_to_target(mesh, adj, np.zeros((20, 2)), 20)
    assert out.pass_count == 0
    assert np.array_equal(out.mesh.faces, mesh.faces)
    assert out.adjacency is adj


def test_pool_to_target_builds_adjacency_on_first_read(monkeypatch):
    # the second pass reads the first one's output; nothing reads the
    # last one's until the caller does, and then it is built once
    built = []
    monkeypatch.setattr(pooling, "build_adjacency",
                        lambda mesh: built.append(mesh) or build_adjacency(mesh))
    mesh = icosphere(3)
    adj, feats = _desc_features(mesh)
    out = pool_to_target(mesh, adj, feats, mesh.num_faces // 4)
    assert out.pass_count >= 2 and len(built) == out.pass_count - 1
    assert all(m is not out.mesh for m in built)
    assert out.adjacency is out.adjacency and built[-1] is out.mesh
    assert len(built) == out.pass_count
    full = build_adjacency(out.mesh)
    assert np.array_equal(out.adjacency.neighbors, full.neighbors)
    assert np.array_equal(out.adjacency.shared_edges, full.shared_edges)


def test_icosphere_320_halving(rng):
    mesh = jitter_mesh(icosphere(2), rng)
    adj, feats = _desc_features(mesh)
    out = pool_to_target(mesh, adj, feats, 160)
    assert 157 <= out.mesh.num_faces <= 160
    first = out.passes[0]
    frac = (first.old_num_faces - len(first.provenance)) / first.old_num_faces
    assert frac >= 0.40         # "about a half" qualitative cross-check
    assert euler_characteristic(out.mesh) == 2
    assert validate_mesh(out.mesh).ok


def test_pass_record_is_the_plan(rng):
    """A pooled mesh records each pass by its plan, and the plans chain:
    each pass starts from the faces the one before it left."""
    mesh = jitter_mesh(icosphere(3), rng)
    adj, feats = _desc_features(mesh)
    plan = plan_pass(mesh, adj, compute_face_weights(feats, adj), mesh.num_faces // 2)
    assert plan.old_num_faces == mesh.num_faces
    assert apply_pass(mesh, feats, plan).passes[0] is plan
    out = pool_to_target(mesh, adj, feats, mesh.num_faces // 8)
    assert len(out.passes) >= 3
    sizes = [len(p.provenance) for p in out.passes]
    assert [p.old_num_faces for p in out.passes] == [mesh.num_faces, *sizes[:-1]]
    assert sizes[-1] == out.mesh.num_faces


def test_stall_two_tetrahedra():
    t1, t2 = tetrahedron(), tetrahedron()
    mesh = Mesh(np.vstack([t1.vertices, t2.vertices + 10.0]),
                np.vstack([t1.faces, t2.faces + 4]))
    adj = build_adjacency(mesh)
    out = pool_to_target(mesh, adj, np.zeros((8, 1)), 7)
    assert out.stalled
    assert out.mesh.num_faces == 8


def test_pool_to_target_out_of_passes_is_stall(monkeypatch):
    monkeypatch.setattr(pooling, "MAX_PASSES", 1)
    mesh = icosphere(3)
    adj = build_adjacency(mesh)
    out = pool_to_target(mesh, adj, np.zeros((mesh.num_faces, 1)), 40)
    assert out.pass_count == 1
    assert out.mesh.num_faces == 572
    assert out.stalled


BORDER_BASES = [icosahedron(), icosphere(1), box(2), torus(6, 4), torus(8, 4)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pool_bordered_keeps_topology_property(data):
    """Pooling a mesh with holes keeps its Euler characteristic and border,
    and stays manifold, oriented and free of degenerate faces."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mesh = jitter_mesh(data.draw(st.sampled_from(BORDER_BASES)), rng)
    if data.draw(st.booleans()):
        mesh = flip_edges(mesh, rng, mesh.num_faces // 4)
    drop = data.draw(st.lists(st.integers(0, mesh.num_faces - 1),
                              min_size=1, max_size=3, unique=True))
    mesh = Mesh(mesh.vertices, np.delete(mesh.faces, drop, axis=0))
    _assert_pool_keeps_border(mesh, rng.integers(0, 3, size=(mesh.num_faces, 2)).astype(float))


def test_pool_bordered_keeps_topology_seed581():
    # a quad hole 0-1-5-3 whose opposite corners 1 and 3 are vertices of
    # one face: collapsing it merged them, which pinched the hole into two
    # loops that closed up, leaving no border and chi 1
    rng = np.random.default_rng(581)
    mesh = jitter_mesh(torus(6, 4), rng)
    mesh = flip_edges(mesh, rng, mesh.num_faces // 4)
    mesh = Mesh(mesh.vertices, np.delete(mesh.faces, [0, 1], axis=0))
    assert mesh.num_faces == 46 and validate_mesh(mesh).border_edges == 4
    assert euler_characteristic(mesh) == -1
    _assert_pool_keeps_border(mesh, rng.integers(0, 3, size=(46, 2)).astype(float))


def _assert_pool_keeps_border(mesh, feats):
    """Pooling to F/2 and F/4 gives a valid mesh with the input's border
    edge count and Euler characteristic; a stall is allowed."""
    before = validate_mesh(mesh)
    chi = euler_characteristic(mesh)
    adj = build_adjacency(mesh)
    for target in (mesh.num_faces // 2, mesh.num_faces // 4):
        out = pool_to_target(mesh, adj, feats, max(4, target))
        report = validate_mesh(out.mesh)
        assert report.ok
        assert report.border_edges == before.border_edges
        assert euler_characteristic(out.mesh) == chi


def test_torus_topology_preserved(rng):
    mesh = jitter_mesh(torus(16, 8), rng)   # 256 faces, chi = 0
    adj, feats = _desc_features(mesh)
    out = pool_to_target(mesh, adj, feats, 128)
    assert euler_characteristic(out.mesh) == 0
    assert validate_mesh(out.mesh).ok
    assert 125 <= out.mesh.num_faces <= 128 or out.stalled


# ---------------------------------------------------------------------------
# selection invariance


def _selection(mesh, seed=0):
    adj, feats = _desc_features(mesh, seed=seed)
    weights = compute_face_weights(feats, adj)
    plan = plan_pass(mesh, adj, weights, mesh.num_faces // 2)
    return weights, plan.regions


def test_selection_invariant_axis_permutation_translation(rng):
    base = jitter_mesh(icosphere(1), rng)
    w0, sel0 = _selection(base)
    P = np.eye(3)[[2, 0, 1]]    # cyclic axis permutation (a rotation)
    permuted = base.with_geometry(base.vertices @ P.T)
    _, sel1 = _selection(permuted)
    assert sel1 == sel0
    translated = base.with_geometry(base.vertices + np.array([3.0, -2.0, 5.0]))
    w2, sel2 = _selection(translated)
    gaps = np.diff(np.sort(w0))
    if gaps[gaps > 0].min() > 1e-9:
        assert sel2 == sel0


def _rotation_safe_selection(mesh):
    """Selection from abs-free descriptor channels: every 3-vector block
    rotates with the mesh, so the squared-distance weights are rotation
    invariant up to roundoff."""
    adj = build_adjacency(mesh)
    geo = compute_geometry(mesh)
    rng = np.random.default_rng(9)
    params = init_descriptor_params(2, 2, rng)
    params.geo[:, 2] = 0.0          # zero the componentwise-abs terms
    params.geom[:, 2:] = 0.0
    feats = descriptor_forward(compute_geodesic_terms(mesh, adj, geo),
                               compute_geometric_terms(mesh, adj, geo), params)
    weights = compute_face_weights(feats, adj)
    plan = plan_pass(mesh, adj, weights, mesh.num_faces // 2)
    return weights, plan.regions


def test_selection_invariant_rotation_with_weight_gap(rng):
    from meshlearn.data import random_rotation
    base = jitter_mesh(icosphere(1), rng)
    w0, sel0 = _rotation_safe_selection(base)
    gaps = np.diff(np.sort(w0))
    assert gaps[gaps > 0].min() > 1e-6    # healthy gap on jittered geometry
    for k in range(5):
        R = random_rotation(np.random.default_rng(50 + k))
        _, sel = _rotation_safe_selection(base.with_geometry(base.vertices @ R.T))
        assert sel == sel0


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_grad(rng):
    mesh = jitter_mesh(icosphere(1), rng)
    adj, feats = _desc_features(mesh)
    out = pool_to_target(mesh, adj, feats, 40)
    g = pooling_backward(out.passes, np.zeros_like(out.features))
    assert g.shape == feats.shape and np.abs(g).max() == 0.0


def test_backward_mean_adjoint_unit_share():
    # single region on the icosahedron: a ring face with an averaging set
    # of size m sends gradient 1/m to each contributor (mean adjoint)
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    plan = plan_pass(mesh, adj, np.zeros(20), 16)
    out = apply_pass(mesh, np.zeros((20, 1)), plan)
    sizes = [len(c) for c in plan.provenance]
    j = max(range(len(sizes)), key=lambda k: sizes[k])
    m = sizes[j]
    assert m > 1
    grad_out = np.zeros((16, 1))
    grad_out[j] = 1.0
    g = pooling_backward(out.passes, grad_out)
    for contrib in plan.provenance[j]:
        assert np.isclose(g[contrib, 0], 1.0 / m)
    assert np.isclose(g.sum(), 1.0)


def test_backward_finite_differences_frozen_plan(rng):
    mesh = jitter_mesh(icosphere(1), rng)
    adj, feats = _desc_features(mesh)
    out = pool_to_target(mesh, adj, feats, 40)
    grad_out = rng.normal(size=out.features.shape)

    def forward(f):
        cur = f
        for rec in out.passes:
            nxt = np.empty((len(rec.provenance), cur.shape[1]))
            for j, contrib in enumerate(rec.provenance):
                nxt[j] = cur[contrib].mean(axis=0)
            cur = nxt
        return float(np.sum(grad_out * cur))

    g = pooling_backward(out.passes, grad_out)
    step = 1e-5
    flat = feats.reshape(-1)
    gflat = g.reshape(-1)
    for c in rng.choice(flat.size, size=40, replace=False):
        old = flat[c]
        flat[c] = old + step
        lp = forward(feats)
        flat[c] = old - step
        lm = forward(feats)
        flat[c] = old
        fd = (lp - lm) / (2 * step)
        denom = max(abs(fd), abs(gflat[c]), 1e-8)
        assert abs(fd - gflat[c]) / denom <= 1e-4


def _mean_reference(x, provenance):
    return np.stack([x[c].sum(axis=0) / len(c) for c in provenance])


def _adjoint_reference(g, provenance, num_old):
    out = np.zeros((num_old, g.shape[1]))
    for j, c in enumerate(provenance):
        out[c] += g[j] / len(c)
    return out


@pytest.mark.parametrize("builder, target", [(lambda: box(4), 48),
                                             (lambda: icosphere(2), 60),
                                             (lambda: torus(12, 8), 48)],
                         ids=["box", "icosphere", "torus"])
def test_averaging_bit_equals_per_row_reference(builder, target):
    """Forward (apply_pass), replay and backward of multi-pass pooling are
    byte-identical to per-row loops, -0.0 entries included. The features
    have many channels, where ``sum(axis=0)`` adds rows left to right."""
    rng = np.random.default_rng(5)
    mesh = jitter_mesh(builder(), rng)
    adj, feats = _desc_features(mesh)
    feats[::3, ::2] = -0.0
    pooled = pool_to_target(mesh, adj, feats, target)
    assert pooled.pass_count >= 2
    x = feats
    for rec in pooled.passes:
        x = _mean_reference(x, rec.provenance)
    assert pooled.features.tobytes() == x.tobytes()
    assert _replay_pool(feats, pooled).features.tobytes() == x.tobytes()
    grad = rng.normal(size=x.shape)
    grad[::2, 1::2] = -0.0
    g = grad
    for rec in reversed(pooled.passes):
        g = _adjoint_reference(g, rec.provenance, rec.old_num_faces)
    assert pooling_backward(pooled.passes, grad).tobytes() == g.tobytes()


def test_backward_zero_for_faces_in_no_row():
    # old faces 1 and 4 feed no new face: empty rows of the transpose
    prov = Provenance(indptr=np.array([0, 2, 3]), indices=np.array([0, 2, 3]))
    assert len(prov) == 2 and [c.tolist() for c in prov] == [[0, 2], [3]]
    x = np.arange(10.0).reshape(5, 2)
    assert prov.mean(x).tobytes() == _mean_reference(x, prov).tobytes()
    grad = np.array([[1.0, -0.0], [3.0, -2.0]])
    # only the provenance and the old face count are read
    plan = PoolPlan(regions=[], face_remap=np.array([0, -1, -1, 1, -1]),
                    vertex_remap=np.zeros(0, dtype=np.int64), provenance=prov)
    g = pooling_backward([plan], grad)
    assert g.tobytes() == _adjoint_reference(grad, prov, 5).tobytes()
    assert g[[1, 4]].tobytes() == np.zeros((2, 2)).tobytes()


def test_backward_provenance_mismatch(rng):
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    out = pool_to_target(mesh, adj, np.zeros((20, 2)), 16)
    with pytest.raises(ValueError, match="provenance"):
        pooling_backward(out.passes, np.zeros((15, 2)))


def test_backward_pads_old_faces_held_by_no_row():
    """The highest old faces feed no new face, so their rows of the adjoint
    are +0.0: byte for byte the scalar adjoint, -0.0 entries included."""
    rng = np.random.default_rng(8)
    # rows of 1-5 of old faces 0-31, some shared; faces 32-39 are in none
    rows = [np.sort(rng.choice(32, size=rng.integers(1, 6), replace=False))
            for _ in range(10)]
    prov = Provenance(np.concatenate([[0], np.cumsum([len(r) for r in rows])]),
                      np.concatenate(rows))
    grad = rng.normal(size=(10, 6))
    grad[rng.random(grad.shape) < 0.3] = -0.0
    g = prov.mean_adjoint(grad, 40)
    assert g.tobytes() == _adjoint_reference(grad, prov, 40).tobytes()
    assert not g[32:].any()
