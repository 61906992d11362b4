"""Region construction and the three-term order-invariant convolution."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshlearn.conv import (ConvParams, RegionTable, build_regions,
                            conv_backward, conv_forward, init_conv_params)
from meshlearn.core import Mesh, build_adjacency
from meshlearn.data import box, icosahedron, icosphere, torus

from conftest import (closed_corpus, disjoint_union, flip_edges, jitter_mesh,
                      rigid_transform, tetrahedron)
from oracles import (_components, oracle_conv_backward, oracle_conv_forward,
                     oracle_regions)


def test_build_regions_kernel_too_small():
    adj = build_adjacency(tetrahedron())
    with pytest.raises(ValueError, match="kernel_size"):
        build_regions(adj, 2)


def test_tetrahedron_k3():
    adj = build_adjacency(tetrahedron())
    regions = build_regions(adj, 3)
    assert regions.members.shape == (4, 3) and (regions.members >= 0).all()
    for f in range(4):
        assert sorted(regions.row(f)) == sorted(set(range(4)) - {f})


def test_tetrahedron_k10_saturates():
    adj = build_adjacency(tetrahedron())
    regions = build_regions(adj, 10)
    assert (regions.members[:, :3] >= 0).all()
    assert (regions.members[:, 3:] == -1).all()


def test_icosahedron_k12_face0_structure():
    mesh = icosahedron()
    adj = build_adjacency(mesh)
    regions = build_regions(adj, 12)
    row = regions.row(0)
    assert len(row) == 12
    assert row[:3] == adj.neighbors[0].tolist()       # direct neighbors first
    direct = set(row[:3])
    second = set(row[3:])
    assert not (second & direct) and 0 not in second  # 9 distinct 2nd-ring faces
    assert row == oracle_regions(adj.neighbors, 12)[0]


def test_regions_match_oracle_corpus():
    for mesh in closed_corpus(seeds=range(10)):
        adj = build_adjacency(mesh)
        for K in (3, 6, 11):
            regions = build_regions(adj, K)
            expect = oracle_regions(adj.neighbors, K)
            for f in range(mesh.num_faces):
                assert regions.row(f) == expect[f]


def triangle_strip(n: int) -> Mesh:
    """2n faces in a row: inner faces have two edge-neighbours, so a region
    grows by one face per BFS head and needs every head up to K-1."""
    v = [[i, 0.0, 0.0] for i in range(n + 1)] + [[i + 0.5, 1.0, 0.0]
                                                for i in range(n + 1)]
    f = [t for i in range(n) for t in ((i, i + 1, n + 1 + i),
                                      (i + 1, n + 2 + i, n + 1 + i))]
    return Mesh(np.array(v), np.array(f))


REGION_BASES = [icosahedron(), icosphere(1), box(2), torus(6, 4), torus(8, 4),
                triangle_strip(12)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_regions_match_oracle_property(data):
    """Bordered, edge-flipped and two-component meshes, at K from 3 to 12
    and at one K above the smallest component's face count."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mesh = jitter_mesh(data.draw(st.sampled_from(REGION_BASES)), rng)
    kind = data.draw(st.sampled_from(["bordered", "flipped", "two_component"]))
    if kind == "bordered":
        drop = data.draw(st.lists(st.integers(0, mesh.num_faces - 1),
                                  min_size=1, max_size=3, unique=True))
        mesh = Mesh(mesh.vertices, np.delete(mesh.faces, drop, axis=0))
    elif kind == "flipped":
        mesh = flip_edges(mesh, rng, mesh.num_faces // 4)
    else:
        small = data.draw(st.sampled_from([tetrahedron(), box(1), icosahedron()]))
        mesh = disjoint_union(mesh, small)
    adj = build_adjacency(mesh)
    smallest = min(_components(mesh.faces.tolist())[1].values())
    padded_k = max(3, smallest + data.draw(st.integers(0, 3)))
    for K in (data.draw(st.integers(3, 12)), padded_k):
        regions = build_regions(adj, K)
        expect = oracle_regions(adj.neighbors, K)
        assert [regions.row(f) for f in range(mesh.num_faces)] == expect
        padded = np.full((mesh.num_faces, K), -1)
        for f, row in enumerate(expect):
            padded[f, :len(row)] = row
        assert np.array_equal(regions.members, padded)
    assert (regions.members[:, -1] == -1).any()


def test_regions_rigid_invariance(rng):
    base = jitter_mesh(icosphere(1), np.random.default_rng(4))
    ref = build_regions(build_adjacency(base), 9)
    for _ in range(20):
        moved = rigid_transform(base, rng)
        regions = build_regions(build_adjacency(moved), 9)
        assert np.array_equal(regions.members, ref.members)


# ---------------------------------------------------------------------------
# forward


def test_identity_convolution(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    regions = build_regions(build_adjacency(mesh), 3)
    feats = rng.normal(size=(20, 5))
    params = ConvParams(np.eye(5), np.zeros((5, 5)), np.zeros((5, 5)), np.zeros(5))
    out, _ = conv_forward(feats, regions, params, activation=False)
    assert np.array_equal(out, feats)


def test_constant_field_kills_abs_term(rng):
    mesh = jitter_mesh(torus(6, 4), rng)
    regions = build_regions(build_adjacency(mesh), 6)
    feats = np.full((mesh.num_faces, 3), 1.75)
    params = ConvParams(np.zeros((2, 3)), np.zeros((2, 3)),
                        rng.normal(size=(2, 3)), np.zeros(2))
    out, _ = conv_forward(feats, regions, params, activation=False)
    assert np.abs(out).max() == 0.0


def test_tetrahedron_one_hot_neighbor_sum():
    regions = build_regions(build_adjacency(tetrahedron()), 3)
    feats = np.zeros((4, 1))
    feats[0] = 1.0
    params = ConvParams(np.zeros((1, 1)), np.ones((1, 1)),
                        np.zeros((1, 1)), np.zeros(1))
    out, _ = conv_forward(feats, regions, params, activation=False)
    assert out.ravel().tolist() == [0.0, 1.0, 1.0, 1.0]


def test_order_invariance_bit_identical(rng):
    mesh = jitter_mesh(icosphere(1), rng)
    regions = build_regions(build_adjacency(mesh), 9)
    feats = rng.normal(size=(mesh.num_faces, 4))
    params = init_conv_params(4, 6, rng)
    ref, _ = conv_forward(feats, regions, params)
    for _ in range(10):
        members = regions.members.copy()
        for f in range(members.shape[0]):
            n = np.count_nonzero(members[f] >= 0)
            members[f, :n] = rng.permutation(members[f, :n])
        shuffled = RegionTable(members)
        out, _ = conv_forward(feats, shuffled, params)
        assert np.array_equal(out, ref)


def test_locality(rng):
    mesh = jitter_mesh(icosphere(1), rng)
    regions = build_regions(build_adjacency(mesh), 6)
    feats = rng.normal(size=(mesh.num_faces, 4))
    params = init_conv_params(4, 4, rng)
    f = 17
    ref = conv_forward(feats, regions, params)[0][f]
    outside = np.setdiff1d(np.arange(mesh.num_faces), [f] + regions.row(f))
    feats2 = feats.copy()
    feats2[outside] = rng.normal(size=(len(outside), 4))
    assert np.array_equal(conv_forward(feats2, regions, params)[0][f], ref)


def test_forward_shape_errors(rng):
    regions = build_regions(build_adjacency(tetrahedron()), 3)
    params = init_conv_params(4, 4, rng)
    with pytest.raises(ValueError, match="row count"):
        conv_forward(rng.normal(size=(5, 4)), regions, params)
    with pytest.raises(ValueError, match="channels"):
        conv_forward(rng.normal(size=(4, 3)), regions, params)
    with pytest.raises(ValueError, match="shape"):
        ConvParams(np.eye(3), np.eye(3), np.eye(2), np.zeros(3))


# ---------------------------------------------------------------------------
# backward


def backward(feats, regions, params, grad_out, activation=True):
    """``conv_backward`` given the cache of a fresh forward pass."""
    _, cache = conv_forward(feats, regions, params, activation=activation)
    return conv_backward(feats, regions, params, grad_out, cache, activation=activation)


def test_backward_zero_grad(rng):
    regions = build_regions(build_adjacency(tetrahedron()), 3)
    feats = rng.normal(size=(4, 3))
    params = init_conv_params(3, 2, rng)
    gf, gp = backward(feats, regions, params, np.zeros((4, 2)))
    assert np.abs(gf).max() == 0.0
    assert all(np.abs(a).max() == 0.0 for _, a in
               [("w0", gp.w0), ("w1", gp.w1), ("w2", gp.w2), ("b", gp.bias)])


def test_backward_w1_only_scatter(rng):
    regions = build_regions(build_adjacency(tetrahedron()), 3)
    feats = rng.normal(size=(4, 3))
    w1 = rng.normal(size=(2, 3))
    params = ConvParams(np.zeros((2, 3)), w1, np.zeros((2, 3)), np.zeros(2))
    grad_out = np.zeros((4, 2))
    grad_out[0] = [1.0, 0.0]
    gf, _ = backward(feats, regions, params, grad_out, activation=False)
    expect = np.zeros((4, 3))
    for g in regions.row(0):
        expect[g] = w1[0]
    assert np.allclose(gf, expect, atol=1e-15)


def _fd_check(mesh_builder, seed=7, tol=1e-4, step=1e-5):
    rng = np.random.default_rng(seed)
    mesh = jitter_mesh(mesh_builder(), rng)
    regions = build_regions(build_adjacency(mesh), 6)
    F = mesh.num_faces
    feats = rng.normal(size=(F, 3))
    params = init_conv_params(3, 2, rng)
    grad_out = rng.normal(size=(F, 2))
    _, cache = conv_forward(feats, regions, params)
    # kink check: keep away from abs/ReLU non-differentiability
    assert np.abs(cache["diff"][regions.valid.T]).min() > 1e-7
    gf, gp = conv_backward(feats, regions, params, grad_out, cache)

    def loss(fe, pa):
        return float(np.sum(grad_out * conv_forward(fe, regions, pa)[0]))

    checks = [(feats, gf), (params.w0, gp.w0), (params.w1, gp.w1),
              (params.w2, gp.w2), (params.bias, gp.bias)]
    for arr, garr in checks:
        flat, gflat = arr.reshape(-1), garr.reshape(-1)
        for c in rng.choice(flat.size, size=min(20, flat.size), replace=False):
            old = flat[c]
            flat[c] = old + step
            lp = loss(feats, params)
            flat[c] = old - step
            lm = loss(feats, params)
            flat[c] = old
            fd = (lp - lm) / (2 * step)
            denom = max(abs(fd), abs(gflat[c]), 1e-8)
            assert abs(fd - gflat[c]) / denom <= tol


def test_backward_finite_differences():
    _fd_check(lambda: torus(6, 4))


def test_backward_grad_shape_mismatch(rng):
    regions = build_regions(build_adjacency(tetrahedron()), 3)
    params = init_conv_params(3, 2, rng)
    feats = rng.normal(size=(4, 3))
    _, cache = conv_forward(feats, regions, params)
    with pytest.raises(ValueError, match="grad_out"):
        conv_backward(feats, regions, params, np.zeros((4, 3)), cache)


# ---------------------------------------------------------------------------
# differential check against the dense-gather / np.add.at oracle


def _oracle_cases():
    """Closed corpus meshes, closed meshes at K >= 8 (where NumPy sums a
    one-channel face-major row pairwise), and padded tables: components
    with fewer than K+1 faces."""
    for mesh in closed_corpus(seeds=range(6)):
        yield mesh, 6
    for mesh, K in ((icosphere(1), 8), (torus(8, 4), 9), (box(2), 12)):
        yield mesh, K
    for mesh in (tetrahedron(), icosahedron()):
        for K in (6, 9):
            yield mesh, K
    yield disjoint_union(icosphere(1), tetrahedron()), 9
    yield disjoint_union(tetrahedron(), icosahedron()), 6


def _signed_zeros(x, rng):
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.2] = -0.0
    return x


@pytest.mark.parametrize("activation", [False, True])
def test_conv_matches_oracle_bytes(activation):
    rng = np.random.default_rng(11)
    for (mesh, K), C in itertools.product(_oracle_cases(), (1, 2, 5)):
        adj = build_adjacency(mesh)
        regions = build_regions(adj, K)
        F = mesh.num_faces
        feats = _signed_zeros(rng.normal(size=(F, C)), rng)
        params = init_conv_params(C, 4, rng)
        # the second gradient is -0.0 on face 0's component, which makes
        # face 0's input gradient exactly zero: the one value whose sign
        # the oracle's +-0.0 padding terms could change
        first = set(oracle_regions(adj.neighbors, F)[0]) | {0}
        quiet = _signed_zeros(rng.normal(size=(F, 4)), rng)
        quiet[sorted(first)] = -0.0
        for grad_out in (_signed_zeros(rng.normal(size=(F, 4)), rng), quiet):
            out, cache = conv_forward(feats, regions, params, activation=activation)
            ref_out, ref_cache = oracle_conv_forward(
                feats, regions, params, activation=activation)
            # the stored arrays alone, where a "diff" lookup raises
            gf, gp = conv_backward(feats, regions, params, grad_out, dict(cache),
                                   activation=activation)
            ref_gf, ref_gp = oracle_conv_backward(
                feats, regions, params, grad_out, activation=activation)
            assert out.tobytes() == ref_out.tobytes()
            assert cache["diff"].tobytes() == ref_cache["diff"].tobytes()
            assert regions.valid.T.tobytes() == ref_cache["valid"].tobytes()
            assert np.array_equal(cache["sign"],
                                  np.sign(ref_cache["diff"]).transpose(1, 0, 2))
            assert cache["z"].tobytes() == ref_cache["z"].tobytes()
            assert gf.tobytes() == ref_gf.tobytes()
            assert grad_out is not quiet or not gf[0].any()
            for got, ref in zip((gp.w0, gp.w1, gp.w2, gp.bias), ref_gp):
                assert got.tobytes() == ref.tobytes()


def test_conv_backward_bordered_matches_oracle_bytes():
    """icosphere(2) with faces removed: faces near the border lie in fewer
    regions, so the scatter's late rounds reach only some faces. Two
    backward passes on one table reuse its rounds."""
    rng = np.random.default_rng(5)
    mesh = icosphere(2)
    mesh = Mesh(mesh.vertices, np.delete(mesh.faces, [0, 7, 40, 41, 200], axis=0))
    regions = build_regions(build_adjacency(mesh), 9)
    in_degree = np.diff(regions.scatter.indptr)
    assert in_degree.min() < in_degree.max()
    F = mesh.num_faces
    for C in (1, 5):
        feats = _signed_zeros(rng.normal(size=(F, C)), rng)
        params = init_conv_params(C, 3, rng)
        for _ in range(2):
            grad_out = _signed_zeros(rng.normal(size=(F, 3)), rng)
            gf, gp = backward(feats, regions, params, grad_out)
            ref_gf, ref_gp = oracle_conv_backward(feats, regions, params, grad_out)
            assert gf.tobytes() == ref_gf.tobytes()
            for got, ref in zip((gp.w0, gp.w1, gp.w2, gp.bias), ref_gp):
                assert got.tobytes() == ref.tobytes()
