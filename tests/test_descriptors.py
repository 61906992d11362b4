"""Geodesic and geometric face descriptors and their parameter gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshlearn.core import (NONE, Mesh, build_adjacency, compute_geometry,
                            normalize_mesh)
from meshlearn.data import box, icosahedron, icosphere, subdivide, torus
from meshlearn.descriptors import (DescriptorParams, compute_geodesic_terms,
                                   compute_geometric_terms, descriptor_backward,
                                   descriptor_forward, geodesic_forward,
                                   geometric_forward, init_descriptor_params)

from conftest import (disjoint_union, flip_edges, jitter_mesh, rigid_transform,
                      single_triangle)
from oracles import (oracle_geodesic_terms, oracle_geometric_terms,
                     oracle_geometry, oracle_kernel_forward)


def _inputs(mesh):
    adj = build_adjacency(mesh)
    geo = compute_geometry(mesh)
    return adj, geo


def _terms(mesh, adj, geo):
    """Both term arrays, in ``descriptor_forward``'s argument order."""
    return compute_geodesic_terms(mesh, adj, geo), compute_geometric_terms(mesh, adj, geo)


def flat_patch():
    """Triangle subdivided once: face 3 is interior with 3 in-plane neighbors."""
    base = Mesh(np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0]]),
                np.array([[0, 1, 2]]))
    return subdivide(base)


# ---------------------------------------------------------------------------
# geodesic terms


def test_pos_dev_sums_to_zero(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    terms = compute_geodesic_terms(mesh, *_inputs(mesh))
    assert np.abs(terms[:, 0]).max() <= 1e-12


def test_edge_pair_diff_nonnegative(rng):
    mesh = jitter_mesh(torus(6, 4), rng)
    terms = compute_geodesic_terms(mesh, *_inputs(mesh))
    assert (terms[:, 2] >= 0).all()


def test_flat_patch_interior_vertex_normals():
    mesh = flat_patch()
    terms = compute_geodesic_terms(mesh, *_inputs(mesh))
    assert np.allclose(terms[:, 1], [0, 0, 3], atol=1e-12)   # three unit normals


def oracle_edge_pair_diff(mesh, f):
    """Recompute the incident-edge-pair term for face f directly from the
    face list, without the library's vectorized gather."""
    adj = build_adjacency(mesh)
    out = np.zeros((3, 3))
    for i in range(3):
        vi = int(mesh.faces[f, i])
        vecs = []
        for s in range(3):   # adjacency slot order
            e = tuple(adj.shared_edges[f, s])
            g = int(adj.neighbors[f, s])
            if vi in e:
                if g == NONE:
                    vecs.append(np.zeros(3))
                else:
                    free = (set(int(x) for x in mesh.faces[g]) - set(e)).pop()
                    vecs.append(mesh.vertices[free] - mesh.vertices[vi])
        assert len(vecs) == 2
        out[i] = np.abs(vecs[0] - vecs[1])
    return out


def test_edge_pair_diff_matches_oracle(rng):
    for mesh in [icosahedron(), jitter_mesh(torus(5, 4), rng)]:
        terms = compute_geodesic_terms(mesh, *_inputs(mesh))
        for f in range(mesh.num_faces):
            rows = oracle_edge_pair_diff(mesh, f)
            assert np.array_equal(terms[f, 2], (rows[0] + rows[1]) + rows[2])


# ---------------------------------------------------------------------------
# bit-exact oracles of every stage


def pinched_pillow() -> Mesh:
    """icosphere(1) with two faces (0, a, b), (0, b, a) pinched onto vertex
    0: the normals at a and b cancel, so they take the fallback."""
    ico = icosphere(1)
    V = ico.num_vertices
    p = ico.vertices[0]
    return Mesh(np.vstack([ico.vertices, p + [0.3, 0.1, 0.0], p + [0.1, 0.3, 0.05]]),
                np.vstack([ico.faces, [[0, V, V + 1], [0, V + 1, V]]]))


ORACLE_MESHES = {
    "closed": icosphere(2),
    "bordered": Mesh(icosphere(2).vertices, icosphere(2).faces[7:]),
    "two_components": disjoint_union(torus(6, 4), box(2)),
    "edge_flipped": flip_edges(icosphere(2), np.random.default_rng(1), 60),
    "jittered": jitter_mesh(torus(8, 5), np.random.default_rng(2)),
    "pinched_pillow": pinched_pillow(),
    "flat_patch": flat_patch(),
    "single_triangle": single_triangle(),
}
PROPERTY_MESHES = list(ORACLE_MESHES.values()) + [
    box(1), torus(5, 3), flip_edges(box(2), np.random.default_rng(3), 20)]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    # stricter than np.array_equal: 0.0 and -0.0 differ
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_stages_match_oracles(mesh, params):
    adj = build_adjacency(mesh)
    geo = compute_geometry(mesh)
    want_geo = oracle_geometry(mesh)
    for name in ("face_centroids", "face_normals", "face_areas", "vertex_normals"):
        assert_same_bits(getattr(geo, name), getattr(want_geo, name))
    terms = compute_geodesic_terms(mesh, adj, geo)
    want = oracle_geodesic_terms(mesh, adj, geo)
    assert_same_bits(terms, want[3])   # the slot sums of the per-slot oracle
    gterms = compute_geometric_terms(mesh, adj, geo)
    assert_same_bits(gterms, oracle_geometric_terms(adj, geo))
    assert_same_bits(geodesic_forward(terms, params),
                     oracle_kernel_forward(params.geo, want[3]))
    assert_same_bits(geometric_forward(gterms, params),
                     oracle_kernel_forward(params.geom, gterms))


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_descriptor_stages_bit_equal_oracles(name):
    params = init_descriptor_params(4, 3, np.random.default_rng(11))
    params.geo[1] = 0.0   # all-zero kernels: einsum starts them from +0.0
    params.geom[2] = 0.0
    assert_stages_match_oracles(ORACLE_MESHES[name], params)


def test_vertex_normal_fallback_reached():
    # the pillow's own vertices sum two opposite normals to exactly zero
    # and take the normal of their first face
    geo = compute_geometry(pinched_pillow())
    n = geo.face_normals
    assert not (n[-2] + n[-1]).any()
    assert np.allclose(geo.vertex_normals[-2:], n[-2], rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_descriptor_stages_match_oracles_property(data):
    mesh = data.draw(st.sampled_from(PROPERTY_MESHES))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        mesh = rigid_transform(jitter_mesh(mesh, rng, data.draw(st.sampled_from([1e-6, 0.05]))),
                               rng)
    k_geo, k_geom = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    params = init_descriptor_params(k_geo, k_geom, rng)
    params.geo[data.draw(st.lists(st.booleans(), min_size=k_geo, max_size=k_geo))] = 0.0
    params.geom[data.draw(st.lists(st.booleans(), min_size=k_geom, max_size=k_geom))] = 0.0
    assert_stages_match_oracles(mesh, params)


# ---------------------------------------------------------------------------
# forward blocks


def test_geodesic_kernel_a0_is_dead_term(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    terms = compute_geodesic_terms(mesh, *_inputs(mesh))
    params = DescriptorParams(geo=[[1.0, 0, 0]], geom=[[0.0, 0, 0, 0]])
    out = geodesic_forward(terms, params)
    assert np.abs(out).max() <= 1e-12


def test_geodesic_kernel_a1_flat_patch():
    mesh = flat_patch()
    terms = compute_geodesic_terms(mesh, *_inputs(mesh))
    params = DescriptorParams(geo=[[0.0, 1, 0]], geom=[[0.0, 0, 0, 0]])
    out = geodesic_forward(terms, params)
    # interior face: three unit normals summed
    assert np.allclose(out[3], [0, 0, 3], atol=1e-12)


def test_geometric_kernel_selectors(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    adj, geo = _inputs(mesh)
    b0 = DescriptorParams(geo=[[0.0] * 3], geom=[[1.0, 0, 0, 0]])
    assert np.allclose(geometric_forward(compute_geometric_terms(mesh, adj, geo), b0),
                       geo.face_centroids, atol=1e-15)
    b1 = DescriptorParams(geo=[[0.0] * 3], geom=[[0.0, 1, 0, 0]])
    assert np.allclose(geometric_forward(compute_geometric_terms(mesh, adj, geo), b1),
                       geo.face_normals, atol=1e-15)


def test_geometric_cross_term_flat_plane_zero():
    mesh = flat_patch()
    adj, geo = _inputs(mesh)
    b3 = DescriptorParams(geo=[[0.0] * 3], geom=[[0.0, 0, 0, 1]])
    out = geometric_forward(compute_geometric_terms(mesh, adj, geo), b3)
    assert np.abs(out).max() <= 1e-12   # parallel normals, zero cross products


def test_descriptor_forward_layout_and_linearity(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    adj, geo = _inputs(mesh)
    terms = _terms(mesh, adj, geo)
    p1 = DescriptorParams(geo=[[0.1, 0.2, 0.3]], geom=[[0.4, 0.5, 0.6, 0.7]])
    out = descriptor_forward(*terms, p1)
    assert out.shape == (20, 6)
    zero = DescriptorParams(geo=np.zeros((1, 3)), geom=np.zeros((1, 4)))
    assert np.abs(descriptor_forward(*terms, zero)).max() == 0.0
    # exact for a power-of-two factor: scaling commutes with every product
    # and sum without extra rounding
    p2 = DescriptorParams(geo=2.0 * p1.geo, geom=2.0 * p1.geom)
    assert np.array_equal(descriptor_forward(*terms, p2), 2.0 * out)


def test_descriptor_forward_matches_term_oracle():
    """Term-by-term scalar recomputation, seed 42, on the icosahedron."""
    mesh = icosahedron()
    adj, geo = _inputs(mesh)
    params = init_descriptor_params(2, 2, np.random.default_rng(42))
    terms, gterms = _terms(mesh, adj, geo)
    out = descriptor_forward(terms, gterms, params)
    for f in range(mesh.num_faces):
        cols = []
        for j in range(params.k_geo):
            a0, a1, a2 = params.geo[j]
            vec = a0 * terms[f, 0] + a1 * terms[f, 1] + a2 * terms[f, 2]
            cols.extend(vec)
        for j in range(params.k_geom):
            b0, b1, b2, b3 = params.geom[j]
            vec = (b0 * gterms[f, 0] + b1 * gterms[f, 1]
                   + b2 * gterms[f, 2] + b3 * gterms[f, 3])
            cols.extend(vec)
        assert np.allclose(out[f], cols, atol=1e-12)


def test_border_robustness_single_triangle():
    mesh = single_triangle()
    adj, geo = _inputs(mesh)
    params = init_descriptor_params(3, 3, np.random.default_rng(1))
    out = descriptor_forward(*_terms(mesh, adj, geo), params)
    assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# equivariance


def test_rotation_equivariance_of_normal_terms(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    adj, geo = _inputs(mesh)
    from meshlearn.data import random_rotation
    R = random_rotation(rng)
    rmesh = mesh.with_geometry(mesh.vertices @ R.T)
    radj, rgeo = _inputs(rmesh)
    a1 = DescriptorParams(geo=[[0.0, 1, 0]], geom=[[0.0, 0, 0, 0]])
    t = compute_geodesic_terms(mesh, adj, geo)
    rt = compute_geodesic_terms(rmesh, radj, rgeo)
    assert np.allclose(geodesic_forward(rt, a1),
                       geodesic_forward(t, a1) @ R.T, atol=1e-9)
    b1 = DescriptorParams(geo=[[0.0] * 3], geom=[[0.0, 1, 0, 0]])
    assert np.allclose(geometric_forward(compute_geometric_terms(rmesh, radj, rgeo), b1),
                       geometric_forward(compute_geometric_terms(mesh, adj, geo), b1) @ R.T,
                       atol=1e-9)


def test_axis_permutation_equivariance_of_abs_terms(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    adj, geo = _inputs(mesh)
    P = np.eye(3)[[1, 2, 0]]    # cyclic permutation, det = +1
    pmesh = mesh.with_geometry(mesh.vertices @ P.T)
    padj, pgeo = _inputs(pmesh)
    params = DescriptorParams(geo=[[0.0, 0, 1]], geom=[[0.0, 0, 1, 1]])
    base = descriptor_forward(*_terms(mesh, adj, geo), params)
    perm = descriptor_forward(*_terms(pmesh, padj, pgeo), params)
    expect = np.concatenate([base[:, :3] @ P.T, base[:, 3:] @ P.T], axis=1)
    assert np.allclose(perm, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_grad(rng):
    mesh = jitter_mesh(icosahedron(), rng)
    adj, geo = _inputs(mesh)
    params = init_descriptor_params(2, 2, rng)
    terms = compute_geodesic_terms(mesh, adj, geo)
    gterms = compute_geometric_terms(mesh, adj, geo)
    g = descriptor_backward(terms, gterms, params, np.zeros((20, 12)))
    assert np.abs(g.geo).max() == 0.0 and np.abs(g.geom).max() == 0.0


def test_backward_a1_single_face():
    mesh = icosahedron()
    adj, geo = _inputs(mesh)
    params = DescriptorParams(geo=[[0.0, 1, 0]], geom=[[0.0] * 4])
    terms = compute_geodesic_terms(mesh, adj, geo)
    gterms = compute_geometric_terms(mesh, adj, geo)
    grad_out = np.zeros((20, 6))
    grad_out[0, :3] = 1.0   # ones on face 0's geodesic triple
    g = descriptor_backward(terms, gterms, params, grad_out)
    assert np.isclose(g.geo[0, 1], terms[0, 1].sum())


def test_backward_shape_mismatch(rng):
    mesh = icosahedron()
    adj, geo = _inputs(mesh)
    params = init_descriptor_params(2, 2, rng)
    terms = compute_geodesic_terms(mesh, adj, geo)
    gterms = compute_geometric_terms(mesh, adj, geo)
    with pytest.raises(ValueError, match="shape"):
        descriptor_backward(terms, gterms, params, np.zeros((20, 5)))


def test_backward_finite_differences_20_draws():
    """Central differences, step 1e-5, <= 1e-4 relative, on a 50-face mesh."""
    mesh = normalize_mesh(jitter_mesh(torus(5, 5), np.random.default_rng(3)))
    assert mesh.num_faces == 50
    adj, geo = _inputs(mesh)
    terms = compute_geodesic_terms(mesh, adj, geo)
    gterms = compute_geometric_terms(mesh, adj, geo)
    step = 1e-5
    for draw in range(20):
        rng = np.random.default_rng(100 + draw)
        params = init_descriptor_params(2, 2, rng)
        grad_out = rng.normal(size=(mesh.num_faces, 3 * (params.k_geo + params.k_geom)))
        analytic = descriptor_backward(terms, gterms, params, grad_out)

        def loss(p):
            return float(np.sum(grad_out * descriptor_forward(terms, gterms, p)))

        for arr, garr in ((params.geo, analytic.geo), (params.geom, analytic.geom)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = arr[ix]
                arr[ix] = old + step
                lp = loss(params)
                arr[ix] = old - step
                lm = loss(params)
                arr[ix] = old
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(garr[ix]), 1e-8)
                assert abs(fd - garr[ix]) / denom <= 1e-4
