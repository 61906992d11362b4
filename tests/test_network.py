"""End-to-end model: forward, backward, gradient checking, loss, GAP."""

import dataclasses

import numpy as np
import pytest

import meshlearn.network as net
from meshlearn.conv import ConvParams, conv_forward
from meshlearn.core import (NumericalError, build_adjacency, compute_geometry,
                            normalize_mesh)
from meshlearn.data import SyntheticSpec, generate_synthetic, icosphere, torus
from meshlearn.descriptors import (compute_geodesic_terms, compute_geometric_terms,
                                   descriptor_forward)

from conftest import jitter_mesh


def small_config(**kw):
    base = dict(num_classes=3, k_geo=2, k_geom=2, block_channels=(8, 8, 8),
                region_sizes=(3, 4, 5), t_schedule=(40, 34, 28))
    base.update(kw)
    return net.ModelConfig(**base)


def small_mesh(seed=0, lo=50, hi=60):
    spec = SyntheticSpec(classes=("torus",), samples_per_class=1,
                         face_band=(lo, hi), jitter=0.02, seed=seed)
    return normalize_mesh(generate_synthetic(spec).samples[0].mesh)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError, match="decreasing"):
        small_config(t_schedule=(40, 40, 28))
    with pytest.raises(ValueError, match=">= 1"):
        small_config(k_geo=0)
    with pytest.raises(ValueError, match="lengths"):
        net.ModelConfig(block_channels=(8, 8), region_sizes=(3, 4, 5))
    with pytest.raises(ValueError, match="below 4"):
        small_config(t_schedule=(40, 34, 3))
    with pytest.raises(ValueError, match="seed"):
        small_config(seed=-1)


def test_config_parameter_budget():
    """Sizes that ask for more than MAX_PARAMS elements are rejected from
    the config alone, before init_params could allocate them."""
    assert net.param_count(net.ModelConfig()) == 100_731
    with pytest.raises(ValueError, match="15000153000059 parameters exceed "
                                         "the budget of 100000000"):
        net.ModelConfig(block_channels=(10**6,) * 3)
    with pytest.raises(ValueError, match="291098403 parameters exceed"):
        net.ModelConfig(k_geo=10**6)
    config = small_config(block_channels=(2500,) * 3)    # within the budget
    assert 0.9 * net.MAX_PARAMS < net.param_count(config) <= net.MAX_PARAMS


def test_init_params_channel_chain():
    config = net.ModelConfig()   # defaults: 32/64/128, 2 convs per block
    params = net.init_params(config)
    c_in = config.descriptor_channels
    assert c_in == 48
    for cp in params.conv_layers:
        assert cp.in_channels == c_in
        c_in = cp.out_channels
    assert params.classifier_w.shape == (config.num_classes, c_in)


@pytest.mark.parametrize("kw", [
    {}, dict(convs_per_block=3, block_channels=(8, 16, 4)), dict(convs_per_block=1),
    dict(num_classes=5, block_channels=(8, 8, 3)), dict(k_geo=1, k_geom=5)])
def test_param_count_matches_init_params(kw):
    config = small_config(**kw)
    params = net.init_params(config)
    assert net.param_count(config) == sum(a.size for _, a in params.named_arrays())


# ---------------------------------------------------------------------------
# forward


def test_zero_classifier_gives_bias():
    config = small_config()
    params = net.init_params(config)
    params.classifier_w[:] = 0.0
    params.classifier_b[:] = [1.0, -2.0, 3.0]
    logits, _ = net.model_forward(small_mesh(), params, config)
    assert np.array_equal(logits, [1.0, -2.0, 3.0])


def test_default_model_pooling_schedule_on_500_face_mesh():
    # octahedron-based icosphere: 8 * 4^3 = 512 faces
    mesh = normalize_mesh(jitter_mesh(icosphere(3, base="octahedron"),
                                      np.random.default_rng(3)))
    assert mesh.num_faces == 512
    config = net.ModelConfig(num_classes=3)
    params = net.init_params(config)
    _, tape = net.model_forward(mesh, params, config)
    counts = [bt.pool.mesh.num_faces for bt in tape.blocks]
    for count, t in zip(counts, config.t_schedule):
        assert t - 3 <= count <= t


def test_first_conv_input_is_descriptor_forward_of_terms():
    """model_forward evaluates the descriptor through descriptor_forward
    over the cached terms: its first conv input is that call's output."""
    mesh = normalize_mesh(jitter_mesh(icosphere(3, base="octahedron"),
                                      np.random.default_rng(4)))
    config = net.ModelConfig(num_classes=3)
    params = net.init_params(config)
    _, tape = net.model_forward(mesh, params, config)
    adj, geo = build_adjacency(mesh), compute_geometry(mesh)
    want = descriptor_forward(compute_geodesic_terms(mesh, adj, geo),
                              compute_geometric_terms(mesh, adj, geo), params.descriptor)
    got = tape.blocks[0].conv_caches[0].features
    assert got.shape == want.shape == (512, config.descriptor_channels)
    assert got.tobytes() == want.tobytes()


def test_static_inputs_keep_terms_not_geometry():
    mesh = small_mesh()
    static = net.precompute_static(mesh, small_config())
    assert [f.name for f in dataclasses.fields(static)] == [
        "adjacency", "geo_terms", "geom_terms", "first_regions"]
    F = mesh.num_faces
    assert static.geo_terms.shape == (F, 3, 3) and static.geom_terms.shape == (F, 4, 3)


def test_conv_caches_keep_signs_not_differences():
    """A default-config step on a 512-face mesh: no conv cache owns the
    float64 (K, F, C) neighbour differences, which stay readable as
    ``diff``, and the caches hold at most 55% of the bytes they held with
    ``diff`` stored in place of the int8 ``sign``."""
    mesh = normalize_mesh(jitter_mesh(icosphere(3, base="octahedron"),
                                      np.random.default_rng(4)))
    config = net.ModelConfig(num_classes=3)
    _, tape = net.model_forward(mesh, net.init_params(config), config)
    held = with_diff = 0
    for bt in tape.blocks:
        K, F = bt.conv_caches[0].regions.idx.shape
        for cache in bt.conv_caches:
            x = cache.features
            assert not any(a.dtype == np.float64 and a.size == K * x.size
                           for a in cache.values())
            assert cache["diff"].shape == (F, K, x.shape[1])
            nbytes = sum(a.nbytes for a in cache.values())
            held += nbytes
            with_diff += nbytes - cache["sign"].nbytes + 8 * cache["sign"].size
    assert held <= 0.55 * with_diff


def test_conv_caches_hold_each_layer_input_once():
    """The tape keeps each conv layer's input only as its cache's
    ``features``: the previous layer's output, or the previous block's
    pooled features. Backward from a replayed tape is byte-equal."""
    config = small_config()
    params = net.init_params(config)
    mesh = small_mesh(seed=1)
    logits, tape = net.model_forward(mesh, params, config)
    assert {f.name for f in dataclasses.fields(net.BlockTape)} == {"conv_caches", "pool"}
    assert "gap_input" not in [f.name for f in dataclasses.fields(net.Tape)]
    assert all(bt.pool.pass_count > 0 for bt in tape.blocks)
    # one region table per block, held by each of its caches
    assert tape.blocks[0].conv_caches[0].regions is tape.static.first_regions
    assert all(c.regions is bt.conv_caches[0].regions
               for bt in tape.blocks for c in bt.conv_caches)
    layer = 0
    for b, bt in enumerate(tape.blocks):
        for l, cache in enumerate(bt.conv_caches):
            if l > 0:
                prev = bt.conv_caches[l - 1]
                out, _ = conv_forward(prev.features, cache.regions,
                                      params.conv_layers[layer - 1],
                                      activation=config.layer_activation(b, l - 1))
                assert cache.features.tobytes() == out.tobytes()
            elif b > 0:
                assert cache.features is tape.blocks[b - 1].pool.features
            layer += 1
    proj = np.random.default_rng(2).normal(size=logits.shape)
    _, replayed = net.model_forward(mesh, params, config, replay=tape)
    for (_, g), (_, h) in zip(net.model_backward(tape, params, config, proj).named_arrays(),
                              net.model_backward(replayed, params, config,
                                                 proj).named_arrays()):
        assert g.tobytes() == h.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_logits_raise_numerical_error():
    config = small_config()
    params = net.init_params(config)
    params.classifier_b[1] = np.inf
    with pytest.raises(NumericalError, match="non-finite logits"):
        net.model_forward(small_mesh(), params, config)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_backward_overflow_gives_inf_without_warning():
    """Gradients are not weights: an overflowing backward pass returns
    non-finite gradients, with no warning and no ValueError."""
    config = small_config()
    params = net.init_params(config)
    logits, tape = net.model_forward(small_mesh(), params, config)
    params.classifier_w *= 10
    grads = net.model_backward(tape, params, config, np.full(3, 1e308))
    assert not np.isfinite(grads.descriptor.geo).all()


def test_small_mesh_skips_pooling():
    config = net.ModelConfig(num_classes=3)   # T = 400/300/200
    params = net.init_params(config)
    mesh = small_mesh()
    logits, tape = net.model_forward(mesh, params, config)
    assert all(bt.pool.pass_count == 0 for bt in tape.blocks)
    assert np.isfinite(logits).all()


def test_replay_reproduces_logits_bitwise():
    config = small_config()
    params = net.init_params(config)
    mesh = small_mesh(seed=1)
    logits, tape = net.model_forward(mesh, params, config)
    again, _ = net.model_forward(mesh, params, config, replay=tape)
    assert np.array_equal(logits, again)


def _symmetric_params(config):
    """Parameters that treat the three coordinate axes identically:
    identity-scaled channel maps and a classifier constant within each
    3-channel block, so axis permutations leave the logits unchanged."""
    params = net.init_params(config, np.random.default_rng(0))
    C = config.descriptor_channels
    for cp in params.conv_layers:
        cp.w0[:] = np.eye(C)
        cp.w1[:] = 0.5 * np.eye(C)
        cp.w2[:] = 0.25 * np.eye(C)
        cp.bias[:] = 0.0
    per_block = params.classifier_w.reshape(config.num_classes, C // 3, 3)
    rng = np.random.default_rng(1)
    per_block[:] = rng.normal(size=(config.num_classes, C // 3, 1))
    return params


def test_axis_permutation_and_translation_invariance():
    """With coordinate-symmetric conv/classifier weights, an axis
    permutation plus translation (removed exactly by normalization up to
    roundoff) preserves the greedy pooling structure and the logits."""
    mesh = normalize_mesh(jitter_mesh(icosphere(2), np.random.default_rng(2)))
    config = small_config(block_channels=(12, 12, 12), convs_per_block=1,
                          use_activation=False,
                          t_schedule=(160, 120, 80))
    params = _symmetric_params(config)
    logits0, tape0 = net.model_forward(mesh, params, config)
    P = np.eye(3)[[1, 2, 0]]
    moved = normalize_mesh(mesh.with_geometry(
        mesh.vertices @ P.T + np.array([1.0, 2.0, 3.0])))
    logits1, tape1 = net.model_forward(moved, params, config)
    for b0, b1 in zip(tape0.blocks, tape1.blocks):
        assert b0.pool.mesh.num_faces == b1.pool.mesh.num_faces
        for r0, r1 in zip(b0.pool.passes, b1.pool.passes):
            assert np.array_equal(r0.provenance.indptr, r1.provenance.indptr)
            assert np.array_equal(r0.provenance.indices, r1.provenance.indices)
    assert np.allclose(logits0, logits1, atol=1e-6)


def test_translation_only_logits_stable_generic_params():
    # normalization removes translation up to roundoff even for generic
    # parameters
    mesh = normalize_mesh(jitter_mesh(icosphere(2), np.random.default_rng(4)))
    config = small_config(t_schedule=(160, 120, 80))
    params = net.init_params(config, np.random.default_rng(0))
    logits0, _ = net.model_forward(mesh, params, config)
    moved = normalize_mesh(mesh.with_geometry(mesh.vertices + np.array([5.0, -7.0, 2.0])))
    logits1, _ = net.model_forward(moved, params, config)
    assert np.allclose(logits0, logits1, atol=1e-6)


# ---------------------------------------------------------------------------
# global average pooling


def test_gap_basics():
    row = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(net.global_average_pool(row), row[0])
    const = np.full((7, 2), 1.25)
    assert np.array_equal(net.global_average_pool(const), [1.25, 1.25])
    two = np.array([[0.0], [2.0]])
    assert net.global_average_pool(two)[0] == 1.0
    with pytest.raises(ValueError, match="empty"):
        net.global_average_pool(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_uniform_is_log_c():
    for C in (2, 3, 10):
        loss, grad = net.cross_entropy_loss(np.zeros(C), 0)
        assert np.isclose(loss, np.log(C))
        assert np.isclose(grad.sum(), 0.0)


def test_cross_entropy_monotone_in_true_logit():
    losses = []
    for z in [0.0, 1.0, 5.0, 20.0, 100.0]:
        logits = np.array([z, 0.0, 0.0])
        loss, _ = net.cross_entropy_loss(logits, 0)
        losses.append(loss)
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-10


def test_cross_entropy_label_range():
    with pytest.raises(ValueError, match="label"):
        net.cross_entropy_loss(np.zeros(3), 3)


def test_cross_entropy_gradient_finite_differences(rng):
    logits = rng.normal(size=5)
    label = 2
    _, grad = net.cross_entropy_loss(logits, label)
    step = 1e-6
    for c in range(5):
        lp = net.cross_entropy_loss(logits + step * np.eye(5)[c], label)[0]
        lm = net.cross_entropy_loss(logits - step * np.eye(5)[c], label)[0]
        fd = (lp - lm) / (2 * step)
        assert abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-8) <= 1e-6


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_grad_logits():
    config = small_config()
    params = net.init_params(config)
    _, tape = net.model_forward(small_mesh(), params, config)
    grads = net.model_backward(tape, params, config, np.zeros(3))
    assert all(np.abs(a).max() == 0.0 for _, a in grads.named_arrays())


def test_backward_classifier_outer_product(rng):
    config = small_config()
    params = net.init_params(config)
    _, tape = net.model_forward(small_mesh(), params, config)
    gl = rng.normal(size=3)
    grads = net.model_backward(tape, params, config, gl)
    assert np.allclose(grads.classifier_w, np.outer(gl, tape.gap_output),
                       atol=1e-15)
    assert np.array_equal(grads.classifier_b, gl)


def _tape_arrays(tape):
    yield from (tape.static.geo_terms, tape.static.geom_terms, tape.gap_output)
    for bt in tape.blocks:
        yield bt.pool.features
        for cache in bt.conv_caches:
            yield from (cache.features, cache.regions.members, cache.regions.idx,
                        cache.regions.valid, *cache.values())


def test_backward_arrays_share_no_memory(rng):
    """The gradient is a fresh set of arrays: none is a view of the params,
    of ``grad_logits`` or of anything on the tape."""
    config = small_config()
    params = net.init_params(config)
    _, tape = net.model_forward(small_mesh(), params, config)
    gl = rng.normal(size=3)
    grads = net.model_backward(tape, params, config, gl)
    held = [a for _, a in params.named_arrays()] + [gl, *_tape_arrays(tape)]
    assert [n for n, _ in grads.named_arrays()] == [n for n, _ in params.named_arrays()]
    for name, g in grads.named_arrays():
        assert g.dtype == np.float64
        assert not any(np.shares_memory(g, a) for a in held), name


# ---------------------------------------------------------------------------
# gradient check harness


def test_grad_check_full_model():
    report = net.grad_check(small_config(), small_mesh(seed=2), tolerance=1e-3)
    assert report["passed"], report
    assert {"descriptor", "classifier"} <= set(report["groups"])
    assert any(g.startswith("conv") for g in report["groups"])


def test_grad_check_linear_only_tight():
    report = net.grad_check(small_config(), small_mesh(seed=2),
                            tolerance=1e-6, linear_only=True)
    assert report["passed"], report


def test_crosses_kink_counts_nonzero_sign_flips_only():
    base = [np.sign(np.array([0.5, -2.0, 0.0])), np.sign(np.array([[3.0]]))]
    same = [np.sign(np.array([0.1, -1.0, 0.0])), np.sign(np.array([[1.0]]))]
    assert not net._crosses_kink(base, same)
    moved_zero = [np.sign(np.array([0.5, -2.0, -1e-9])), base[1]]
    assert not net._crosses_kink(base, moved_zero)
    flipped = [np.sign(np.array([0.5, 1e-9, 0.0])), base[1]]
    assert net._crosses_kink(base, flipped)
    to_zero = [base[0], np.sign(np.array([[0.0]]))]
    assert net._crosses_kink(base, to_zero)


def test_grad_check_shrinks_step_across_kink():
    # with this mesh the steps 1e-5 and 1e-6 carry an abs/ReLU argument
    # across its kink for some probes, which pass at 1e-7
    report = net.grad_check(small_config(), small_mesh(seed=3), tolerance=1e-3)
    assert report["step"] < 1e-5
    assert report["step"] == pytest.approx(1e-7)
    assert report["passed"], report


def test_grad_check_fails_when_every_step_crosses(monkeypatch):
    monkeypatch.setattr(net, "_crosses_kink", lambda base, probe: True)
    report = net.grad_check(small_config(), small_mesh(seed=2), tolerance=1e-3)
    assert not report["passed"]
    assert report["max_error"] == np.inf
    linear = net.grad_check(small_config(), small_mesh(seed=2),
                            tolerance=1e-6, linear_only=True)
    assert linear["passed"]      # no kinks are tested without abs/ReLU


def corrupt_conv_gradients(monkeypatch):
    """Make ``model_backward`` add 1 to every conv gradient entry."""
    backward = net.model_backward

    def corrupted(*args, **kwargs):
        grads = backward(*args, **kwargs)
        for name, arr in grads.named_arrays():
            if name.startswith("conv"):
                arr += 1.0
        return grads

    monkeypatch.setattr(net, "model_backward", corrupted)


def test_grad_check_corrupt_negative_control(monkeypatch):
    corrupt_conv_gradients(monkeypatch)
    report = net.grad_check(small_config(), small_mesh(seed=2), tolerance=1e-3)
    assert not report["passed"]
    bad = [g for g, e in report["groups"].items()
           if g.startswith("conv") and e > 1e-3]
    assert bad      # the corrupted conv group is flagged


# ---------------------------------------------------------------------------
# parameter plumbing


def test_zeros_like_params_is_positive_zero_and_fresh():
    """Same names, shapes and dtypes, every entry +0.0 (also where the
    input holds -0.0), and no array shared with the input."""
    config = small_config()
    params = net.init_params(config)
    params.descriptor.geo[0, 0] = -0.0
    params.classifier_b[:] = -0.0
    before = [a.copy() for _, a in params.named_arrays()]
    zeros = net.zeros_like_params(params)
    assert [(n, a.shape, a.dtype) for n, a in zeros.named_arrays()] == [
        (n, a.shape, a.dtype) for n, a in params.named_arrays()]
    for (_, z), (_, p), b in zip(zeros.named_arrays(), params.named_arrays(), before):
        assert not z.any() and not np.signbit(z).any()
        assert not np.shares_memory(z, p)
        assert p.tobytes() == b.tobytes()


def test_add_params_and_zeros_like(rng):
    config = small_config()
    a = net.init_params(config, np.random.default_rng(0))
    b = net.init_params(config, np.random.default_rng(1))
    acc = net.zeros_like_params(a)
    net.add_params(acc, a)
    net.add_params(acc, b, scale=-1.0)
    for (_, x), (_, pa), (_, pb) in zip(acc.named_arrays(), a.named_arrays(),
                                        b.named_arrays()):
        assert np.allclose(x, pa - pb, atol=1e-15)
