"""The Adam optimizer and the deterministic training loop."""

import numpy as np
import pytest

import meshlearn.network as net
from meshlearn.training import (Adam, TrainConfig, evaluate, make_optimizer,
                                prepare, train)

from test_network import small_config, small_mesh


def tiny_dataset(n_per_class=3, seed=0):
    """(mesh, label) pairs from three easily separable shape classes."""
    from meshlearn.data import SyntheticSpec, generate_synthetic
    spec = SyntheticSpec(samples_per_class=n_per_class, face_band=(80, 140),
                         jitter=0.01, seed=seed)
    return [(s.mesh, s.class_id) for s in generate_synthetic(spec).samples]


def test_train_config_validation():
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError, match="batch size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    TrainConfig(learning_rate=0.0)    # zero is allowed


# ---------------------------------------------------------------------------
# optimizers


def test_adam_constant_gradient_step_magnitude():
    # with a constant gradient, the bias-corrected step magnitude is lr
    config = small_config()
    params = net.init_params(config)
    grads = net.zeros_like_params(params)
    grads.classifier_b[:] = 0.7
    p0 = params.classifier_b.copy()
    opt = Adam(lr=0.01)
    opt.step(params, grads)
    step1 = np.abs(params.classifier_b - p0)
    assert np.allclose(step1, 0.01, rtol=1e-5)
    for _ in range(5):
        prev = params.classifier_b.copy()
        opt.step(params, grads)
        assert np.allclose(np.abs(params.classifier_b - prev), 0.01, rtol=1e-4)


def test_optimizer_step_functional_form():
    # two steps of m <- b1 m + (1 - b1) g, v <- b2 v + (1 - b2) g^2,
    # p <- p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    config = small_config()
    params = net.init_params(config)
    grads = net.zeros_like_params(params)
    w0 = params.classifier_w.copy()
    opt = make_optimizer(TrainConfig(learning_rate=0.1))
    assert isinstance(opt, Adam) and opt.lr == 0.1
    p, m, v = params.classifier_b.copy(), 0.0, 0.0
    for t, g in enumerate((1.0, -3.0), 1):
        grads.classifier_b[:] = g
        opt.step(params, grads)
        m, v = 0.9 * m + 0.1 * g, 0.999 * v + 0.001 * g * g
        p = p - 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(params.classifier_b, p, rtol=0, atol=1e-12)
    # a zero gradient moves nothing
    assert np.array_equal(params.classifier_w, w0)


def test_adam_in_place_matches_functional_form_bytes():
    """200 steps on the default model: the in-place moments give the
    parameters of the functional recursion, byte for byte."""
    rng = np.random.default_rng(6)
    params = net.init_params(net.ModelConfig())
    ref = [a.copy() for _, a in params.named_arrays()]
    m, v = [np.zeros_like(a) for a in ref], [np.zeros_like(a) for a in ref]
    opt = Adam(lr=1e-3)
    for t in range(1, 201):
        grads = net.zeros_like_params(params)
        for _, g in grads.named_arrays():
            g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-6, 3)
        opt.step(params, grads)
        b1t, b2t = 1.0 - Adam.BETA1 ** t, 1.0 - Adam.BETA2 ** t
        for i, (_, g) in enumerate(grads.named_arrays()):
            m[i] = Adam.BETA1 * m[i] + (1 - Adam.BETA1) * g
            v[i] = Adam.BETA2 * v[i] + (1 - Adam.BETA2) * g * g
            ref[i] -= opt.lr * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + Adam.EPS)
    for (_, a), b in zip(params.named_arrays(), ref):
        assert a.tobytes() == b.tobytes()


def test_negative_zero_gradient_steps_as_positive_zero():
    """A -0.0 gradient entry, which model_backward may now return for the
    descriptor, gives the same batch sum and the same Adam step, bit for
    bit, as +0.0."""
    config = small_config()
    runs = []
    for zero in (0.0, -0.0):
        grads = net.init_params(config, np.random.default_rng(1))
        grads.descriptor.geo[0, :] = zero
        acc = net.zeros_like_params(grads)
        net.add_params(acc, grads, scale=1.0 / 3)
        out = [a.tobytes() for _, a in acc.named_arrays()]
        for step_grads in (acc, grads):      # the batch sum, and a bare gradient
            params, opt = net.init_params(config), Adam(lr=0.01)
            for _ in range(2):
                opt.step(params, step_grads)
            out += [a.tobytes() for _, a in params.named_arrays()]
            out += [opt.m["descriptor.geo"].tobytes(), opt.v["descriptor.geo"].tobytes()]
        runs.append(out)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# training loop


def test_lr_zero_keeps_params_and_baseline_accuracy():
    data = tiny_dataset(3)
    config = small_config()
    tc = TrainConfig(learning_rate=0.0, epochs=1, batch_size=4)
    result = train(data, data, config, tc)
    init = net.init_params(config, np.random.default_rng(config.seed))
    for (_, a), (_, b) in zip(result.params.named_arrays(), init.named_arrays()):
        assert np.array_equal(a, b)
    hits = evaluate(prepare(data, config), init, config)
    assert hits and set(hits) <= {0, 1}
    assert result.metrics[0].test_acc == np.mean(hits)


def test_initial_loss_near_log_c():
    data = tiny_dataset(2)
    config = small_config()
    tc = TrainConfig(learning_rate=0.0, epochs=1, batch_size=4)
    result = train(data, data, config, tc)
    assert abs(result.metrics[0].loss - np.log(3)) <= 0.2 * np.log(3)


def test_single_sample_memorization():
    data = [tiny_dataset(1)[0]]   # one mesh, class 0
    config = small_config()
    tc = TrainConfig(learning_rate=1e-2, epochs=60, batch_size=1)
    result = train(data, data, config, tc)
    assert min(m.loss for m in result.metrics) < 0.01


def test_training_determinism_bit_exact():
    data = tiny_dataset(2)
    config = small_config()
    tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=3)
    r1 = train(data, data, config, tc)
    r2 = train(data, data, config, tc)
    assert [m.line() for m in r1.metrics] == [m.line() for m in r2.metrics]
    for (_, a), (_, b) in zip(r1.params.named_arrays(), r2.params.named_arrays()):
        assert np.array_equal(a, b)


def test_thread_count_does_not_change_result():
    data = tiny_dataset(2)
    config = small_config()
    r1 = train(data, data, config, TrainConfig(epochs=2, batch_size=3, threads=1))
    r2 = train(data, data, config, TrainConfig(epochs=2, batch_size=3, threads=4))
    for (_, a), (_, b) in zip(r1.params.named_arrays(), r2.params.named_arrays()):
        assert np.array_equal(a, b)


def test_train_error_contracts():
    config = small_config()
    with pytest.raises(ValueError, match="empty training split"):
        train([], [], config, TrainConfig(epochs=1))
    data = [(small_mesh(), 7)]
    with pytest.raises(ValueError, match="label out of range"):
        train(data, [], config, TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="empty evaluation"):
        evaluate([], net.init_params(config), config)


def test_best_checkpoint_tracking_and_early_stop():
    data = tiny_dataset(2)
    config = small_config()
    tc = TrainConfig(learning_rate=5e-3, epochs=30, batch_size=3)
    result = train(data, data, config, tc, stop_at_test_acc=1.0)
    assert result.best_test_acc == max(m.test_acc for m in result.metrics)
    assert result.metrics[result.best_epoch].test_acc == result.best_test_acc
