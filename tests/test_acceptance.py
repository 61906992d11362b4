"""Acceptance suite: one test per release criterion.

Each test registers a single PASS/FAIL line (printed in the terminal
summary) describing the criterion it verifies.
"""

import functools
import os
import time

import numpy as np

import meshlearn.network as net
from meshlearn import cli, training
from meshlearn.bench import run_benchmark
from meshlearn.checkpoint import checkpoint_digest
from meshlearn.conv import RegionTable, build_regions, conv_forward, init_conv_params
from meshlearn.core import (build_adjacency, compute_geometry,
                            euler_characteristic, normalize_mesh, validate_mesh)
from meshlearn.data import (SyntheticSpec, box, generate_synthetic, icosphere,
                            make_splits, random_rotation, torus)
from meshlearn.descriptors import (compute_geodesic_terms, compute_geometric_terms,
                                   descriptor_forward, init_descriptor_params)
from meshlearn.pooling import compute_face_weights, plan_pass, pool_to_target

from conftest import (assert_plan_matches_oracle, closed_corpus, jitter_mesh,
                      record_criterion, rigid_transform)
from oracles import (oracle_adjacency, oracle_plan_pass, oracle_regions,
                     oracle_weights)


def criterion(number, description):
    """Record one PASS/FAIL summary line for the wrapped test."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            t0 = time.perf_counter()
            try:
                detail = fn(*a, **kw)
            except BaseException:
                record_criterion(number, description, False)
                raise
            dt = time.perf_counter() - t0
            extra = f"{detail}, " if detail else ""
            record_criterion(number, description, True, f"{extra}{dt:.1f}s")
        return wrapper
    return deco


def _descriptor_features(mesh, adj, params):
    geo = compute_geometry(mesh)
    return descriptor_forward(compute_geodesic_terms(mesh, adj, geo),
                              compute_geometric_terms(mesh, adj, geo), params)


def _small_grad_config():
    return net.ModelConfig(num_classes=3, k_geo=2, k_geom=2,
                           block_channels=(8, 8, 8), region_sizes=(3, 4, 5),
                           t_schedule=(40, 34, 28))


def _torus_mesh(seed, lo=50, hi=60):
    spec = SyntheticSpec(classes=("torus",), samples_per_class=1,
                         face_band=(lo, hi), jitter=0.02, seed=seed)
    return normalize_mesh(generate_synthetic(spec).samples[0].mesh)


@criterion(1, "analytic gradients match finite differences on 20 seeded "
              "meshes (full <= 1e-3, abs-free <= 1e-6)")
def test_criterion_1_gradient_correctness():
    config = _small_grad_config()
    worst_full = worst_linear = 0.0
    for seed in range(20):
        mesh = _torus_mesh(seed)
        assert 50 <= mesh.num_faces <= 60
        full = net.grad_check(config, mesh, tolerance=1e-3)
        assert full["passed"], (seed, full)
        linear = net.grad_check(config, mesh, tolerance=1e-6, linear_only=True)
        assert linear["passed"], (seed, linear)
        worst_full = max(worst_full, full["max_error"])
        worst_linear = max(worst_linear, linear["max_error"])
    return (f"worst full rel err {worst_full:.2e}, "
            f"worst abs-free {worst_linear:.2e}")


def _topology_corpus():
    """100 seeded closed meshes, 80-1300 faces, three shape families."""
    bases = [lambda: icosphere(1), lambda: icosphere(2), lambda: icosphere(3),
             lambda: box(3), lambda: box(4), lambda: box(6),
             lambda: torus(10, 6), lambda: torus(16, 10), lambda: torus(25, 12),
             lambda: box(5)]
    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        mesh = jitter_mesh(bases[seed % len(bases)](), rng)
        yield rigid_transform(mesh, rng)


@criterion(2, "pooling to F/2 on 100 closed meshes (80-1300 faces) keeps "
              "validity, chi, face-count band, and incremental adjacency")
def test_criterion_2_pooling_topology():
    ico_fracs = []
    params = init_descriptor_params(3, 3, np.random.default_rng(0))
    for i, mesh in enumerate(_topology_corpus()):
        F = mesh.num_faces
        assert 80 <= F <= 1300
        chi = euler_characteristic(mesh)
        adj = build_adjacency(mesh)
        feats = _descriptor_features(mesh, adj, params)
        target = F // 2
        out = pool_to_target(mesh, adj, feats, target)
        assert validate_mesh(out.mesh).ok, i
        assert euler_characteristic(out.mesh) == chi, i
        assert (target - 3 <= out.mesh.num_faces <= target) or out.stalled, i
        full = build_adjacency(out.mesh)
        assert np.array_equal(out.adjacency.neighbors, full.neighbors), i
        assert np.array_equal(out.adjacency.shared_edges, full.shared_edges), i
        if i % 10 in (0, 1, 2) and out.passes:     # icosphere family
            first = out.passes[0]
            frac = (first.old_num_faces - len(first.provenance)) / first.old_num_faces
            assert frac >= 0.40, i
            ico_fracs.append(frac)
    return (f"icosphere first-pass removal fraction "
            f"{min(ico_fracs):.3f}-{max(ico_fracs):.3f}")


@criterion(3, "adjacency, regions, weights, and pass planning bit-match "
              "brute-force oracles on 50 seeded meshes <= 100 faces")
def test_criterion_3_oracle_equivalence():
    for i, mesh in enumerate(closed_corpus(max_faces=100, seeds=range(50))):
        assert mesh.num_faces <= 100
        adj = build_adjacency(mesh)
        nb, se = oracle_adjacency(mesh)
        assert np.array_equal(adj.neighbors, nb), i
        assert np.array_equal(adj.shared_edges, se), i

        regions = build_regions(adj, 3 + (i % 9))
        expect = oracle_regions(adj.neighbors, 3 + (i % 9))
        for f in range(mesh.num_faces):
            assert regions.row(f) == expect[f], (i, f)

        rng = np.random.default_rng(100 + i)
        feats = rng.normal(size=(mesh.num_faces, 4))
        weights = compute_face_weights(feats, adj)
        assert np.array_equal(weights, oracle_weights(feats, adj.neighbors)), i

        target = max(4, mesh.num_faces // 2)
        plan = plan_pass(mesh, adj, weights, target)
        assert_plan_matches_oracle(plan, oracle_plan_pass(mesh, weights, target))


@criterion(4, "adjacency/regions rigid-invariant (20 transforms), conv "
              "order-invariant, pooling selection invariant")
def test_criterion_4_invariance_suite():
    rng = np.random.default_rng(11)
    base = jitter_mesh(icosphere(1), np.random.default_rng(3))
    adj0 = build_adjacency(base)
    reg0 = build_regions(adj0, 9)
    for _ in range(20):
        moved = rigid_transform(base, rng, scale=True)
        adj = build_adjacency(moved)
        assert np.array_equal(adj.neighbors, adj0.neighbors)
        assert np.array_equal(adj.shared_edges, adj0.shared_edges)
        regions = build_regions(adj, 9)
        assert np.array_equal(regions.members, reg0.members)

    # convolution: bit-identical under region-list permutation
    feats = rng.normal(size=(base.num_faces, 4))
    cparams = init_conv_params(4, 6, rng)
    ref, _ = conv_forward(feats, reg0, cparams)
    for _ in range(10):
        members = reg0.members.copy()
        for f in range(members.shape[0]):
            n = np.count_nonzero(members[f] >= 0)
            members[f, :n] = rng.permutation(members[f, :n])
        shuffled = RegionTable(members)
        assert np.array_equal(conv_forward(feats, shuffled, cparams)[0], ref)

    # pooling selection: exact under axis permutation and translation
    def selection(mesh, abs_free):
        adj = build_adjacency(mesh)
        params = init_descriptor_params(2, 2, np.random.default_rng(9))
        if abs_free:
            params.geo[:, 2] = 0.0
            params.geom[:, 2:] = 0.0
        f = _descriptor_features(mesh, adj, params)
        w = compute_face_weights(f, adj)
        plan = plan_pass(mesh, adj, w, mesh.num_faces // 2)
        return w, plan.regions

    w0, sel0 = selection(base, abs_free=False)
    P = np.eye(3)[[2, 0, 1]]
    _, sel_p = selection(base.with_geometry(base.vertices @ P.T), abs_free=False)
    assert sel_p == sel0
    _, sel_t = selection(base.with_geometry(base.vertices + [3.0, -2.0, 5.0]),
                         abs_free=False)
    assert sel_t == sel0

    # rotation: invariant whenever the minimum weight gap exceeds 1e-6
    w0, sel0 = selection(base, abs_free=True)
    gaps = np.diff(np.sort(w0))
    assert gaps[gaps > 0].min() > 1e-6
    for k in range(5):
        R = random_rotation(np.random.default_rng(60 + k))
        _, sel = selection(base.with_geometry(base.vertices @ R.T),
                           abs_free=True)
        assert sel == sel0


@criterion(5, "synthetic 3-class task (30 train / 15 test per class, "
              "~500 faces, default T=400/300/200) reaches >= 90% test "
              "accuracy within 30 epochs")
def test_criterion_5_desk_scale_classification():
    spec = SyntheticSpec(samples_per_class=45, jitter=0.01, seed=0)
    dataset = generate_synthetic(spec)
    train_set, test_set = make_splits(dataset, 30, seed=0)
    assert len(train_set.samples) == 90 and len(test_set.samples) == 45
    model_config = net.ModelConfig(num_classes=3)
    assert model_config.t_schedule == (400, 300, 200)
    result = training.train(train_set.pairs(), test_set.pairs(), model_config,
                            training.TrainConfig(), stop_at_test_acc=0.90)
    assert len(result.metrics) <= 30
    assert result.best_test_acc >= 0.90, result.best_test_acc
    return (f"test acc {result.best_test_acc:.3f} "
            f"at epoch {result.best_epoch}")


@criterion(6, "two identically-seeded training runs produce byte-identical "
              "metrics files and equal checkpoint digests")
def test_criterion_6_determinism(tmp_path):
    cfg = str(tmp_path / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("num_classes = 3\nk_geo = 2\nk_geom = 2\n"
                 "block_channels = 8 8 8\nregion_sizes = 3 4 5\n"
                 "t_schedule = 40 34 28\n"
                 "train.epochs = 3\ntrain.batch_size = 3\n"
                 "synthetic.samples_per_class = 3\n"
                 "synthetic.face_band = 80 140\nsynthetic.seed = 0\n")
    outs = [str(tmp_path / "run_a"), str(tmp_path / "run_b")]
    for out in outs:
        assert cli.main(["train", "--synthetic", "--config", cfg,
                         "--out", out]) == 0
    metrics = [open(os.path.join(o, "metrics.txt"), "rb").read() for o in outs]
    assert metrics[0] == metrics[1]
    digests = [checkpoint_digest(os.path.join(o, "best.ckpt")) for o in outs]
    assert digests[0] == digests[1]
    return f"digest {digests[0][:12]}"


@criterion(7, "benchmark harness completes 50 batches of 50 meshes at "
              "500 faces with per-phase timings")
def test_criterion_7_benchmark_harness():
    report = run_benchmark(faces=500, batch_size=50, num_batches=50, seed=0)
    assert report.batch_size == 50 and report.num_batches == 50
    for phase in ("descriptor", "conv", "pool"):
        assert report.phase_mean_ms[phase] > 0.0
        assert report.phase_std_ms[phase] >= 0.0
    assert 0.0 < report.removal_fraction <= 0.5
    lines = report.lines()
    assert any(line.startswith("phase=pool mean_ms=") for line in lines)
    return ", ".join(f"{p} {report.phase_mean_ms[p]:.0f}ms"
                     for p in ("descriptor", "conv", "pool"))
