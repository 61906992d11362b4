"""Command-line interface: outputs, exit codes, config handling."""

import contextlib
import functools
import io
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshlearn.network as net
from meshlearn import cli, pooling, training
from meshlearn.checkpoint import save_checkpoint
from meshlearn.core import load_mesh, save_off
from meshlearn.data import (SyntheticSpec, generate_synthetic, icosphere,
                            torus, write_dataset)

from conftest import tetrahedron
from test_checkpoint import DEFECTS, mutate_bytes, write_malformed
from test_network import corrupt_conv_gradients


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# info


def test_info_tetrahedron(tmp_path, capsys):
    path = str(tmp_path / "t.off")
    save_off(tetrahedron(), path)
    assert run(["info", path]) == 0
    out = capsys.readouterr().out
    for token in ("V=4", "E=6", "F=4", "chi=2", "manifold=yes", "oriented=yes"):
        assert token in out


def test_info_torus_chi_zero(tmp_path, capsys):
    path = str(tmp_path / "t.off")
    save_off(torus(8, 4), path)
    assert run(["info", path]) == 0
    assert "chi=0" in capsys.readouterr().out


def test_info_corrupt_file_exit_2(tmp_path, capsys):
    path = str(tmp_path / "bad.off")
    with open(path, "w") as fh:
        fh.write("OFF\nnot a mesh\n")
    assert run(["info", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["info", str(tmp_path / "missing.off")]) == 2


def test_info_non_finite_coordinate_exit_2(tmp_path, capsys):
    path = str(tmp_path / "nan.off")
    with open(path, "w") as fh:
        fh.write("OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 nan\n"
                 "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n")
    assert run(["info", path]) == 2
    captured = capsys.readouterr()
    assert "non-finite vertex coordinate" in captured.err
    assert "manifold=" not in captured.out


def test_info_and_pool_text_without_mesh_exit_2(tmp_path, capsys):
    path = str(tmp_path / "notes.txt")
    with open(path, "w") as fh:
        fh.write("hello world\n")
    assert run(["info", path]) == 2
    captured = capsys.readouterr()
    assert "mesh has no faces" in captured.err and "V=" not in captured.out
    out = str(tmp_path / "out.off")
    assert run(["pool", path, "--target", "4", "-o", out]) == 2
    assert "mesh has no faces" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("body, message", [
    ("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",
     "line 6: malformed face line"),
    ("-1 1 0\n0 0 0\n3 0 0 0\n", "line 2: malformed counts line '-1 1 0'"),
])
def test_info_malformed_off_exit_2(tmp_path, capsys, body, message):
    path = str(tmp_path / "bad.off")
    with open(path, "w") as fh:
        fh.write("OFF\n" + body)
    assert run(["info", path]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_unknown_command_exit_2():
    assert run(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# pool


def test_pool_icosphere_320_to_160(tmp_path, capsys):
    src, dst = str(tmp_path / "in.off"), str(tmp_path / "out.off")
    save_off(icosphere(2), src)
    assert run(["pool", src, "--target", "160", "-o", dst]) == 0
    out = capsys.readouterr().out
    pooled = load_mesh(dst)
    assert 157 <= pooled.num_faces <= 160
    assert "faces_before=320" in out and "passes=" in out
    assert "removal_fractions=" in out and "seconds=" in out


def test_pool_target_at_or_above_f_is_copy(tmp_path, capsys):
    src, dst = str(tmp_path / "in.off"), str(tmp_path / "out.off")
    mesh = icosphere(1)
    save_off(mesh, src)
    assert run(["pool", src, "--target", "80", "-o", dst]) == 0
    pooled = load_mesh(dst)
    assert np.array_equal(pooled.faces, mesh.faces)
    assert "passes=0" in capsys.readouterr().out


def test_pool_icosahedron_to_12(tmp_path):
    src, dst = str(tmp_path / "in.off"), str(tmp_path / "out.off")
    from meshlearn.data import icosahedron
    save_off(icosahedron(), src)
    assert run(["pool", src, "--target", "12", "-o", dst]) == 0
    assert load_mesh(dst).num_faces == 12


def test_pool_descriptor_weights(tmp_path):
    src, dst = str(tmp_path / "in.off"), str(tmp_path / "out.off")
    save_off(icosphere(2), src)
    assert run(["pool", src, "--target", "160", "--weights", "descriptor",
                "-o", dst]) == 0
    assert 157 <= load_mesh(dst).num_faces <= 160


def test_pool_stall_strict_exit_1(tmp_path, capsys):
    # two disjoint tetrahedra cannot reach 7 faces: each component needs >= 4
    t1, t2 = tetrahedron(), tetrahedron()
    verts = np.vstack([t1.vertices, t2.vertices + np.array([10.0, 0, 0])])
    faces = np.vstack([t1.faces, t2.faces + 4])
    src, dst = str(tmp_path / "in.off"), str(tmp_path / "out.off")
    save_off(t1.__class__(verts, faces), src)
    assert run(["pool", src, "--target", "7", "-o", dst, "--strict"]) == 1
    captured = capsys.readouterr()
    assert "stalled=yes" in captured.out
    assert "stall" in captured.err
    assert run(["pool", src, "--target", "7", "-o", dst]) == 0   # non-strict


def test_pool_out_of_passes_prints_stalled(tmp_path, capsys, monkeypatch):
    one_pass = functools.partial(pooling.pool_to_target, max_passes=1)
    monkeypatch.setattr(pooling, "pool_to_target", one_pass)
    src, dst = str(tmp_path / "in.off"), str(tmp_path / "out.off")
    save_off(icosphere(3), src)
    assert run(["pool", src, "--target", "40", "-o", dst]) == 0
    captured = capsys.readouterr()
    assert "passes=1" in captured.out and "faces_after=572" in captured.out
    assert "stalled=yes" in captured.out
    assert "stall: achieved 572 faces (target 40)" in captured.err


def test_pool_invalid_input_exit_2(tmp_path, capsys):
    # three faces sharing edge (0, 1): non-manifold, fails validation
    from meshlearn.core import Mesh
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]])
    faces = np.array([[0, 1, 2], [0, 3, 1], [1, 0, 4]])
    src = str(tmp_path / "fan.off")
    save_off(Mesh(verts, faces), src)
    assert run(["pool", src, "--target", "4",
                "-o", str(tmp_path / "o.off")]) == 2
    assert "validation" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def _write_config(tmp_path, extra=""):
    """The tiny-model config, then the lines of ``extra``, which replace
    the base lines setting the same keys (a key set twice is an error)."""
    base = ("# tiny model\n"
            "num_classes = 3\n"
            "k_geo = 2\nk_geom = 2\n"
            "block_channels = 8, 8, 8\n"
            "region_sizes = 3 4 5\n"
            "t_schedule = 40 34 28\n"
            "train.epochs = 2\n"
            "train.batch_size = 3\n"
            "synthetic.samples_per_class = 3\n"
            "synthetic.face_band = 80 140\n"
            "synthetic.seed = 0\n")

    def key(line):
        return line.split("=", 1)[0].strip()

    replaced = {key(ln) for ln in extra.splitlines()}
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write("".join(ln for ln in base.splitlines(keepends=True)
                         if key(ln) not in replaced) + extra)
    return path


def test_train_missing_data_exit_2(capsys):
    assert run(["train"]) == 2
    assert "either --data or --synthetic" in capsys.readouterr().err
    assert run(["train", "--data", "/nonexistent/root"]) == 2


def test_train_unknown_config_key(tmp_path, capsys):
    cfg = str(tmp_path / "bad.cfg")
    with open(cfg, "w") as fh:
        fh.write("definitely_not_a_key = 1\n")
    assert run(["train", "--synthetic", "--config", cfg]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_train_malformed_config_line(tmp_path, capsys):
    cfg = str(tmp_path / "bad.cfg")
    with open(cfg, "w") as fh:
        fh.write("no equals sign here\n")
    assert run(["train", "--synthetic", "--config", cfg]) == 2


@pytest.mark.parametrize("line, message", [
    ("block_channels = a b c", "block_channels = 'a b c' is not a tuple"),
    ("use_activation = banana", "use_activation = 'banana' is not a bool"),
    # retired model keys, even at the one value the model now fixes
    ("head = linear", "unknown config key 'head'"),
    ("abs_mode = componentwise", "unknown config key 'abs_mode'"),
    ("normalize_regions = false", "unknown config key 'normalize_regions'"),
    ("region_sizes = 2 6 9", "region_sizes (2, 6, 9) has an entry below 3"),
    ("train.epochs = 0", "epochs must be >= 1"),
    ("train.epochs = -3", "epochs must be >= 1"),
    ("train.threads = 0", "threads must be >= 1"),
    ("train.optimizer = adam", "unknown config key 'train.optimizer'"),   # retired
    ("synthetic.samples_per_class = 0", "samples per class must be >= 1"),
    ("synthetic.samples_per_class = 1", "1 train per class needs at least 2"),
    ("synthetic.face_band = 140 80", "face band lower bound exceeds upper bound"),
    ("train.learning_rate = nan", "learning rate must be finite and >= 0"),
    ("train.learning_rate = inf", "learning rate must be finite and >= 0"),
    ("train.learning_rate = 1e999", "learning rate must be finite and >= 0"),
    ("synthetic.jitter = nan", "jitter must be finite and >= 0"),
    ("synthetic.jitter = 1e999", "jitter must be finite and >= 0"),
    ("synthetic.seed = -1", "seed must be >= 0"),
    ("train.seed = -1", "seed must be >= 0"),
    ("seed = -1", "seed must be >= 0"),
    ("t_schedule = 40 34 3", "t_schedule (40, 34, 3) has an entry below 4"),
    ("num_classes = 2", "num_classes = 2 but the data has 3 classes"),
    ("synthetic.face_band = 80 81", "face band [80, 81] unreachable for class 'box'"),
    ("synthetic.classes = ,", "no synthetic classes"),
    # beyond SeedSequence.spawn's range, and a band of ~3e8 box resolutions
    ("synthetic.samples_per_class = 99999999999999999999999",
     "3 classes x 99999999999999999999999 samples exceeds 1000000 synthetic samples"),
    ("synthetic.face_band = 420 1000000000000000000",
     "face band upper bound 1000000000000000000 exceeds 10000000"),
    # retired training and data keys, even at a value they used to take
    ("train.momentum = 0.9", "unknown config key 'train.momentum'"),
    ("train.weight_decay = 0", "unknown config key 'train.weight_decay'"),
    ("synthetic.rigid = true", "unknown config key 'synthetic.rigid'"),
    # over net.MAX_PARAMS; nothing is allocated
    ("block_channels = 1000000 1000000 1000000",
     "15000045000017 parameters exceed the budget of 100000000"),
    ("k_geo = 10000000", "750001187 parameters exceed the budget of 100000000"),
    # a key set twice, also when spaced otherwise; the last value used to win
    ("train.epochs = 1\ntrain.epochs = 2", "run.cfg:13: key 'train.epochs' repeats line 12"),
    ("train.threads=1\ntrain.learning_rate = 0.01\ntrain.threads = 2",
     "run.cfg:15: key 'train.threads' repeats line 13"),
], ids=["int_tuple", "bool_word", "head", "abs_mode", "normalize_regions", "region_size",
        "epochs_zero", "epochs_negative", "threads_zero", "optimizer", "samples_per_class",
        "no_test_sample", "face_band", "learning_rate_nan", "learning_rate_inf",
        "learning_rate_1e999", "jitter_nan", "jitter_1e999", "synthetic_seed_negative",
        "train_seed_negative", "model_seed_negative", "t_schedule_below_4",
        "num_classes_below_data", "face_band_unreachable", "no_synthetic_classes",
        "samples_per_class_huge", "face_band_huge", "momentum", "weight_decay", "rigid",
        "block_channels_over_budget", "k_geo_over_budget", "repeated_key",
        "repeated_key_unspaced"])
def test_train_malformed_config_value_exit_2(tmp_path, capsys, monkeypatch,
                                             line, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was checked")

    monkeypatch.setattr(cli, "generate_synthetic", no_data)
    cfg = _write_config(tmp_path, line + "\n")
    out = str(tmp_path / "run")
    assert run(["train", "--synthetic", "--config", cfg, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_train_per_class_train_checked_before_data(tmp_path, capsys, monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the split was checked")

    monkeypatch.setattr(cli, "generate_synthetic", no_data)
    cfg = _write_config(tmp_path)          # 3 synthetic samples per class
    out = str(tmp_path / "run")
    assert run(["train", "--synthetic", "--config", cfg, "--per-class-train", "3",
                "--out", out]) == 2
    assert "3 train per class needs at least 4" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_train_per_class_train_below_one_exit_2(tmp_path, capsys, monkeypatch, value):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the argument was checked")

    monkeypatch.setattr(cli, "generate_synthetic", no_data)
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "run")
    assert run(["train", "--synthetic", "--config", cfg, "--per-class-train", value,
                "--out", out]) == 2
    assert f"--per-class-train: must be >= 1, got {value}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag", ["--epochs", "--threads"])
def test_train_retired_flags_exit_2(tmp_path, capsys, flag):
    # the config keys train.epochs and train.threads set these
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "run")
    assert run(["train", "--synthetic", "--config", cfg, flag, "1", "--out", out]) == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_train_synthetic_writes_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "run")
    assert run(["train", "--synthetic", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "best_test_acc=" in stdout
    lines = open(os.path.join(out, "metrics.txt")).read().strip().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        assert line.startswith(f"epoch={i} loss=")
        assert "train_acc=" in line and "test_acc=" in line
    assert os.path.exists(os.path.join(out, "best.ckpt"))


def test_train_lr_zero_flat_metrics(tmp_path, capsys):
    cfg = _write_config(tmp_path, "train.learning_rate = 0\ntrain.epochs = 3\n")
    out = str(tmp_path / "run")
    assert run(["train", "--synthetic", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "metrics.txt")).read().strip().splitlines()
    stripped = [ln.split(" ", 1)[1] for ln in lines]   # drop epoch=i
    assert len(set(stripped)) == 1
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_overflowing_learning_rate_exit_1(tmp_path, capsys):
    """A step that overflows the features ends in the typed error, with
    no RuntimeWarning on the way and no metrics written."""
    cfg = _write_config(tmp_path, "train.learning_rate = 1e300\n")
    out = str(tmp_path / "run")
    assert run(["train", "--synthetic", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "metrics.txt"))


# ---------------------------------------------------------------------------
# eval


def _small_config():
    return net.ModelConfig(num_classes=3, k_geo=2, k_geom=2,
                           block_channels=(8, 8, 8), region_sizes=(3, 4, 5),
                           t_schedule=(40, 34, 28))


def _synthetic_root(tmp_path, per_class, seed=0):
    spec = SyntheticSpec(samples_per_class=per_class, face_band=(80, 140),
                         jitter=0.02, seed=seed)
    ds = generate_synthetic(spec)
    root = str(tmp_path / "data")
    write_dataset(ds, root, split="train")
    return ds, root


def test_eval_untrained_near_chance(tmp_path, capsys):
    config = _small_config()
    ds, root = _synthetic_root(tmp_path, per_class=10)
    ckpt_path = str(tmp_path / "init.ckpt")
    save_checkpoint(ckpt_path, net.init_params(config, np.random.default_rng(0)),
                    config)
    assert run(["eval", ckpt_path, "--data", root]) == 0
    out = capsys.readouterr().out
    acc = float(out.strip().splitlines()[-1].split()[0].split("=")[1])
    assert abs(acc - 1 / 3) <= 0.15


def test_eval_memorized_is_perfect(tmp_path, capsys):
    config = _small_config()
    ds, root = _synthetic_root(tmp_path, per_class=1)
    pairs = [(s.mesh, s.class_id) for s in ds.samples]
    tc = training.TrainConfig(learning_rate=5e-3, epochs=40, batch_size=3)
    result = training.train(pairs, pairs, config, tc, stop_at_test_acc=1.0)
    assert result.best_test_acc == 1.0
    ckpt_path = str(tmp_path / "best.ckpt")
    save_checkpoint(ckpt_path, result.best_params, config)
    assert run(["eval", ckpt_path, "--data", root, "--split", "train"]) == 0
    out = capsys.readouterr().out
    assert "overall_acc=1.0000" in out
    for name in ds.class_names:
        assert f"class={name} acc=1.0000" in out


def test_eval_empty_split_and_class_mismatch(tmp_path, capsys):
    config = _small_config()
    _, root = _synthetic_root(tmp_path, per_class=1)
    ckpt_path = str(tmp_path / "init.ckpt")
    save_checkpoint(ckpt_path, net.init_params(config), config)
    assert run(["eval", ckpt_path, "--data", root, "--split", "test"]) == 2
    assert "no samples in split" in capsys.readouterr().err
    wrong = net.ModelConfig(num_classes=4, k_geo=2, k_geom=2,
                            block_channels=(8, 8, 8), region_sizes=(3, 4, 5),
                            t_schedule=(40, 34, 28))
    ckpt4 = str(tmp_path / "four.ckpt")
    save_checkpoint(ckpt4, net.init_params(wrong), wrong)
    assert run(["eval", ckpt4, "--data", root]) == 2
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_eval_malformed_checkpoint_exit_2(tmp_path, capsys, defect):
    _, root = _synthetic_root(tmp_path, per_class=1)
    ckpt_path = str(tmp_path / "bad.ckpt")
    write_malformed(ckpt_path, defect)
    assert run(["eval", ckpt_path, "--data", root]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(DEFECTS[defect], err)
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_huge_checkpoint_weights_exit_1(tmp_path, capsys):
    """Finite weights whose features overflow the pooling saliency: the
    logits stay finite, so only the saliency check catches them."""
    config = _small_config()
    _, root = _synthetic_root(tmp_path, per_class=1)
    params = net.init_params(config)
    params.conv_layers[0].w0 *= 1e200
    ckpt_path = str(tmp_path / "huge.ckpt")
    save_checkpoint(ckpt_path, params, config)
    assert run(["eval", ckpt_path, "--data", root]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not finite" in captured.err
    assert "Traceback" not in captured.err and "overall_acc" not in captured.out


# ---------------------------------------------------------------------------
# bench and gradcheck


def test_bench_small_run(tmp_path, capsys):
    report_path = str(tmp_path / "bench.csv")
    assert run(["bench", "--faces", "95", "--passes", "2", "--batch", "2",
                "--report", report_path]) == 0
    out = capsys.readouterr().out
    for phase in ("descriptor", "conv", "pool"):
        assert phase in out
    csv = open(report_path).read()
    assert csv.count("\n") >= 2 and "," in csv


def test_bench_batch_zero_error(capsys):
    assert run(["bench", "--batch", "0"]) == 2
    assert ">= 1" in capsys.readouterr().err


HUGE = "1" + "0" * 400   # beyond float range: int(HUGE * 0.85) overflows


@pytest.mark.parametrize("argv, message", [
    (["bench", "--faces", HUGE], "argument --faces: must be <= 1000000"),
    (["gradcheck", "--faces", HUGE], "argument --faces: must be <= 1000000"),
    (["bench", "--faces", "1000001"], "argument --faces: must be <= 1000000, got 1000001"),
    (["gradcheck", "--faces", "0"], "argument --faces: must be >= 1, got 0"),
    (["bench", "--faces", "many"], "argument --faces: invalid face_count value: 'many'"),
    (["bench", "--batch", "3000001"],
     "3 classes x 1000001 samples exceeds 1000000 synthetic samples"),
    (["bench", "--batch", HUGE], "exceeds 1000000 synthetic samples"),
], ids=["bench_faces_huge", "gradcheck_faces_huge", "bench_faces_above_bound",
        "gradcheck_faces_zero", "bench_faces_not_int", "bench_batch_above_bound",
        "bench_batch_huge"])
def test_bench_and_gradcheck_sizes_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the sizes were checked")

    monkeypatch.setattr(cli.benchmod, "generate_synthetic", no_data)
    monkeypatch.setattr(cli, "generate_synthetic", no_data)
    if argv[0] == "bench":
        argv = argv + ["--report", str(tmp_path / "bench.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "bench.csv")


def test_gradcheck_default_pass(capsys):
    assert run(["gradcheck", "--faces", "40"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "group=" in out


def test_gradcheck_linear_tight(capsys):
    assert run(["gradcheck", "--faces", "20", "--linear",
                "--tolerance", "1e-6"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_corrupt_fails(capsys, monkeypatch):
    corrupt_conv_gradients(monkeypatch)
    assert run(["gradcheck", "--faces", "40"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_gradcheck_tolerance_not_finite_positive_exit_2(capsys, monkeypatch, value):
    # each of these made a correct gradient FAIL with exit 1
    def no_check(*args, **kwargs):
        raise AssertionError("gradient check run with an invalid tolerance")

    monkeypatch.setattr(cli.net, "grad_check", no_check)
    assert run(["gradcheck", "--faces", "20", "--tolerance", value]) == 2
    captured = capsys.readouterr()
    assert f"argument --tolerance: must be finite and > 0, got {value}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# mutated inputs: each either passes or exits 2 with a message


class _DataRequested(Exception):
    """Raised in place of generating data: the config passed every check."""


def _run_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, err.getvalue()


def test_train_num_classes_below_dataset_exit_2(tmp_path, capsys):
    _, root = _synthetic_root(tmp_path, per_class=3)
    cfg = _write_config(tmp_path, "num_classes = 2\n")
    out = str(tmp_path / "run")
    assert run(["train", "--data", root, "--per-class-train", "2", "--config", cfg,
                "--out", out]) == 2
    assert "num_classes = 2 but the data has 3 classes" in capsys.readouterr().err
    assert not os.path.exists(out)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_train_mutated_config_exit_2_before_data(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("cfg")
    cfg = _write_config(root)
    with open(cfg, "rb") as fh:
        text = mutate_bytes(fh.read(), data.draw)
    with open(cfg, "wb") as fh:
        fh.write(text)
    out = str(root / "run")

    def no_data(spec):
        raise _DataRequested

    with mock.patch.object(cli, "generate_synthetic", no_data):
        try:
            code, err = _run_captured(["train", "--synthetic", "--config", cfg,
                                       "--out", out])
        except _DataRequested:
            return
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A one-mesh-per-class dataset and the bytes of a matching checkpoint."""
    tmp = tmp_path_factory.mktemp("eval")
    _, root = _synthetic_root(tmp, per_class=1)
    path = str(tmp / "good.ckpt")
    config = _small_config()
    save_checkpoint(path, net.init_params(config), config)
    with open(path, "rb") as fh:
        return root, fh.read()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_mutated_checkpoint_exit_0_or_2(eval_inputs, tmp_path_factory, data):
    """Exit 0, or 1 (non-finite values) or 2 (rejected checkpoint) with a
    one-line error."""
    root, good = eval_inputs
    path = str(tmp_path_factory.mktemp("ckpt") / "m.ckpt")
    with open(path, "wb") as fh:
        fh.write(mutate_bytes(good, data.draw, data.draw(st.sampled_from([64, 400, None]))))
    code, err = _run_captured(["eval", path, "--data", root])
    assert code == 0 or (code in (1, 2) and err.startswith("error: ")), err


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_info_mutated_mesh_exit_0_or_2(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("off") / "m.off")
    save_off(tetrahedron(), path)
    with open(path, "rb") as fh:
        text = mutate_bytes(fh.read(), data.draw)
    with open(path, "wb") as fh:
        fh.write(text)
    code, err = _run_captured(["info", path])
    assert code == 0 or (code == 2 and err.startswith("error: ")), err
