"""Command-line entry point.

Exit codes: 0 success, 1 computational failure (failed gradient check,
pooling stall under --strict, non-finite values), 2 usage or I/O error.
Config files are flat ``key=value`` lines with ``#`` comments; unknown
and repeated keys are rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import bench as benchmod
from . import checkpoint as ckpt
from . import descriptors as desc
from . import network as net
from . import pooling as poolmod
from . import training
from .core import (MeshError, NumericalError, build_adjacency,
                   compute_geometry, euler_characteristic, load_mesh,
                   normalize_mesh, save_off, validate_mesh)
from .data import (Dataset, SyntheticSpec, generate_synthetic, load_dataset,
                   make_splits)
from .descriptors import descriptor_forward, init_descriptor_params

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

_MODEL_KEYS = {f.name: f for f in dataclasses.fields(net.ModelConfig)}
_TRAIN_KEYS = {f.name: f for f in dataclasses.fields(training.TrainConfig)}
_SYNTH_KEYS = {f.name: f for f in dataclasses.fields(SyntheticSpec)}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path) as fh:
        for n, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{n}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise ValueError(f"{path}:{n}: key {key!r} repeats line {first_line[key]}")
            values[key], first_line[key] = val, n
    return values


def _coerce(field: dataclasses.Field, raw: str):
    t = str(field.type)
    try:
        if "tuple" in t:
            parts = tuple(raw.replace(",", " ").split())
            return tuple(int(p) for p in parts) if "int" in t else parts
        if "bool" in t:
            return _BOOL_WORDS[raw.lower()]
        if "int" in t:
            return int(raw)
        if "float" in t:
            return float(raw)
        return raw
    except (KeyError, ValueError):
        raise ValueError(f"config value {field.name} = {raw!r} is not "
                         f"a {t}") from None


def build_configs(values: dict[str, str]):
    model_kw, train_kw, synth_kw = {}, {}, {}
    for key, raw in values.items():
        if key in _MODEL_KEYS:
            model_kw[key] = _coerce(_MODEL_KEYS[key], raw)
        elif key.startswith("train.") and key[6:] in _TRAIN_KEYS:
            train_kw[key[6:]] = _coerce(_TRAIN_KEYS[key[6:]], raw)
        elif key.startswith("synthetic.") and key[10:] in _SYNTH_KEYS:
            synth_kw[key[10:]] = _coerce(_SYNTH_KEYS[key[10:]], raw)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return model_kw, train_kw, synth_kw


def cmd_info(args) -> int:
    mesh = load_mesh(args.mesh)
    report = validate_mesh(mesh)
    chi = euler_characteristic(mesh)
    print(f"V={mesh.num_vertices} E={mesh.num_vertices + mesh.num_faces - chi} "
          f"F={mesh.num_faces} chi={chi} borders={report.border_edges} "
          f"manifold={'yes' if report.manifold else 'no'} "
          f"oriented={'yes' if report.oriented else 'no'} "
          f"degenerate={len(report.degenerate_faces)}")
    return EXIT_OK


def cmd_pool(args) -> int:
    mesh = load_mesh(args.mesh)
    report = validate_mesh(mesh)
    if not report.ok:
        raise MeshError("input mesh fails validation; see `info`")
    adj = build_adjacency(mesh)
    if args.weights == "uniform":
        feats = np.zeros((mesh.num_faces, 1))
    else:
        geo = compute_geometry(mesh)
        params = init_descriptor_params(4, 4, np.random.default_rng(args.seed))
        feats = descriptor_forward(desc.compute_geodesic_terms(mesh, adj, geo),
                                   desc.compute_geometric_terms(mesh, adj, geo), params)
    t0 = time.perf_counter()
    pooled = poolmod.pool_to_target(mesh, adj, feats, args.target)
    dt = time.perf_counter() - t0
    save_off(pooled.mesh, args.output)
    fracs = [(rec.old_num_faces - len(rec.provenance)) / rec.old_num_faces
             for rec in pooled.passes]
    print(f"passes={pooled.pass_count} faces_before={mesh.num_faces} "
          f"faces_after={pooled.mesh.num_faces} "
          f"removal_fractions={','.join('%.3f' % f for f in fracs) or 'none'} "
          f"seconds={dt:.3f}" + (" stalled=yes" if pooled.stalled else ""))
    if pooled.stalled:
        print(f"stall: achieved {pooled.mesh.num_faces} faces "
              f"(target {args.target})", file=sys.stderr)
        if args.strict:
            return EXIT_FAIL
    return EXIT_OK


def _load_train_test(args, synth_kw, num_classes):
    """Train and test splits. A configured ``num_classes`` must cover the
    classes of the data, checked before any mesh is generated."""
    def check_classes(found: int) -> None:
        if num_classes is not None and num_classes < found:
            raise ValueError(f"num_classes = {num_classes} but the data has {found} classes")

    if args.synthetic:
        spec = SyntheticSpec(**synth_kw)
        check_classes(len(spec.classes))
        per_class_train = (args.per_class_train if args.per_class_train is not None
                           else max(1, int(spec.samples_per_class * 2 / 3)))
        # make_splits' own check, made before any mesh is generated
        if per_class_train + 1 > spec.samples_per_class:
            raise ValueError(
                f"{spec.samples_per_class} synthetic samples per class; "
                f"{per_class_train} train per class needs at least "
                f"{per_class_train + 1}")
        return make_splits(generate_synthetic(spec), per_class_train, seed=spec.seed)
    if not args.data:
        raise MeshError("either --data or --synthetic is required")
    dataset = load_dataset(args.data)
    check_classes(dataset.num_classes)
    tagged = {s.split for s in dataset.samples}
    if args.per_class_train is not None:
        return make_splits(dataset, args.per_class_train, seed=args.seed)
    if "train" in tagged and "test" in tagged:
        tr = [s for s in dataset.samples if s.split == "train"]
        te = [s for s in dataset.samples if s.split == "test"]
        return Dataset(tr, dataset.class_names), Dataset(te, dataset.class_names)
    raise MeshError("dataset has no train/test layout; pass --per-class-train")


def cmd_train(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    model_kw, train_kw, synth_kw = build_configs(values)
    # both configs are checked before any data is generated or loaded
    model_config = net.ModelConfig(**model_kw)
    train_config = training.TrainConfig(**train_kw)
    tr, te = _load_train_test(args, synth_kw, model_kw.get("num_classes"))
    if "num_classes" not in model_kw:
        model_config = dataclasses.replace(model_config, num_classes=tr.num_classes)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.txt")
    ckpt_path = os.path.join(args.out, "best.ckpt")
    lines = []

    def progress(em):
        lines.append(em.line())
        print(em.line())

    result = training.train(tr.pairs(), te.pairs(), model_config, train_config,
                            progress=progress)
    with open(metrics_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    ckpt.save_checkpoint(ckpt_path, result.best_params, model_config)
    print(f"best_test_acc={result.best_test_acc:.4f} epoch={result.best_epoch} "
          f"checkpoint={ckpt_path} metrics={metrics_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, config = ckpt.load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    if dataset.num_classes != config.num_classes:
        raise ckpt.CheckpointError(
            f"checkpoint expects {config.num_classes} classes, "
            f"dataset has {dataset.num_classes}")
    samples = [s for s in dataset.samples if args.split in (None, s.split)]
    if not samples:
        raise MeshError(f"no samples in split {args.split!r}")
    prepared = training.prepare([(s.mesh, s.class_id) for s in samples], config)
    hits = training.evaluate(prepared, params, config)
    for cid, name in enumerate(dataset.class_names):
        if class_hits := [h for s, h in zip(samples, hits) if s.class_id == cid]:
            print(f"class={name} acc={np.mean(class_hits):.4f} n={len(class_hits)}")
    print(f"overall_acc={np.mean(hits):.4f} n={len(hits)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    report = benchmod.run_benchmark(
        faces=args.faces, batch_size=args.batch, num_batches=args.passes,
        seed=args.seed)
    for line in report.lines():
        print(line)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.csv())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    lo, hi = max(18, int(args.faces * 0.8)), max(24, int(args.faces * 1.2))
    spec = SyntheticSpec(classes=("torus",), samples_per_class=1,
                         face_band=(lo, hi), jitter=0.02, seed=args.seed)
    mesh = normalize_mesh(generate_synthetic(spec).samples[0].mesh)
    t = min(mesh.num_faces - 6, 40)
    config = net.ModelConfig(num_classes=3, k_geo=2, k_geom=2,
                             block_channels=(8, 8, 8), region_sizes=(3, 4, 5),
                             t_schedule=(max(8, t), max(7, t - 6), max(6, t - 12)))
    report = net.grad_check(config, mesh, tolerance=args.tolerance,
                            linear_only=args.linear)
    for group, err in sorted(report["groups"].items()):
        print(f"group={group} max_rel_err={err:.3e} "
              f"{'ok' if err <= report['tolerance'] else 'FAIL'}")
    print(f"max_error={report['max_error']:.3e} tolerance={report['tolerance']:.1e} "
          f"{'PASS' if report['passed'] else 'FAIL'}")
    return EXIT_OK if report["passed"] else EXIT_FAIL


def positive_int(raw: str) -> int:
    if int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {raw}")
    return int(raw)


def tolerance(raw: str) -> float:
    """A finite value > 0; any other makes every gradient check fail."""
    value = float(raw)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {raw}")
    return value


def face_count(raw: str) -> int:
    """At most 10**6, so the face band --faces asks for is within MAX_SYNTHETIC_FACES."""
    if positive_int(raw) > 10**6:
        raise argparse.ArgumentTypeError(f"must be <= {10**6}, got {raw}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="meshlearn")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="print mesh statistics and validity")
    sp.add_argument("mesh")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("pool", help="face-collapse pooling to a target size")
    sp.add_argument("mesh")
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument("--weights", choices=("uniform", "descriptor"),
                    default="uniform")
    sp.add_argument("--output", "-o", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strict", action="store_true",
                    help="treat a pooling stall as failure")
    sp.set_defaults(func=cmd_pool)

    sp = sub.add_parser("train", help="train the classifier")
    sp.add_argument("--config", help="key=value config file")
    sp.add_argument("--data", help="dataset root directory")
    sp.add_argument("--synthetic", action="store_true")
    sp.add_argument("--per-class-train", type=positive_int, dest="per_class_train")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="runs")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    sp.add_argument("checkpoint")
    sp.add_argument("--data", required=True)
    sp.add_argument("--split", default=None)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("bench", help="operator benchmark harness")
    sp.add_argument("--faces", type=face_count, default=500)
    sp.add_argument("--passes", type=int, default=50,
                    help="number of repeated batches")
    sp.add_argument("--batch", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--report", help="also write CSV here")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient check")
    sp.add_argument("--faces", type=face_count, default=60)
    sp.add_argument("--tolerance", type=tolerance, default=1e-3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--linear", action="store_true",
                    help="abs-free configuration (tolerance 1e-6 territory)")
    sp.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (NumericalError, MeshError, ckpt.CheckpointError, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL if isinstance(e, NumericalError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
