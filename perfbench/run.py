"""meshlearn benchmark: train-500, train-nopool and pool-large.

    python3 perfbench/run.py --workload train-500 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a meshlearn checkout; the program is imported from
its ``src/``. Each workload runs in its own single-threaded process. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-500", "train-nopool", "pool-large")
ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process of its own, one after the other."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def import_program():
    """Put the checkout's ``src/`` first on the path and import meshlearn
    from there, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "meshlearn" / "__init__.py").is_file():
        sys.exit(f"error: no meshlearn sources under {src}; "
                 "run from the root of a meshlearn checkout")
    sys.path.insert(0, str(src))
    import meshlearn
    if Path(meshlearn.__file__).resolve().parent != (src / "meshlearn").resolve():
        sys.exit(f"error: meshlearn imported from {meshlearn.__file__}, not {src}")


def run_one(workload: str, seed: int, seconds: float, tracer=None):
    import workloads
    if workload == "pool-large":
        workdir = ROOT / ".perfbench_work" / f"pool-large-{os.getpid()}"
        return workloads.run_pool_large(seed, seconds, str(workdir), tracer)
    return workloads.run_training(seed, seconds, workload == "train-nopool", tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # one thread: BLAS must not start its own pool before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    import workloads
    from tracing import LayerTracer

    tracer = LayerTracer() if args.trace else None
    # a traced run makes every operation twice, so it gets half the time
    run = run_one(args.workload, args.seed,
                  args.seconds / 2 if tracer else args.seconds, tracer)
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = (workloads.trace_overhead_pct(run), "%")
    else:
        metrics = workloads.end_to_end(run)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={run.rounds} attempted={run.attempted} failed={run.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in workloads.extra_lines(run):
        print(line)
    for p in run.problems:
        print(f"CHECK FAILED: {p}")
    for p in run.op_problems:
        print(f"OPERATION FAILED: {p}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
