"""Pair comparison of two commits on the benchmark.

    python3 perfbench/compare.py BASE HEAD [--pairs 10]

Both commits are exported with ``git archive`` under ``.perfbench/`` and
given this checkout's ``perfbench/`` and ``BENCHMARK.json``, so the
benchmark code and settings are identical on both sides. Pair *i* runs
both sides on every workload with held-out seed 1000 + *i*, alternating
which side runs first. Per workload and end-to-end metric it prints each
side's median and quartiles, how many pairs HEAD won, and a verdict:

- ``failed``: HEAD failed more operations than BASE on the workload, so
  none of its figures counts as a gain or as within bound;
- ``gain``: HEAD wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than BASE's interquartile range;
- ``unresolved``: BASE's interquartile range is wider than the metric's
  bound, and neither side beat every run of the other;
- ``regression``: HEAD's median is worse than BASE's by more than the bound;
- ``worse, within bound``: BASE wins nine tenths of the pairs by more than
  its interquartile range, but by less than the bound;
- ``within bound`` otherwise.

It exits 1 when any metric is ``failed`` or a ``regression``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seeds no tuning of the benchmark used
HELD_OUT_SEED = 1000


def export(commit: str) -> Path:
    sha = subprocess.run(["git", "rev-parse", "--verify", commit + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    tree = ROOT / ".perfbench" / sha[:12]
    if not tree.exists():
        tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tree, filter="data")
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: outputs incorrect")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    q1, med_b, q3 = quartiles(base)
    gain = sign * (statistics.median(head) - med_b)   # > 0: HEAD is better
    limit = bound * abs(med_b)
    separated = (all(sign * (h - b) > 0 for h in head for b in base)
                 or all(sign * (h - b) < 0 for h in head for b in base))
    if wins >= 0.9 * len(base) and gain > q3 - q1:
        return "gain", wins
    if q3 - q1 > limit and not separated:
        return "unresolved", wins
    if -gain > limit:
        return "regression", wins
    if losses >= 0.9 * len(base) and -gain > q3 - q1:
        return "worse, within bound", wins
    return "within bound", wins


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/compare.py")
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("at least ten pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"base": export(args.base), "head": export(args.head)}
    values = {(side, w): [] for side in sides for w in workloads}
    failed = {(side, w): [] for side in sides for w in workloads}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            for side in order:
                r = run_once(sides[side], spec["command"], w, HELD_OUT_SEED + i,
                             spec["run_seconds"])
                values[side, w].append(r["metrics"])
                failed[side, w].append((r["failed"], r["attempted"]))
                print(f"pair {i} {side} {w} done", file=sys.stderr, flush=True)

    worst = 0
    print(f"base={args.base} ({sides['base'].name}) head={args.head} "
          f"({sides['head'].name}) pairs={args.pairs}")
    for w in workloads:
        n_failed = {}
        for side in sides:
            n_failed[side] = sum(x for x, _ in failed[side, w])
            a = sum(y for _, y in failed[side, w])
            print(f"{w} {side} failed={n_failed[side]}/{a}")
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [r[name]["value"] for r in values["base", w]]
            head = [r[name]["value"] for r in values["head", w]]
            label, wins = verdict(base, head, m["better"], m["bound"])
            if n_failed["head"] > n_failed["base"]:
                label = "failed"
            if label in ("failed", "regression"):
                worst = 1
            qb, qh = quartiles(base), quartiles(head)
            print(f"{w} {name} [{m['unit']}] "
                  f"base {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
                  f"head {qh[1]:.6g} [{qh[0]:.6g}, {qh[2]:.6g}] "
                  f"head_wins={wins}/{args.pairs} bound={m['bound']} -> {label}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
