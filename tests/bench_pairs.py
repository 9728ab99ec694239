"""Alternating parent/change benchmark pairs, with a verdict per metric.

Usage:
    python tests/bench_pairs.py PARENT_TREE CHANGE_TREE --workload NAME
                                [--pairs 10] [--seconds 6] [--seed 1]

Each pair runs ``perfbench/run.py --workload NAME --seed SEED --seconds
SECONDS`` once in each tree, the tree's own harness on its own sources,
the parent first in even pairs and the change first in odd ones, so that
a host that drifts slows both sides alike. A run whose result is not
``correct`` stops the script. Then, for each end-to-end metric of the
change tree's ``BENCHMARK.json``, it prints the parent's median and
quartiles, the change's median, the pairs the change wins and loses, and
the verdict:

- ``gain``: the change is better in at least 9 of 10 pairs, and its
  median differs from the parent's by more than the parent's quartile
  spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound (a fraction of the parent's median);
- ``unresolved``: anything else.

It reads ``perfbench/`` and ``BENCHMARK.json`` and writes nothing but
what the harness writes under each tree's ``.bench_work``. Not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def summary(parent: list[float], change: list[float], better: str) -> dict:
    """The parent's median and quartiles, the change's median, and the
    pairs (``parent[i]``, ``change[i]``) the change wins and loses."""
    sign = 1.0 if better == "lower" else -1.0
    gaps = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    q1, median, q3 = np.percentile(parent, [25, 50, 75]).tolist()
    return {"parent_median": median, "parent_q1": q1, "parent_q3": q3,
            "change_median": float(np.median(change)),
            "wins": sum(g > 0 for g in gaps), "losses": sum(g < 0 for g in gaps)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``gain``, ``regression`` or ``unresolved`` for one metric's pairs;
    ``better`` is ``lower`` or ``higher``, ``bound`` a fraction of the
    parent's median."""
    s = summary(parent, change, better)
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (s["parent_median"] - s["change_median"])
    if gain < -bound * abs(s["parent_median"]):
        return "regression"
    if 10 * s["wins"] >= 9 * len(parent) and gain > s["parent_q3"] - s["parent_q1"]:
        return "gain"
    return "unresolved"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One harness run in ``tree``: its metrics, by name, as values."""
    done = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct"):
        sys.exit(f"{tree}: run not correct (exit {done.returncode})\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed, args.seconds))
        print(f"pair {i + 1}: " + "  ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> "
            f"{runs['change'][-1][m['name']]:.4g}" for m in metrics), flush=True)
    print(f"{args.workload}, {args.pairs} pairs, seed {args.seed}, {args.seconds} s per run")
    print(f"{'metric':<12}{'parent median':>14}{'parent q1-q3':>22}{'change median':>15}"
          f"{'wins':>6}{'losses':>8}  verdict")
    for m in metrics:
        parent = [r[m["name"]] for r in runs["parent"]]
        change = [r[m["name"]] for r in runs["change"]]
        s = summary(parent, change, m["better"])
        quartiles = f"{s['parent_q1']:.4g}-{s['parent_q3']:.4g}"
        print(f"{m['name']:<12}{s['parent_median']:>14.4g}{quartiles:>22}"
              f"{s['change_median']:>15.4g}{s['wins']:>6}{s['losses']:>8}  "
              f"{verdict(parent, change, m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
