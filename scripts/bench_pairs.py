#!/usr/bin/env python3
"""Compare two source checkouts on one benchmark workload in alternating pairs.

    python scripts/bench_pairs.py PARENT CHANGE --workload deep_multi \\
        --pairs 10 --seconds 25 --seed 701

Pair ``k`` runs ``perfbench/run.py --trace 0`` once in each checkout, both
with seed ``--seed + k`` and the same run length; the parent runs first in
even pairs and the change in odd ones, so that a drift of the host's speed
falls on both sides alike.  The benchmark is run as each checkout has it,
from inside that checkout.

For every end-to-end metric the report gives each side's median and
quartiles over its runs, the pairs the change won (a tie counts for
neither side), and the ratio of the change's median to the parent's.  A
gain holds when the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.  Whether
lower or higher is better comes from ``BENCHMARK.json`` in the parent
checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one benchmark run's output: its JSON summary."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Medians, quartiles, wins and the gain rule for one metric's paired runs."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "wins": wins,
        "ratio": cm / pm if pm else float("nan"),
        "gain": wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1
        and ((cm < pm) if lower_is_better else (cm > pm)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True, help="run length of each run")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = ap.parse_args()

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(out)
            print("pair %d seed %d %-6s run_s %.6g correct %s failed %d/%d" % (
                k, seed, side, out["metrics"]["run_s"]["value"], out["correct"],
                out["failed"], out["attempted"]), flush=True)

    print("%s: %d pairs, %g s runs, seeds %d-%d; median [q1, q3]" % (
        args.workload, args.pairs, args.seconds, args.seed, args.seed + args.pairs - 1))
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        c = compare(values["parent"], values["change"], direction == "lower")
        print("  %-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  wins %d/%d  ratio %.4f%s" % (
            name, *c["parent"], *c["change"], c["wins"], args.pairs, c["ratio"],
            "  gain" if c["gain"] else ""))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
