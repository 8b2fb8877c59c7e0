#!/usr/bin/env python3
"""Same-session A/B of the working tree against a git ref.

Usage, from the repository root::

    python3 bench/ab.py --ref REF [--pairs 10]

Checks REF out with ``git worktree`` into a temporary directory and runs
this tree's bench/run.py on both sides, for every workload in
BENCHMARK.json and for its ``run_seconds``, the run length the bounds
were measured at; each side imports and launches its own ``src``. Pair
*i* uses seed *i* on both sides, and the side that goes first
alternates from pair to pair. For each workload and
end-to-end metric it prints both sides' median and quartiles, the
fraction of pairs the working tree won (ties count for neither), and a
verdict against the metric's bound in BENCHMARK.json:

``better``
    won at least nine tenths of the pairs, and the median is better
    than the reference's by more than the spread between the
    reference's own runs;
``worse``
    the median is worse than the reference's by more than the bound;
``unresolved``
    a side's spread (quartile distance over median) exceeds the bound,
    unless every run of the working tree beat every run of the ref;
``same``
    otherwise.
"""

import argparse
import collections
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent


def run_side(root, workload, seed, seconds):
    """One untraced benchmark run in checkout ``root``; its metrics."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"ab: {workload} (seed {seed}) failed in {root}:\n"
                         f"{proc.stderr[-2000:]}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(ref, cur, bound, lower_is_better):
    """Compare paired samples of one metric; returns (wins, verdict)."""
    sign = -1 if lower_is_better else 1
    better = [sign * (c - r) > 0 for r, c in zip(ref, cur)]
    wins = sum(better) / len(better)
    ref_med, cur_med = statistics.median(ref), statistics.median(cur)
    ref_q1, ref_q3 = quartiles(ref)
    cur_q1, cur_q3 = quartiles(cur)
    worse_by = sign * (ref_med - cur_med) / ref_med
    spread = max((ref_q3 - ref_q1) / ref_med, (cur_q3 - cur_q1) / cur_med)
    if spread > bound:
        dominates = (max(cur) < min(ref) if lower_is_better
                     else min(cur) > max(ref))
        return wins, "better" if dominates else "unresolved"
    if worse_by > bound:
        return wins, "worse"
    if wins >= 0.9 and sign * (cur_med - ref_med) > ref_q3 - ref_q1:
        return wins, "better"
    return wins, "same"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    samples = collections.defaultdict(list)     # (workload, side) -> runs
    with tempfile.TemporaryDirectory() as tmp:
        ref_root = Path(tmp) / "ref"
        subprocess.run(["git", "worktree", "add", "--detach", str(ref_root),
                        args.ref], cwd=REPO, check=True, capture_output=True)
        try:
            for pair in range(args.pairs):
                sides = [("ref", ref_root), ("cur", REPO)]
                if pair % 2:
                    sides.reverse()
                for workload in workloads:
                    for side, root in sides:
                        samples[(workload, side)].append(
                            run_side(root, workload, pair,
                                     spec["run_seconds"]))
                print(f"ab: pair {pair + 1}/{args.pairs} done",
                      file=sys.stderr)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(ref_root)], cwd=REPO, capture_output=True)
    print(f"{'workload':14s} {'metric':16s} {'ref median [q1, q3]':>32s} "
          f"{'cur median [q1, q3]':>32s} {'wins':>5s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ref = [run[name] for run in samples[(workload, "ref")]]
            cur = [run[name] for run in samples[(workload, "cur")]]
            wins, result = verdict(ref, cur, metric["bound"],
                                   metric["better"] == "lower")
            cells = []
            for values in (ref, cur):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.4g} "
                             f"[{q1:.4g}, {q3:.4g}]")
            print(f"{workload:14s} {name:16s} {cells[0]:>32s} "
                  f"{cells[1]:>32s} {wins:5.2f}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
