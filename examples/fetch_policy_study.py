#!/usr/bin/env python3
"""Reproduce a slice of the paper's fetch-policy experiment (Figs. 3-4).

Runs three of the paper's benchmarks under True Round Robin, Masked
Round Robin, and Conditional Switch with four threads, next to the
single-threaded base case, and prints the cycle counts the way the
figures report them.

Run with: ``python examples/fetch_policy_study.py``
(the three cycle-accurate runs per benchmark take ~tens of seconds).
"""

from repro.harness import Runner, experiment_results, series_table
from repro.workloads import BY_NAME


def main():
    workloads = [BY_NAME["LL1"], BY_NAME["LL5"], BY_NAME["Water"]]
    runner = Runner(quiet=False)
    print("running fetch-policy study (4 threads + base case)...")
    runs = experiment_results(runner, "fetch", workloads, threads=(4,))
    series = {policy: {name: result.cycles for name, result in row.items()}
              for policy, row in runs.items()}
    print()
    print(series_table("Cycles by fetch policy (cf. paper Figs. 3-4)",
                       series, benchmarks=[w.name for w in workloads]))
    print()
    for name in (w.name for w in workloads):
        true_rr = series["TrueRR"][name]
        base = series["BaseCase"][name]
        print(f"{name:8s} TrueRR speedup over base: {base / true_rr - 1:+.1%}")
    print("\nAs in the paper: the three policies perform comparably, and "
          "True Round Robin is the simplest to implement.")


if __name__ == "__main__":
    main()
