"""Ablations beyond the paper (DESIGN.md Section 6).

* Commit-window depth sweep (the paper fixes 4): 1 -> 2 -> 4 -> 8.
* Shared vs per-thread branch predictor/BTB (the paper shares one).
* Store-buffer depth sweep around the paper's 8 entries.
"""

from benchmarks.conftest import record
from repro.harness import experiment_cycles, format_table


def _totals(runner, name, key=str):
    """Total cycles over the ablation's workloads, per ``key(column)``."""
    return {key(label): sum(cycles.values())
            for label, cycles in experiment_cycles(runner, name).items()}


def test_ablation_commit_window_depth(benchmark, runner):
    totals = benchmark.pedantic(
        lambda: _totals(runner, "commit_depth", int), rounds=1, iterations=1)
    rows = [[f"window {d}", totals[d]] for d in sorted(totals)]
    print()
    print(format_table("Ablation: flexible-commit window depth "
                       "(total cycles, 4 workloads)", ["config", "cycles"],
                       rows))
    record("ablation_commit_depth", {str(k): v for k, v in totals.items()})

    # Deeper windows monotonically help (or at worst tie); the paper's
    # choice of 4 captures nearly all of the benefit of 8.
    assert totals[2] <= totals[1]
    assert totals[4] <= totals[2]
    assert totals[8] <= totals[4] * 1.01
    gain_1_to_4 = totals[1] - totals[4]
    gain_4_to_8 = totals[4] - totals[8]
    assert gain_4_to_8 <= gain_1_to_4


def test_ablation_shared_vs_private_predictor(benchmark, runner):
    totals = benchmark.pedantic(lambda: _totals(runner, "predictor"),
                                rounds=1, iterations=1)
    shared, private = totals["shared"], totals["private"]
    print()
    print(format_table("Ablation: shared vs per-thread predictor/BTB",
                       ["config", "cycles"],
                       [["shared", shared], ["per-thread", private]]))
    record("ablation_predictor", {"shared": shared, "private": private})

    # The paper's observation: sharing one history across threads that
    # execute the same code costs little (they report >80% accuracy with
    # a single shared table). Homogeneous threads may even help each
    # other train the counters.
    assert abs(shared - private) / private < 0.10


def test_ablation_store_buffer_depth(benchmark, runner):
    totals = benchmark.pedantic(
        lambda: _totals(runner, "store_buffer", int), rounds=1, iterations=1)
    rows = [[f"{d} entries", totals[d]] for d in sorted(totals)]
    print()
    print(format_table("Ablation: store-buffer depth", ["config", "cycles"],
                       rows))
    record("ablation_store_buffer", {str(k): v for k, v in totals.items()})

    # More buffering never hurts, and the paper's 8 entries already
    # capture almost all of the benefit of 16.
    assert totals[8] <= totals[4] * 1.005
    assert totals[16] <= totals[8] * 1.005
    assert (totals[8] - totals[16]) <= (totals[4] - totals[8]) + 50


def test_ablation_cache_ports(benchmark, runner):
    """Paper improvement #1: 'employ more cache ports'."""
    totals = benchmark.pedantic(
        lambda: _totals(runner, "cache_ports", int), rounds=1, iterations=1)
    rows = [[f"{p} port(s)", totals[p]] for p in sorted(totals)]
    print()
    print(format_table("Ablation: cache ports (paper improvement #1)",
                       ["config", "cycles"], rows))
    record("ablation_cache_ports", {str(k): v for k, v in totals.items()})

    # More ports never hurt; a single port costs something because loads
    # then contend with the store-buffer drain.
    assert totals[2] <= totals[1]
    assert totals[4] <= totals[2] * 1.005


def test_ablation_masked_rr_criterion(benchmark, runner):
    """Masking criterion variants for Masked RR (DESIGN.md Section 6)."""
    totals = benchmark.pedantic(lambda: _totals(runner, "masked_criterion"),
                                rounds=1, iterations=1)
    rows = [[k, v] for k, v in sorted(totals.items())]
    print()
    print(format_table("Ablation: Masked-RR masking criterion",
                       ["criterion", "cycles"], rows))
    record("ablation_masked_criterion", totals)

    # Both criteria complete and land in the same ballpark; the paper
    # notes commit-stall masking can fire on short-latency ops too, so
    # neither criterion dominates universally.
    ratio = totals["long_latency"] / totals["commit_stall"]
    assert 0.85 <= ratio <= 1.15


def test_ablation_instruction_cache(benchmark, runner):
    """The paper assumes a perfect I-cache; quantify that assumption."""
    totals = benchmark.pedantic(lambda: _totals(runner, "icache"),
                                rounds=1, iterations=1)
    rows = [[k, v] for k, v in totals.items()]
    print()
    print(format_table("Ablation: instruction cache (paper assumes perfect)",
                       ["config", "cycles"], rows))
    record("ablation_icache", totals)

    # A real I-cache costs something; a bigger one costs less; loops
    # make the overall penalty modest, which justifies the paper's
    # perfect-I-cache assumption.
    assert totals["perfect"] <= totals["2048B"] <= totals["512B"]
    assert totals["512B"] <= totals["perfect"] * 1.5
