"""Stall-attribution tests: exact reconciliation on the golden matrix.

Running the full golden-cycle matrix with attribution attached proves
two things at once: the account sums to ``stats.cycles`` in both
engine modes, and attaching observability does not move a single
simulated cycle (the counts are compared to the same fixture the
uninstrumented engine is pinned against).
"""

import pytest

from repro.core import MachineConfig, PipelineSim
from repro.obs.attribution import CATEGORIES, StallAttribution, \
    format_breakdown
from repro.workloads import by_name
from tests.test_golden_cycles import CASES, GOLDEN


def instrumented_run(label, fast_forward):
    golden = GOLDEN[label]
    workload = by_name(golden["workload"])
    config = MachineConfig(fast_forward=fast_forward, **CASES[label])
    sim = PipelineSim(workload.program(config.nthreads), config)
    attr = sim.attach_attribution()
    stats = sim.run()
    return golden, attr, stats


@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["ff-on", "ff-off"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_attribution_reconciles_on_golden_matrix(label, fast_forward):
    golden, attr, stats = instrumented_run(label, fast_forward)
    # Attaching attribution must not change the timing model.
    assert stats.cycles == golden["cycles"]
    assert stats.committed == golden["committed"]
    # Every cycle charged to exactly one category.
    attr.verify(stats)
    assert attr.total() == stats.cycles
    assert set(attr.counts) == set(CATEGORIES)
    # su-full agrees with the legacy counter exactly.
    assert attr.counts["su-full"] + attr.ff_su_full == stats.su_stall_cycles


def test_ff_modes_agree_where_attribution_is_comparable():
    # The executed-cycle categories are identical across engine modes
    # once fast-forwarded spans are folded back into their causes.
    __, on, stats_on = instrumented_run("LL2-4t-maskedrr", True)
    __, off, stats_off = instrumented_run("LL2-4t-maskedrr", False)
    assert stats_on.cycles == stats_off.cycles
    assert on.total() == off.total()
    # su-full is exactly reconstructible in both modes.
    assert on.counts["su-full"] + on.ff_su_full \
        == off.counts["su-full"] + off.ff_su_full


@pytest.mark.parametrize("label", ["LL2-1t-default", "LL2-4t-maskedrr",
                                   "LL3-2t-su32-norename",
                                   "Water-2t-divheavy", "LL2-2t-missheavy"])
def test_folded_breakdown_equals_slow_path_exactly(label):
    """Per-class attribution of skipped spans is exact, not approximate.

    Folding the ff-on account (``idle-ff`` redistributed over
    ``ff_classes``) must reproduce the ff-off per-cycle account
    bit-for-bit on every category — including the stall-heavy
    fu-latency and dcache-miss cases the next-event fast-forward
    engine now skips through.
    """
    __, on, stats_on = instrumented_run(label, True)
    __, off, stats_off = instrumented_run(label, False)
    assert stats_on.cycles == stats_off.cycles
    assert on.folded() == off.to_dict()


@pytest.mark.parametrize("label", ["Water-2t-divheavy", "LL2-2t-missheavy"])
def test_ff_classes_account_for_every_skipped_cycle(label):
    __, attr, __ = instrumented_run(label, True)
    assert attr.counts["idle-ff"] > 0, \
        "stall-heavy config should fast-forward at least once"
    assert sum(attr.ff_classes.values()) == attr.counts["idle-ff"]


def test_breakdown_lands_on_stats():
    __, attr, stats = instrumented_run("LL2-1t-default", True)
    assert stats.stall_breakdown == attr.to_dict()
    assert sum(stats.stall_breakdown.values()) == stats.cycles
    payload = stats.to_dict()
    assert payload["stall_breakdown"] == stats.stall_breakdown


def test_format_breakdown_renders_all_categories():
    __, attr, stats = instrumented_run("LL2-4t-maskedrr", True)
    text = format_breakdown(attr.to_dict(), stats.cycles)
    assert "cycle attribution" in text
    for key in CATEGORIES:
        assert key in text
    assert "total" in text and str(stats.cycles) in text


def test_verify_raises_on_corrupt_account():
    __, attr, stats = instrumented_run("LL2-1t-default", True)
    attr.counts["commit"] += 1
    with pytest.raises(AssertionError):
        attr.verify(stats)


def test_fresh_attribution_is_empty():
    attr = StallAttribution()
    assert attr.total() == 0
    assert attr.to_dict() == dict.fromkeys(CATEGORIES, 0)


@pytest.mark.parametrize("renaming", [True, False],
                         ids=["rename-on", "rename-off"])
@pytest.mark.parametrize("workload,nthreads", [("LL1", 1), ("LL5", 1),
                                               ("Water", 2)])
def test_stall_event_reasons_match_ff_classes(workload, nthreads, renaming):
    """A skip's ``StallEvent.reason`` is the class attribution charges.

    Event sinks and the attribution layer classify every fast-forwarded
    span with one rule, so the skipped cycles summed by event reason
    equal ``ff_classes`` exactly — with renaming off too, where spans
    waiting on a scoreboard hazard or on a store-buffer refill are easy
    to mislabel.
    """
    config = MachineConfig(nthreads=nthreads, renaming=renaming)
    sim = PipelineSim(by_name(workload).program(nthreads), config)
    attr = sim.attach_attribution()
    by_reason = {}

    def sink(event):
        if event.kind == "stall":
            by_reason[event.reason] = (by_reason.get(event.reason, 0)
                                       + event.span)

    sim.add_sink(sink)
    sim.run()
    assert by_reason, "expected at least one fast-forwarded span"
    assert by_reason == {key: cycles
                         for key, cycles in attr.ff_classes.items() if cycles}
