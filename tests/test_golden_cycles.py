"""Golden cycle-count equivalence guard.

``tests/data/golden_cycles.json`` records exact cycle counts (plus
commit/squash/mispredict totals and the workload checksum) produced by
the original straight-line engine for a small matrix spanning fetch
policies, commit policies, 1 vs 4 threads, and data/instruction cache
variations. The optimized engine — incremental scheduling-unit indexes
and the idle-cycle fast-forward — must reproduce every number
bit-identically, with fast-forward enabled *and* disabled. Any diff here
means a timing-model change: either fix it, or (if intentional)
regenerate the fixture and bump ``repro.core.pipeline.ENGINE_VERSION``.
"""

import json
import pathlib

import pytest

from repro.core import MachineConfig, PipelineSim
from repro.core.config import FU_LATENCY
from repro.isa.opcodes import FuClass
from repro.mem.cache import CacheConfig
from repro.workloads import by_name

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_cycles.json"
GOLDEN = json.loads(FIXTURE.read_text())

#: label -> MachineConfig overrides; must match how the fixture was
#: generated (see the module docstring for the regeneration procedure).
CASES = {
    "LL2-1t-default": dict(nthreads=1),
    "LL2-4t-maskedrr": dict(nthreads=4, fetch_policy="masked_rr"),
    "LL7-4t-cswitch-lowest": dict(nthreads=4, fetch_policy="cond_switch",
                                  commit_policy="lowest_only"),
    "Sieve-4t-icount": dict(nthreads=4, fetch_policy="icount"),
    "MPD-4t-icache": dict(nthreads=4, icache=CacheConfig(
        size_bytes=1024, assoc=2, ports=1)),
    "Water-1t-lowest-nobypass": dict(nthreads=1, commit_policy="lowest_only",
                                     bypassing=False),
    "LL1-4t-smalldirect": dict(nthreads=4, cache=CacheConfig(
        size_bytes=256, assoc=1)),
    "LL3-2t-su32-norename": dict(nthreads=2, su_entries=32, renaming=False),
    # Stall-heavy points for the generalized (next-event) fast-forward:
    # a divide-dominated run exercises the fu-latency skip path, a
    # thrashing direct-mapped cache with a long penalty the dcache-miss
    # and commit-wait paths. Both must be bit-identical ff-on vs ff-off.
    "Water-2t-divheavy": dict(nthreads=2, fu_latency={
        **FU_LATENCY, FuClass.FPDIV: 40, FuClass.IDIV: 40}),
    "LL2-2t-missheavy": dict(nthreads=2, cache=CacheConfig(
        size_bytes=128, line_words=4, assoc=1, miss_penalty=96)),
    # Masked round-robin with long misses: a writeback that finishes the
    # bottom block lifts the thread's mask only in the next cycle's
    # commit stage, so the fast-forward must not skip that cycle.
    "LL2-1t-maskedrr-missheavy": dict(
        nthreads=1, fetch_policy="masked_rr", bypassing=False,
        cache=CacheConfig(size_bytes=128, line_words=4, assoc=1,
                          miss_penalty=96)),
}


def test_fixture_and_cases_agree():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["ff-on", "ff-off"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_cycles(label, fast_forward):
    golden = GOLDEN[label]
    workload = by_name(golden["workload"])
    config = MachineConfig(fast_forward=fast_forward, **CASES[label])
    sim = PipelineSim(workload.program(config.nthreads), config)
    stats = sim.run()
    assert stats.cycles == golden["cycles"]
    assert stats.committed == golden["committed"]
    assert stats.squashed == golden["squashed"]
    assert stats.mispredicts == golden["mispredicts"]
    checksum = sim.mem(workload.checksum_address(config.nthreads))
    assert checksum == pytest.approx(golden["checksum"], rel=1e-12)
