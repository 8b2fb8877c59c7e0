"""Differential testing: the pipeline simulator's architectural results
must equal the functional simulator's on randomized programs across
randomized machine configurations.

This is the primary correctness oracle for renaming, speculation,
selective squash, store buffering, flexible commit, and the fetch
policies. Multithreaded generated programs keep their memory regions
thread-private so the oracle's interleaving is irrelevant.
"""

import random

import pytest

from repro.asm import assemble
from repro.core import CommitPolicy, FetchPolicy, MachineConfig, PipelineSim
from repro.core.pipeline import SimulationHang
from repro.funcsim import FunctionalSim
from repro.mem.cache import CacheConfig
from repro.workloads import by_name

NREGS = 16
_BODY_OPS = ["add", "sub", "and", "or", "xor", "slt", "sltu", "mul",
             "sll", "srl", "sra", "rem"]
_FLOAT_OPS = ["fadd", "fsub", "fmul", "fdiv"]
_BRANCHES = ["beq", "bne", "blt", "bge"]


def random_program(rng):
    """A random terminating program with thread-private memory."""
    lines = ["        .data", "arr:    .space 256", "        .text"]
    for reg in range(4, NREGS):
        lines.append(f"li r{reg}, {rng.randint(-100, 100)}")
    lines += ["la r3, arr", "mftid r4", "slli r4, r4, 5", "add r3, r3, r4"]
    label_count = 0
    for _ in range(rng.randint(10, 40)):
        kind = rng.random()
        rd = rng.randint(4, NREGS - 1)
        a = rng.randint(4, NREGS - 1)
        b = rng.randint(4, NREGS - 1)
        if kind < 0.35:
            lines.append(f"{rng.choice(_BODY_OPS)} r{rd}, r{a}, r{b}")
        elif kind < 0.45:
            lines.append(f"addi r{rd}, r{a}, {rng.randint(-50, 50)}")
        elif kind < 0.50:
            lines.append(f"cvtif r{rd}, r{a}")
            lines.append(f"{rng.choice(_FLOAT_OPS)} r{rd}, r{rd}, r{rd}")
            lines.append(f"cvtfi r{rd}, r{rd}")
        elif kind < 0.62:
            lines.append(f"sw r{a}, {rng.randint(0, 31)}(r3)")
        elif kind < 0.74:
            lines.append(f"lw r{rd}, {rng.randint(0, 31)}(r3)")
        elif kind < 0.84:
            lines.append(f"div r{rd}, r{a}, r{b}")
        else:
            label_count += 1
            label = f"fw{label_count}"
            lines.append(f"{rng.choice(_BRANCHES)} r{a}, r{b}, {label}")
            lines.append(f"addi r{rd}, r{rd}, 1")
            lines.append(f"xori r{rd}, r{rd}, 3")
            lines.append(f"{label}:")
    lines += ["li r4, 0", "li r5, 12",
              "lp: lw r6, 0(r3)", "addi r6, r6, 7",
              f"sw r6, {rng.randint(0, 31)}(r3)", "addi r4, r4, 1",
              "blt r4, r5, lp", "halt"]
    return "\n".join(lines)


def random_config(rng, nthreads):
    return MachineConfig(
        nthreads=nthreads,
        max_cycles=500_000,
        fetch_policy=rng.choice(list(FetchPolicy)),
        commit_policy=rng.choice(list(CommitPolicy)),
        su_entries=rng.choice([32, 64, 128]),
        bypassing=rng.choice([True, False]),
        store_buffer_depth=rng.choice([4, 8, 16]),
        renaming=rng.choice([True, True, False]),
        issue_width=rng.choice([4, 8]),
    )


def assert_equivalent(program, nthreads, config):
    ref = FunctionalSim(program, nthreads=nthreads)
    ref.run()
    sim = PipelineSim(program, config)
    sim.run()
    for tid in range(nthreads):
        assert sim.regs.snapshot(tid) == ref.regs.snapshot(tid), \
            f"thread {tid} registers diverge"
    base = program.symbol("arr")
    assert sim.mem(base, 256) == ref.mem(base, 256), "memory diverges"


@pytest.mark.parametrize("seed", range(40))
def test_differential_random_programs(seed):
    rng = random.Random(0xD1F + seed)
    program = assemble(random_program(rng))
    nthreads = rng.choice([1, 1, 2, 4, 6])
    config = random_config(rng, nthreads)
    assert_equivalent(program, nthreads, config)


@pytest.mark.parametrize("policy", list(FetchPolicy))
@pytest.mark.parametrize("seed", range(4))
def test_differential_each_fetch_policy(policy, seed):
    rng = random.Random(0xF00 + seed)
    program = assemble(random_program(rng))
    config = MachineConfig(nthreads=4, fetch_policy=policy,
                           max_cycles=500_000)
    assert_equivalent(program, 4, config)


@pytest.mark.parametrize("seed", range(4))
def test_differential_tiny_su(seed):
    """An 8-entry SU exercises constant structural stalls."""
    rng = random.Random(0xABC + seed)
    program = assemble(random_program(rng))
    config = MachineConfig(nthreads=2, su_entries=8, max_cycles=1_000_000)
    assert_equivalent(program, 2, config)


@pytest.mark.parametrize("seed", range(4))
def test_differential_tiny_cache(seed):
    """A 256-byte direct-mapped cache thrashes on every loop."""
    from repro.mem.cache import CacheConfig
    rng = random.Random(0xCAC + seed)
    program = assemble(random_program(rng))
    config = MachineConfig(nthreads=2, max_cycles=1_000_000,
                           cache=CacheConfig(size_bytes=256, assoc=1))
    assert_equivalent(program, 2, config)


def assert_fast_forward_invisible(program, nthreads, config):
    """Fast-forward must be a pure engine optimization.

    The idle-cycle jump may change *how* the simulator reaches a state,
    never the state itself: both modes must agree on the final
    architectural state and on every timing statistic, cycle for cycle.
    """
    fast = PipelineSim(program, config.replace(fast_forward=True))
    fast_stats = fast.run()
    slow = PipelineSim(program, config.replace(fast_forward=False))
    slow_stats = slow.run()
    assert fast_stats.cycles == slow_stats.cycles, \
        "fast-forward changed the cycle count"
    assert fast_stats.to_dict() == slow_stats.to_dict(), \
        "fast-forward changed a statistic"
    for tid in range(nthreads):
        assert fast.regs.snapshot(tid) == slow.regs.snapshot(tid), \
            f"thread {tid} registers diverge across fast-forward modes"
    base = program.symbol("arr")
    assert fast.mem(base, 256) == slow.mem(base, 256), \
        "memory diverges across fast-forward modes"


@pytest.mark.parametrize("seed", range(20))
def test_differential_fast_forward_modes(seed):
    """Random program/config: fast-forward on and off are bit-identical."""
    rng = random.Random(0xFF0 + seed)
    program = assemble(random_program(rng))
    nthreads = rng.choice([1, 1, 2, 4, 6])
    config = random_config(rng, nthreads)
    assert_fast_forward_invisible(program, nthreads, config)


@pytest.mark.parametrize("seed", range(4))
def test_differential_fast_forward_stall_heavy(seed):
    """Long miss penalties maximize idle runs — the jump's main diet."""
    from repro.mem.cache import CacheConfig
    rng = random.Random(0xFF5 + seed)
    program = assemble(random_program(rng))
    config = MachineConfig(nthreads=2, max_cycles=1_000_000,
                           cache=CacheConfig(size_bytes=256, assoc=1,
                                             miss_penalty=64))
    assert_fast_forward_invisible(program, 2, config)


def _ff_outcome(program, config):
    """Full stats on success; ``"hang"`` when the watchdog fires. A
    wedged shape must wedge in both modes, but a skip may overshoot the
    exact cycle the per-cycle loop would have reported the hang at."""
    try:
        return PipelineSim(program, config).run().to_dict()
    except SimulationHang:
        return "hang"


def test_randomized_config_shapes_fast_forward_modes():
    """Random machine shapes on a real workload — thread counts, all
    four fetch policies, SU depths, bypassing, cache pressure, icache —
    give identical statistics with fast-forward on and off. Some shapes
    genuinely wedge (a tiny icache thrashed by four threads can starve
    every fetch), so the watchdog horizon is tightened to keep them
    cheap."""
    rng = random.Random(1996)
    caches = [None,
              CacheConfig(size_bytes=256, assoc=1, miss_penalty=64),
              CacheConfig(size_bytes=128, line_words=4, assoc=1,
                          miss_penalty=96)]
    for _ in range(8):
        kwargs = dict(
            nthreads=rng.choice([1, 2, 4]),
            su_entries=rng.choice([32, 64, 128]),
            fetch_policy=rng.choice(["true_rr", "icount", "masked_rr",
                                     "cond_switch"]),
            bypassing=rng.choice([True, False]),
            fast_forward=rng.choice([True, False]),
            hang_cycles=20_000,
        )
        cache = rng.choice(caches)
        if cache is not None:
            kwargs["cache"] = cache
        if rng.random() < 0.3:
            kwargs["icache"] = CacheConfig(size_bytes=512, assoc=2,
                                           miss_penalty=8)
        rng.random()  # one more draw per shape keeps the seeded list fixed
        config = MachineConfig(**kwargs)
        program = by_name("LL2").program(config.nthreads)
        fast = _ff_outcome(program, config.replace(fast_forward=True))
        slow = _ff_outcome(program, config.replace(fast_forward=False))
        assert fast == slow, kwargs


@pytest.mark.parametrize("seed", range(4))
def test_skip_spans_never_cross_a_state_change(seed):
    """Every fast-forwarded span is provably inert, cycle by cycle.

    The ff-on run reports each jump as a ``stall`` event ``(cycle,
    span)``. Replaying the same machine ff-off one cycle at a time and
    fingerprinting every state-change counter (commits, issues,
    fetches, squashes, store-buffer drains and occupancy, SU occupancy,
    halts) must show the fingerprint frozen across each skipped span —
    a skip that crossed a state-change cycle would desynchronize the
    two engines even if the final totals happened to collide.
    """
    from repro.mem.cache import CacheConfig
    rng = random.Random(0x5CA + seed)
    program = assemble(random_program(rng))
    nthreads = 2
    config = MachineConfig(nthreads=nthreads, max_cycles=1_000_000,
                           cache=CacheConfig(size_bytes=256, assoc=1,
                                             miss_penalty=64))
    fast = PipelineSim(program, config.replace(fast_forward=True))
    spans = []
    fast.add_sink(lambda event: spans.append((event.cycle, event.span))
                  if event.kind == "stall" else None)
    fast_stats = fast.run()
    assert spans, "stall-heavy config should fast-forward at least once"

    slow = PipelineSim(program, config.replace(fast_forward=False))
    stats = slow.stats
    store_buffer = slow.store_buffer
    fingerprints = []  # fingerprints[c] == state after executing cycle c
    for _ in range(fast_stats.cycles):
        if slow._halted >= nthreads:
            break
        slow.step()
        fingerprints.append((
            stats.committed, stats.issued, stats.fetched_blocks,
            stats.squashed, store_buffer.drained,
            len(store_buffer.entries), slow.su.occupancy(), slow._halted))
    initial = (0, 0, 0, 0, 0, 0, 0, 0)
    for start, span in spans:
        entering = fingerprints[start - 1] if start else initial
        for cycle in range(start, start + span):
            assert fingerprints[cycle] == entering, (
                f"skip span ({start}, {span}) crossed a state change "
                f"at cycle {cycle}")
