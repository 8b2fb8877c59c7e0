"""Pipeline-simulator behaviour tests on small hand-written programs."""

import pytest

from repro.asm import assemble
from repro.core import CommitPolicy, FetchPolicy, MachineConfig, PipelineSim
from repro.core.pipeline import DeadlockError
from tests.conftest import run_both, run_pipeline


class TestArchitecturalEquivalence:
    def test_arithmetic_chain(self):
        run_both("""
            .text
            li r4, 7
            li r5, 3
            add r6, r4, r5
            mul r7, r6, r6
            div r8, r7, r5
            rem r9, r7, r5
            halt
        """)

    def test_loads_stores_and_forwarding(self):
        ref, sim = run_both("""
            .data
        buf: .space 8
            .text
            la r4, buf
            li r5, 11
            sw r5, 0(r4)
            lw r6, 0(r4)      # forwarded from in-flight store
            addi r6, r6, 1
            sw r6, 1(r4)
            lw r7, 1(r4)
            halt
        """)
        assert sim.reg(0, 7) == 12

    def test_loop_with_mispredictions(self):
        ref, sim = run_both("""
            .text
            li r4, 0
            li r5, 20
        loop:
            addi r4, r4, 1
            blt r4, r5, loop
            halt
        """)
        assert sim.stats.branches == 20
        assert sim.stats.mispredicts >= 1  # final fall-through mispredicts

    def test_function_calls(self):
        run_both("""
            .text
            li r4, 5
            call fib_iter
            mov r10, r4
            halt
        fib_iter:
            li r5, 0
            li r6, 1
            li r7, 0
        floop:
            add r8, r5, r6
            mov r5, r6
            mov r6, r8
            addi r7, r7, 1
            blt r7, r4, floop
            mov r4, r5
            ret
        """)

    def test_floats_through_pipeline(self):
        ref, sim = run_both("""
            .data
        f:  .float 1.5, 2.5
        out: .space 1
            .text
            la r4, f
            flw r5, 0(r4)
            flw r6, 1(r4)
            fmul r7, r5, r6
            fdiv r8, r7, r5
            la r9, out
            fsw r7, 0(r9)
            halt
        """)
        assert sim.mem(sim.program.symbol("out")) == 3.75

    @pytest.mark.parametrize("policy", list(FetchPolicy))
    def test_policies_agree_architecturally(self, policy):
        source = """
            .text
            mftid r4
            addi r4, r4, 1
            li r5, 0
            li r6, 12
        lp: add r5, r5, r4
            addi r6, r6, -1
            bnez r6, lp
            halt
        """
        config = MachineConfig(nthreads=3, fetch_policy=policy,
                               max_cycles=500_000)
        run_both(source, nthreads=3, config=config)

    @pytest.mark.parametrize("commit", list(CommitPolicy))
    def test_commit_policies_agree(self, commit):
        config = MachineConfig(nthreads=2, commit_policy=commit,
                               max_cycles=500_000)
        run_both(".text\nmftid r4\nli r5, 9\nmul r6, r4, r5\nhalt\n",
                 nthreads=2, config=config)

    def test_no_bypassing_still_correct(self):
        config = MachineConfig(nthreads=1, bypassing=False, max_cycles=500_000)
        run_both(".text\nli r4, 3\nadd r5, r4, r4\nadd r6, r5, r5\nhalt\n",
                 config=config)

    def test_scoreboard_mode_still_correct(self):
        config = MachineConfig(nthreads=1, renaming=False, max_cycles=500_000)
        run_both("""
            .text
            li r4, 1
            li r4, 2
            add r5, r4, r4
            li r4, 3
            add r6, r4, r5
            halt
        """, config=config)


class TestControlHazards:
    def test_jalr_with_cold_btb(self):
        sim = run_pipeline("""
            .text
            la r4, target
            jalr r1, r4
            halt
        target:
            li r5, 42
            halt
        """)
        assert sim.reg(0, 5) == 42

    def test_jalr_btb_misprediction_recovers(self):
        # The first jalr trains the BTB to one target; the second goes
        # elsewhere, forcing a BTB mispredict and squash.
        sim = run_pipeline("""
            .data
        tgt: .space 1
            .text
            la r4, first
            jalr r1, r4
        back:
            la r4, second
            jalr r1, r4
            halt
        first:
            li r5, 1
            j back
        second:
            li r6, 2
            halt
        """)
        assert sim.reg(0, 6) == 2

    def test_mispredict_squashes_wrong_path_effects(self):
        # A store on the wrong path must never reach memory.
        ref, sim = run_both("""
            .data
        out: .word 5
            .text
            la r4, out
            li r5, 1
            li r6, 1
            beq r5, r6, skip   # always taken; predictor must recover even
            sw r0, 0(r4)       # if it guesses wrong the first time
        skip:
            halt
        """)
        assert sim.mem(sim.program.symbol("out")) == 5

    def test_wrong_path_past_halt_recovers(self):
        # Branch predicted not-taken falls through into a halt; the halt
        # is squashed when the branch resolves taken.
        sim = run_pipeline("""
            .text
            li r4, 1
        loop:
            beqz r4, done
            li r4, 0
            j loop
        done:
            li r5, 77
            halt
        """)
        assert sim.reg(0, 5) == 77


class TestStructuralLimits:
    def test_deadlock_guard_raises(self):
        with pytest.raises(DeadlockError):
            run_pipeline(".text\nspin: j spin\n", max_cycles=2_000)

    def test_su_fills_and_stalls(self):
        # A long-latency divide at the bottom with a stream behind it
        # must produce scheduling-unit stalls.
        sim = run_pipeline("""
            .text
            li r4, 100
            li r5, 3
            div r6, r4, r5
            div r6, r6, r5
            div r6, r6, r5
        """ + "add r7, r4, r5\n" * 40 + "halt\n", su_entries=16)
        assert sim.stats.su_stall_cycles > 0

    def test_store_buffer_backpressure(self):
        # Each store misses a different cache line, so drains are slow
        # (one refill at a time); a small buffer then gates commit.
        source = (".data\nbuf: .space 256\n.text\nla r4, buf\n"
                  + "\n".join(f"sw r4, {i * 8}(r4)" for i in range(24))
                  + "\nhalt\n")
        fast = run_pipeline(source, store_buffer_depth=48)
        slow = run_pipeline(source, store_buffer_depth=4)
        assert slow.cycle > fast.cycle

    def test_issue_width_limits_throughput(self):
        source = ".text\n" + "add r4, r5, r6\n" * 64 + "halt\n"
        wide = run_pipeline(source, issue_width=8)
        narrow = run_pipeline(source, issue_width=1)
        assert narrow.cycle > wide.cycle


class TestMultithreadedPipeline:
    def test_threads_complete_independent_work(self):
        sim = run_pipeline("""
            .data
        out: .space 8
            .text
            mftid r4
            la r5, out
            add r5, r5, r4
            addi r6, r4, 10
            sw r6, 0(r5)
            halt
        """, nthreads=4)
        assert sim.mem(sim.program.symbol("out"), 4) == [10, 11, 12, 13]

    def test_tas_mutual_exclusion_pipeline(self):
        sim = run_pipeline("""
            .data
        lock: .word 0
        count: .word 0
            .text
            li r10, 0
            li r11, 6
            la r4, lock
            la r5, count
        again:
            tas r6, 0(r4)
            bnez r6, again
            lw r7, 0(r5)
            addi r7, r7, 1
            sw r7, 0(r5)
            sw r0, 0(r4)
            addi r10, r10, 1
            blt r10, r11, again
            halt
        """, nthreads=4)
        assert sim.mem(sim.program.symbol("count")) == 24

    def test_per_thread_commit_counts(self):
        sim = run_pipeline(".text\nnop\nnop\nnop\nhalt\n", nthreads=3)
        assert sim.stats.committed_per_thread == [4, 4, 4]

    def test_flexible_commit_beats_lowest_only_with_stalled_thread(self):
        # Thread 0 repeatedly divides (long latency); other threads run
        # independent ALU work. Flexible commit should finish sooner.
        source = """
            .text
            mftid r4
            bnez r4, fastpath
            li r5, 1000
            li r6, 3
        slowloop:
            div r5, r5, r6
            bnez r5, slowloop
            halt
        fastpath:
            li r7, 300
        floop:
            addi r7, r7, -1
            bnez r7, floop
            halt
        """
        flexible = run_pipeline(source, nthreads=4,
                                commit_policy=CommitPolicy.FLEXIBLE)
        lowest = run_pipeline(source, nthreads=4,
                              commit_policy=CommitPolicy.LOWEST_ONLY)
        assert flexible.cycle < lowest.cycle


class TestStats:
    def test_ipc_and_committed(self):
        sim = run_pipeline(".text\n" + "nop\n" * 19 + "halt\n")
        assert sim.stats.committed == 20
        assert 0 < sim.stats.ipc <= 4

    def test_cache_stats_populated(self):
        sim = run_pipeline("""
            .data
        buf: .space 64
            .text
            la r4, buf
            lw r5, 0(r4)
            lw r6, 32(r4)
            halt
        """)
        assert sim.stats.cache_accesses >= 2
        assert sim.stats.cache_misses >= 1

    def test_summary_renders(self):
        sim = run_pipeline(".text\nhalt\n")
        text = sim.stats.summary()
        assert "cycles" in text and "IPC" in text


class TestSpeculationSafety:
    def test_wrong_path_wild_load_does_not_fault(self):
        # The branch is always taken, but a cold predictor may fall
        # through into a load with a wildly negative address; hardware
        # must not fault on the wrong path.
        sim = run_pipeline("""
            .data
        x:  .word 1
            .text
            li r4, 1
            li r5, -99999
        lp: beq r4, r4, over     # always taken
            lw r6, -2000(r5)     # wrong path: address is way negative
        over:
            addi r5, r5, 1
            bnez r4, done
            j lp
        done:
            halt
        """)
        assert all(t.done for t in sim.threads)

    def test_wrong_path_store_never_reaches_memory(self):
        sim = run_pipeline("""
            .data
        guard: .word 123
            .text
            la r4, guard
            li r5, 1
            beqz r5, never        # never taken, but predictable wrongly
            j fin
        never:
            sw r0, 0(r4)
        fin:
            halt
        """)
        assert sim.mem(sim.program.symbol("guard")) == 123


def test_finished_machine_is_freed_without_a_collection():
    # A machine holds an 8 MB MainMemory: a reference cycle through it
    # would keep every finished run alive until the next full GC.
    import gc
    import weakref

    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = run_pipeline("""
            li r4, 3
        lp: addi r4, r4, -1
            bnez r4, lp
            halt
        """, nthreads=2, fetch_policy=FetchPolicy.ICOUNT)
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
