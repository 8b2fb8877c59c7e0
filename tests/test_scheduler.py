"""Scheduling-unit tests: FIFO blocks, operand lookup, flexible commit,
selective squash, and the memory-ordering rule.

SU state is built the way the engine builds it — through
``SchedulingUnit.insert_block`` with ``FetchedInstr`` items — and the
memory-ordering cases run the pipeline's own stages and its one load
rule, ``PipelineSim._load_source``, on a small simulator.
"""

from repro.asm import assemble
from repro.core import MachineConfig, PipelineSim
from repro.core.fetch import FetchedInstr
from repro.core.pipeline import _HOLD_SYNC, _READ_MEMORY
from repro.core.scheduler import DONE, SchedulingUnit, WAITING
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.registers import RegisterFile


def make_su(su_entries=16, nthreads=4):
    return SchedulingUnit(MachineConfig(nthreads=nthreads,
                                        su_entries=su_entries))


def insert(su, tid, tag, *instrs, regs=None):
    """Decode ``instrs`` as one block of thread ``tid``; its entries."""
    if regs is None:
        regs = RegisterFile(su.config.nthreads)
    items = [FetchedInstr(tag + i, instr) for i, instr in enumerate(instrs)]
    block = su.insert_block(tid, items, tag, regs._regs, tid * regs.k)
    return block.entries


def complete(entry):
    """What writeback does to the SU: the entry is DONE."""
    entry.state = DONE
    entry.block.not_done -= 1


def alu(rd=1, rs1=2, rs2=3):
    return Instruction(Op.ADD, rd=rd, rs1=rs1, rs2=rs2)


def store(rs1=2, rs2=3, imm=0):
    return Instruction(Op.SW, rs2=rs2, rs1=rs1, imm=imm)


def load(rd=1, rs1=2, imm=0):
    return Instruction(Op.LW, rd=rd, rs1=rs1, imm=imm)


class TestCapacity:
    def test_full_at_capacity_blocks(self):
        su = make_su(su_entries=8)  # 2 blocks
        insert(su, 0, 0, alu())
        assert not su.full
        insert(su, 0, 1, alu())
        assert su.full

    def test_occupancy_counts_entries(self):
        su = make_su()
        insert(su, 0, 0, alu(), alu())
        assert su.occupancy() == 2
        assert su.tid_occupancy(0) == 2
        assert su.issuable == 2


class TestOperandLookup:
    def test_most_recent_writer_wins(self):
        su = make_su()
        first, = insert(su, 0, 0, alu(rd=5))
        second, = insert(su, 0, 1, alu(rd=5))
        assert su.lookup_operand(0, 5) is second
        assert first is not second

    def test_lookup_is_tid_qualified(self):
        su = make_su()
        insert(su, 0, 0, alu(rd=5))
        assert su.lookup_operand(1, 5) is None

    def test_lookup_miss_returns_none(self):
        su = make_su()
        assert su.lookup_operand(0, 5) is None

    def test_insert_renames_from_youngest_writer(self):
        su = make_su()
        regs = RegisterFile(4)
        regs.write(0, 2, 40)
        regs.write(0, 3, 2)
        producer, = insert(su, 0, 0, alu(rd=2), regs=regs)
        consumer, = insert(su, 0, 1, alu(rd=4, rs1=2, rs2=3), regs=regs)
        # r2 waits on the in-flight producer; r3 reads the register file.
        assert consumer.vals == [None, 2]
        assert consumer.pending == 1
        assert producer.waiters == [(consumer, 0)]
        assert su.issuable == 1
        producer.result = 9
        complete(producer)
        late, = insert(su, 0, 2, alu(rd=5, rs1=2, rs2=0), regs=regs)
        # A DONE writer hands over its result; r0 reads as zero.
        assert late.vals == [9, 0]
        assert late.pending == 0


class TestFlexibleCommit:
    def _two_thread_su(self, bottom_done, top_done):
        su = make_su()
        bottom, = insert(su, 0, 0, alu())
        top, = insert(su, 1, 1, alu())
        if bottom_done:
            complete(bottom)
        if top_done:
            complete(top)
        return su

    def test_bottom_block_preferred(self):
        su = self._two_thread_su(True, True)
        assert su.choose_commit_block(4, 8) == 0

    def test_other_thread_commits_past_stalled_bottom(self):
        su = self._two_thread_su(False, True)
        assert su.choose_commit_block(4, 8) == 1

    def test_same_thread_cannot_bypass_stalled_bottom(self):
        su = make_su()
        insert(su, 0, 0, alu())
        top, = insert(su, 0, 1, alu())
        complete(top)
        assert su.choose_commit_block(4, 8) is None

    def test_lowest_only_policy_never_bypasses(self):
        su = self._two_thread_su(False, True)
        assert su.choose_commit_block(1, 8) is None

    def test_commit_window_limited(self):
        su = make_su(su_entries=32)
        for i in range(5):
            entry, = insert(su, 0 if i < 4 else 1, i, alu())
            if i == 4:
                complete(entry)
        # The ready block of thread 1 is fifth from the bottom: outside
        # the 4-block flexible-commit window.
        assert su.choose_commit_block(4, 8) is None
        assert su.choose_commit_block(8, 8) == 4

    def test_third_block_must_differ_from_all_lower(self):
        su = make_su()
        for tid in (0, 1, 2):
            entry, = insert(su, tid, tid, alu())
        complete(entry)
        assert su.choose_commit_block(4, 8) == 2

    def test_stores_need_store_buffer_room(self):
        su = make_su()
        entries = insert(su, 0, 0, store(), store())
        for entry in entries:
            complete(entry)
        assert su.choose_commit_block(4, 2) == 0
        # A ready block whose stores do not fit commits nothing, and
        # does not let a younger block past it.
        done, = insert(su, 1, 2, alu())
        complete(done)
        assert su.choose_commit_block(4, 1) is None

    def test_pop_block_removes_tags(self):
        su = make_su()
        entry, = insert(su, 0, 7, alu())
        complete(entry)
        block = su.blocks[0]
        assert su.pop_block(0) is block
        assert block.entries == [entry]
        assert not su.blocks
        assert su.occupancy() == 0
        assert su.lookup_operand(0, entry.dest) is None


class TestSquash:
    def test_squash_removes_same_thread_younger_only(self):
        su = make_su(su_entries=32, nthreads=2)
        branch, victim_same_block = insert(
            su, 0, 0, Instruction(Op.BEQ, rs1=1, rs2=2, imm=3), alu())
        other_thread, = insert(su, 1, 2, alu())
        victim_later, = insert(su, 0, 3, alu())
        squashed = su.squash_younger(branch)
        assert set(squashed) == {victim_same_block, victim_later}
        assert all(e.squashed for e in squashed)
        assert not other_thread.squashed
        assert branch in su.blocks[0].entries

    def test_emptied_younger_blocks_reclaimed(self):
        su = make_su(nthreads=2)
        branch, = insert(su, 0, 0, Instruction(Op.BEQ, rs1=1, rs2=2, imm=3))
        insert(su, 0, 1, alu())
        su.squash_younger(branch)
        assert len(su.blocks) == 1

    def test_squashed_tags_removed_from_map(self):
        su = make_su()
        branch, victim = insert(
            su, 0, 0, Instruction(Op.BEQ, rs1=1, rs2=2, imm=3), alu())
        su.squash_younger(branch)
        assert victim.squashed
        assert su.blocks[0].entries == [branch]
        assert su.issuable == 1


def make_sim(nthreads=2):
    """A small simulator whose stages the ordering cases drive by hand.

    r2 holds address 100 and r3 the value 7 in every thread.
    """
    sim = PipelineSim(assemble("halt"), MachineConfig(nthreads=nthreads))
    for tid in range(nthreads):
        sim.regs.write(tid, 2, 100)
        sim.regs.write(tid, 3, 7)
    return sim


def decode(sim, tid, *instrs):
    """Run the decode stage on one fetched block; its entries."""
    items = [FetchedInstr(pc, instr) for pc, instr in enumerate(instrs)]
    sim.fetch_buffer = (sim.threads[tid], items)
    sim._decode(sim.cycle)
    return sim.su.blocks[-1].entries


def issue(sim):
    """Run the issue stage, then advance one cycle."""
    sim._issue(sim.cycle)
    sim.cycle += 1


def write_back(sim):
    """Advance to the earliest pending result and write it back."""
    sim.cycle = sim._wb_cycles[0]
    sim._writeback(sim.cycle)


class TestMemoryOrdering:
    def test_unresolved_older_store_blocks_load(self):
        sim = make_sim()
        __, ld = decode(sim, 0, store(), load())
        # The store has not issued, so its address is unknown.
        assert sim._load_source(ld, sim.cycle) is _HOLD_SYNC

    def test_resolved_nonmatching_store_clears_load(self):
        sim = make_sim()
        st, = decode(sim, 0, store(imm=-50))
        issue(sim)
        assert st.addr == 50 and st.state != DONE
        ld, = decode(sim, 0, load())
        assert sim._load_source(ld, sim.cycle) is _READ_MEMORY

    def test_matching_store_holds_then_forwards(self):
        sim = make_sim()
        st, = decode(sim, 0, store())
        issue(sim)
        ld, = decode(sim, 0, load())
        # Address known and matching, data not yet written back.
        assert sim._load_source(ld, sim.cycle) is _HOLD_SYNC
        write_back(sim)
        assert st.state == DONE
        assert sim._load_source(ld, sim.cycle) == 7  # forwarded

    def test_other_thread_store_never_blocks(self):
        sim = make_sim()
        decode(sim, 1, store())
        ld, = decode(sim, 0, load())
        assert sim._load_source(ld, sim.cycle) is _READ_MEMORY

    def test_younger_store_does_not_block(self):
        sim = make_sim()
        ld, __ = decode(sim, 0, load(), store())
        assert sim._load_source(ld, sim.cycle) is _READ_MEMORY

    def test_all_older_done(self):
        su = make_su()
        older, tas = insert(su, 0, 0, alu(),
                            Instruction(Op.TAS, rd=1, rs1=2))
        assert older.state == WAITING
        assert not su.all_older_done(tas)
        complete(older)
        assert su.all_older_done(tas)
