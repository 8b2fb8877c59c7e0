"""The scheduling unit: combined reorder buffer + instruction window.

Entries are grouped in blocks of up to four instructions, each block the
product of one fetch/decode cycle and therefore single-threaded. The SU
is FIFO-ordered: block 0 is the oldest ("bottom"); newly decoded blocks
append at the top. Dynamic scheduling is oldest-first, and one block per
cycle may commit — under Flexible Result Commit the committed block is
the lowest ready block among the bottom ``commit_blocks`` whose thread
differs from every lower (uncommitted) block's thread, which preserves
per-thread in-order commit.

Incremental indexes
-------------------
The hardware answers ordering questions (youngest older writer, older
unresolved store, oldest unfinished entry) with CAM searches over the
whole unit. Scanning every block per query is the simulator's hot path,
so the SU maintains the answers incrementally instead. They are built
by :meth:`SchedulingUnit.insert_block` (decode), kept current by the
pipeline's issue and writeback stages (the WAITING -> ISSUED -> DONE
transitions, done in their per-instruction loops), and torn down by
:meth:`SchedulingUnit.squash_younger` and :meth:`SchedulingUnit.pop_block`:

* ``_writers`` — per-thread, per-register stacks of in-flight writers
  (rename), indexed ``_writers[tid][reg]``.
* ``_tid_stores`` — per-thread, program-ordered in-flight stores
  (restricted load/store check, store-to-load forwarding).
* ``_tid_mem_waiting`` — per-thread, program-ordered memory ops still
  WAITING (per-thread in-order memory issue).
* ``issuable`` — count of WAITING entries with no pending operands, so
  the issue stage (and the idle-cycle fast-forward) can skip scanning
  entirely when nothing can possibly issue.
* ``_tid_count`` — per-thread entry counts (ICOUNT fetch heuristic).
* Per-block ``ready``/``not_done``/``store_count`` counters for O(1)
  issue-scan pruning, readiness, and store-buffer-space checks.

Rarely-evaluated predicates (``all_older_done``, used only by ``tas``;
``threads_with_inflight``, used only by the masked-RR long-latency
ablation) deliberately stay as scans: maintaining an index on every
insert/complete/squash costs more than the occasional walk.

Every index mirrors exactly the predicate the old full scans evaluated;
``tests/test_golden_cycles.py`` pins the resulting cycle counts.
"""

from repro.isa.opcodes import FU_CLASSES
from repro.isa.registers import regs_per_thread

# Entry states.
WAITING = 0
ISSUED = 1
DONE = 2


class SUEntry:
    """One instruction resident in the scheduling unit.

    Built only by :meth:`SchedulingUnit.insert_block`, which sets every
    slot. ``vals`` holds the source operand values (``None`` while one
    is outstanding), ``waiters`` the ``(consumer entry, operand index)``
    pairs woken by this entry's writeback, ``pending`` the number of
    outstanding operands, and ``order`` the dense program-order key
    ``(block.seq << 3) | slot``.
    """

    __slots__ = ("tag", "tid", "pc", "instr", "info", "dest", "state",
                 "vals", "waiters", "pending", "result", "addr", "order",
                 "block", "predicted_taken", "predicted_target",
                 "actual_taken", "actual_target", "squashed")

    def __repr__(self):
        state = {WAITING: "WAIT", ISSUED: "ISSUED", DONE: "DONE"}[self.state]
        return (f"SUEntry(tag={self.tag}, tid={self.tid}, pc={self.pc}, "
                f"{self.instr.text()!r}, {state})")


class SUBlock:
    """A block of up to four same-thread entries.

    Built only by :meth:`SchedulingUnit.insert_block`. ``ready`` counts
    WAITING entries whose operands are all available, so the issue scan
    can skip blocks with no candidate; ``ready_loads`` and
    ``ready_stores`` are the subsets of ``ready`` that are loads and
    pure stores. ``ready_fu_mask`` is a bitmask (over ``fu_index``) of
    classes that have had a ready entry: bits are set when an entry
    becomes ready and never cleared, so it is a conservative superset
    of the classes currently represented — enough for the issue stage's
    whole-block skip, which only needs "every candidate's class is
    exhausted" to be implied by mask coverage. ``not_done`` counts
    entries that have not written back (the block may commit at zero),
    and ``store_count`` counts pure stores so the commit stage's
    store-buffer-space check needs no scan.
    """

    __slots__ = ("seq", "tid", "entries", "ready", "ready_loads",
                 "ready_stores", "ready_fu_mask", "not_done", "store_count")

    def __repr__(self):
        return f"SUBlock(seq={self.seq}, tid={self.tid}, {len(self.entries)} entries)"


class SchedulingUnit:
    """FIFO of :class:`SUBlock` with capacity ``su_entries / 4`` blocks."""

    def __init__(self, config):
        self.config = config
        self.capacity_blocks = config.su_blocks
        self.blocks = []
        self._next_seq = 0
        self._entry_count = 0
        # _writers[tid][reg] -> in-flight writer entries, oldest first.
        nthreads = config.nthreads
        k = regs_per_thread(nthreads)
        self._writers = [[[] for _ in range(k)] for _ in range(nthreads)]
        self._tid_count = [0] * nthreads
        self._tid_stores = [[] for _ in range(nthreads)]
        self._tid_mem_waiting = [[] for _ in range(nthreads)]
        #: WAITING entries whose operands are all available. The issue
        #: stage does nothing while this is zero.
        self.issuable = 0

    @property
    def full(self):
        return len(self.blocks) >= self.capacity_blocks

    def occupancy(self):
        """Number of live entries."""
        return self._entry_count

    def tid_occupancy(self, tid):
        """Number of live entries belonging to thread ``tid``."""
        return self._tid_count[tid]

    def insert_block(self, tid, items, next_tag, regs_arr, reg_base):
        """Decode one fetched block of thread ``tid`` into a new top block.

        ``items`` are the :class:`~repro.core.fetch.FetchedInstr` of one
        fetch; their entries are tagged ``next_tag``, ``next_tag + 1``,
        and so on. The caller has checked :attr:`full`. Each source
        operand is renamed on the way in: ``r0`` reads as zero, a
        register with an in-flight writer takes the youngest writer's
        result once it is DONE and otherwise subscribes to its wake-up,
        and any other register reads the thread's architectural value
        ``regs_arr[reg_base + reg]``. Returns the new :class:`SUBlock`.
        """
        block = SUBlock()
        block.seq = seq = self._next_seq
        self._next_seq = seq + 1
        block.tid = tid
        block.entries = entries = []
        block.ready_loads = 0
        block.ready_stores = 0
        block.ready_fu_mask = 0
        block.store_count = 0
        self.blocks.append(block)
        tid_stores = self._tid_stores[tid]
        mem_waiting = self._tid_mem_waiting[tid]
        writers = self._writers[tid]
        seq8 = seq << 3
        ready = 0
        tag = next_tag
        for item in items:
            instr = item.instr
            entry = SUEntry()
            entry.tag = tag
            entry.tid = tid
            entry.pc = item.pc
            entry.instr = instr
            entry.info = info = instr.info
            dest = instr._dest
            if dest is False:
                dest = instr.dest()
            entry.dest = dest
            entry.state = WAITING
            entry.waiters = None
            entry.result = None
            entry.addr = None
            entry.actual_taken = None
            entry.actual_target = None
            entry.squashed = False
            entry.predicted_taken = item.predicted_taken
            entry.predicted_target = item.predicted_target
            tag += 1
            sources = instr._sources
            if sources is None:
                sources = instr.sources()
            entry.vals = vals = [None] * len(sources)
            pending = 0
            for index, reg in enumerate(sources):
                if reg == 0:
                    vals[index] = 0
                    continue
                stack = writers[reg]
                if not stack:
                    vals[index] = regs_arr[reg_base + reg]
                    continue
                producer = stack[-1]
                if producer.state == DONE:
                    vals[index] = producer.result
                else:
                    pending += 1
                    waiters = producer.waiters
                    if waiters is None:
                        producer.waiters = [(entry, index)]
                    else:
                        waiters.append((entry, index))
            entry.pending = pending
            entry.order = seq8 | len(entries)
            entry.block = block
            entries.append(entry)
            if info.is_store:
                tid_stores.append(entry)
                if not info.is_load:
                    block.store_count += 1
            if info.is_mem:
                mem_waiting.append(entry)
            if not pending:
                ready += 1
                block.ready_fu_mask |= 1 << info.fu_index
                if info.is_load:
                    block.ready_loads += 1
                elif info.is_store:
                    block.ready_stores += 1
            if dest is not None:
                writers[dest].append(entry)
        count = len(entries)
        block.not_done = count
        block.ready = ready
        self.issuable += ready
        self._entry_count += count
        self._tid_count[tid] += count
        return block

    def _drop_writer(self, entry):
        if entry.dest is None:
            return
        stack = self._writers[entry.tid][entry.dest]
        if stack:
            try:
                stack.remove(entry)
            except ValueError:
                pass

    def lookup_operand(self, tid, reg):
        """Most recent in-flight producer of ``(tid, reg)``.

        Returns the matching :class:`SUEntry` (newest first) or ``None``
        if the value must come from the register file. This is the
        decoder's TID-qualified associative lookup (indexed here by a
        per-register writer stack for speed; the hardware does a CAM
        search over the scheduling unit).
        """
        stack = self._writers[tid][reg]
        if stack:
            return stack[-1]
        return None

    def all_older_done(self, ref):
        """True when every older same-thread entry has executed.

        Used to make ``tas`` non-speculative: by the time all older
        same-thread entries (including branches) are DONE, any
        misprediction would already have squashed ``ref``. Only ``tas``
        evaluates this, and only once its operands are ready, so a scan
        is cheaper than keeping a per-thread not-done index current.
        """
        tid = ref.tid
        order = ref.order
        for block in self.blocks:
            if block.tid != tid or not block.not_done:
                continue
            for entry in block.entries:
                if entry.order >= order:
                    # FIFO blocks: every remaining entry is younger.
                    return True
                if entry.state != DONE:
                    return False
        return True

    def ready_entries(self):
        """Yield the issue candidates in scan order (fast-forward protocol).

        Exactly the entries the pipeline's issue stage would visit:
        WAITING, operands complete, inside blocks with a non-zero ready
        count. The skip engine's horizon scan replays issue's per-entry
        checks over this sequence without issuing anything; ``issuable``
        bounds its length, so a caller can stop early once every
        candidate has been seen.
        """
        for block in self.blocks:
            if not block.ready:
                continue
            for entry in block.entries:
                if entry.state == WAITING and not entry.pending:
                    yield entry

    def fu_class_pressure(self):
        """WAITING-entry count per functional-unit class.

        Indexed by ``fu_index`` (position in
        :data:`~repro.isa.opcodes.FU_CLASSES`) — the "issue queue depth"
        seen by each unit class. Used by the interval-metrics sampler
        (once every N cycles), so a scan is fine.
        """
        counts = [0] * len(FU_CLASSES)
        for block in self.blocks:
            for entry in block.entries:
                if entry.state == WAITING:
                    counts[entry.info.fu_index] += 1
        return counts

    def threads_with_inflight(self, fu_classes):
        """Thread ids with an unfinished op on one of ``fu_classes``.

        Used only by the masked-RR ``long_latency`` criterion, once per
        cycle per simulator under that policy — a scan, not an index.
        """
        tids = set()
        for block in self.blocks:
            if block.tid in tids or not block.not_done:
                continue
            for entry in block.entries:
                if entry.state != DONE and entry.info.fu in fu_classes:
                    tids.add(block.tid)
                    break
        return sorted(tids)

    def squash_younger(self, origin):
        """Discard all same-thread entries younger than ``origin``.

        Returns the squashed entries (the pipeline removes their store-
        buffer allocations and counts them). Fully-emptied younger blocks
        are reclaimed immediately.
        """
        squashed = []
        tid = origin.tid
        origin_order = origin.order
        origin_seq = origin.block.seq
        for block in self.blocks:
            if block.seq < origin_seq or block.tid != tid:
                continue
            survivors = []
            for entry in block.entries:
                if entry.order <= origin_order:
                    survivors.append(entry)
                    continue
                entry.squashed = True
                state = entry.state
                if state == WAITING and not entry.pending:
                    self.issuable -= 1
                    block.ready -= 1
                    if entry.info.is_load:
                        block.ready_loads -= 1
                    elif entry.info.is_store:
                        block.ready_stores -= 1
                if state != DONE:
                    block.not_done -= 1
                info = entry.info
                if info.is_store and not info.is_load:
                    block.store_count -= 1
                self._drop_writer(entry)
                squashed.append(entry)
            block.entries = survivors
        if squashed:
            self._entry_count -= len(squashed)
            self._tid_count[tid] -= len(squashed)
            self._tid_stores[tid] = [
                e for e in self._tid_stores[tid] if not e.squashed]
            self._tid_mem_waiting[tid] = [
                e for e in self._tid_mem_waiting[tid] if not e.squashed]
            self.blocks = [b for b in self.blocks
                           if b.entries or b.seq <= origin_seq]
        return squashed

    def choose_commit_block(self, commit_blocks, store_room):
        """Index of the block to commit this cycle, or ``None``.

        Implements Flexible Result Commit: examine the bottom
        ``commit_blocks`` blocks in order; the first ready block whose
        thread is not represented among the lower, uncommitted blocks
        may commit, provided its stores fit the ``store_room`` free
        store-buffer slots (if they do not, nothing commits this
        cycle). ``commit_blocks=1`` degenerates to the classic
        lowest-only reorder-buffer policy.
        """
        blocks = self.blocks
        limit = len(blocks)
        if commit_blocks < limit:
            limit = commit_blocks
        blocked = 0  # bitmask of thread ids seen in lower blocks
        for index in range(limit):
            block = blocks[index]
            bit = 1 << block.tid
            if not block.not_done and not blocked & bit:
                if block.store_count <= store_room:
                    return index
                return None
            blocked |= bit
        return None

    def pop_block(self, index):
        """Remove and return a committed block (all entries DONE)."""
        block = self.blocks.pop(index)
        tid = block.tid
        stores = self._tid_stores[tid]
        writers = self._writers[tid]
        for entry in block.entries:
            dest = entry.dest
            if dest is not None:
                stack = writers[dest]
                if stack:
                    # Per-thread in-order commit: the committed entry is
                    # the oldest surviving writer, i.e. the stack head.
                    if stack[0] is entry:
                        del stack[0]
                    else:
                        try:
                            stack.remove(entry)
                        except ValueError:
                            pass
            if entry.info.is_store:
                stores.remove(entry)
            entry.block = None  # break the entry<->block reference cycle
        count = len(block.entries)
        self._entry_count -= count
        self._tid_count[tid] -= count
        return block
