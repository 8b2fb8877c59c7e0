"""Instruction unit: per-thread PCs, block fetch, and fetch policies.

One aligned block of up to four contiguous instructions is fetched per
cycle, all from the same thread; which thread is chosen by the active
:class:`~repro.core.config.FetchPolicy`:

* **True Round Robin** — a modulo-N counter advanced every clock tick,
  irrespective of thread state; a non-fetchable thread's slot is wasted.
* **Masked Round Robin** — round robin over threads that are not
  *masked*; a thread is masked while it is failing to commit from the
  lower-most reorder-buffer block.
* **Conditional Switch** — keep fetching the same thread until the
  decoder sees a switch-trigger instruction (integer divide, FP
  multiply/divide, or a synchronization primitive), then rotate.

The instruction cache is perfect (100% hits), as in the paper.
"""

from repro.core.config import BLOCK, FetchPolicy
from repro.obs.events import MaskEvent


class ThreadContext:
    """Fetch-side state of one thread."""

    __slots__ = ("tid", "pc", "fetch_halted", "jalr_wait", "done",
                 "stall_until")

    def __init__(self, tid, entry_pc):
        self.tid = tid
        self.pc = entry_pc
        self.fetch_halted = False
        self.jalr_wait = None  # tag of the unresolved jalr, if stalled
        self.done = False
        self.stall_until = 0  # instruction-cache miss stall

    def fetchable(self, now=None):
        """Can fetch select this thread at cycle ``now``?

        The one copy of the fetch predicate: every policy and the
        fast-forward horizon ask it. ``now=None`` ignores the
        instruction-cache refill stall.
        """
        if self.done or self.fetch_halted or self.jalr_wait is not None:
            return False
        if now is not None and now < self.stall_until:
            return False
        return True

    def redirect(self, pc):
        """Point fetch at a new PC (mispredict recovery / jalr resolve)."""
        self.pc = pc
        self.fetch_halted = False
        self.jalr_wait = None


class FetchedInstr:
    """One pre-decoded instruction leaving the instruction unit."""

    __slots__ = ("pc", "instr", "predicted_taken", "predicted_target")

    def __init__(self, pc, instr, predicted_taken=False, predicted_target=None):
        self.pc = pc
        self.instr = instr
        self.predicted_taken = predicted_taken
        self.predicted_target = predicted_target


class FetchUnit:
    """Selects a thread each cycle and fetches one block for it."""

    def __init__(self, config, program, predictor, threads):
        self.config = config
        self.program = program
        self.predictor = predictor
        self.threads = threads
        self.policy = config.fetch_policy
        self._rr_counter = 0
        self._rr_pointer = 0
        self._current = 0  # conditional-switch active thread
        self._switch_pending = False
        self.masked = [False] * config.nthreads
        #: Per-tid in-flight counts (the scheduling unit's ``_tid_count``
        #: list), set by the pipeline; the ICOUNT policy's key. Valid
        #: because ``select_thread`` only runs while the fetch buffer is
        #: empty, when SU occupancy *is* the thread's full occupancy.
        self.tid_counts = None
        #: Event bus (shared with the pipeline); None unless a sink is
        #: attached, in which case mask transitions are emitted.
        self.bus = None
        # Reusable FetchedInstr objects: the fetch buffer lives exactly
        # one cycle (filled by fetch, drained by decode or discarded on
        # a squash before the next fetch), so the items can be pooled
        # instead of allocated per instruction.
        self._item_pool = [FetchedInstr(0, None) for _ in range(BLOCK)]
        # Static decoded-block cache: starting PC -> (items, next_pc,
        # halts) for blocks whose walk is input-independent (no
        # conditional branch, no jalr), or None for blocks that must be
        # re-walked each fetch because they consult predictor state.
        # ``False`` marks a PC not yet classified.
        self._static_blocks = {}

    # ------------------------------------------------------ thread choice

    def select_thread(self, cycle):
        """Thread to fetch for this cycle, or ``None`` (slot wasted).

        True RR advances its modulo-N counter once per fetch
        *opportunity*: a thread that is waiting on an event loses its
        slot (as the paper specifies), but cycles where the front end is
        structurally blocked do not advance the counter — otherwise a
        periodic commit pattern can phase-lock against the counter and
        starve half the threads indefinitely.
        """
        n = self.config.nthreads
        if self.policy is FetchPolicy.TRUE_RR:
            thread = self.threads[self._rr_counter % n]
            self._rr_counter += 1
            return thread if thread.fetchable(cycle) else None
        if self.policy is FetchPolicy.MASKED_RR:
            masked = self.masked
            for offset in range(n):
                thread = self.threads[(self._rr_pointer + offset) % n]
                if not masked[thread.tid] and thread.fetchable(cycle):
                    self._rr_pointer = (thread.tid + 1) % n
                    return thread
            return None
        if self.policy is FetchPolicy.ICOUNT:
            best = None
            best_key = None
            counts = self.tid_counts
            pointer = self._rr_pointer
            # Rotation without a per-candidate modulo: walk the thread
            # list from the pointer, then wrap once.
            threads = self.threads
            for thread in threads[pointer:] + threads[:pointer]:
                key = counts[thread.tid] if counts is not None else 0
                # The predicate last: only a thread that would become
                # the best is asked whether it can fetch.
                if (best is None or key < best_key) \
                        and thread.fetchable(cycle):
                    best, best_key = thread, key
            if best is not None:
                self._rr_pointer = (best.tid + 1) % n
            return best
        # Conditional switch.
        if self._switch_pending:
            self._switch_pending = False
            self._advance_current()
        if not self.threads[self._current].fetchable(cycle):
            self._advance_current(cycle)
        thread = self.threads[self._current]
        return thread if thread.fetchable(cycle) else None

    def _advance_current(self, cycle=None):
        n = self.config.nthreads
        for offset in range(1, n + 1):
            candidate = (self._current + offset) % n
            if self.threads[candidate].fetchable(cycle):
                self._current = candidate
                return

    def fetch_horizon(self, now):
        """Next-event horizon of the front end (fast-forward protocol).

        Returns ``now`` when some thread could be selected this cycle
        (the front end is not provably stalled), the earliest
        ``stall_until`` among otherwise-fetchable threads when every
        candidate is waiting out an instruction-cache refill, or
        ``None`` when no *timer* can unblock fetch — the remaining
        blockers (mask updates, jalr resolution, redirects) all ride
        writeback or commit events, which the pipeline's horizon covers
        separately.

        Under masked round-robin a fetchable-but-masked thread is
        treated as unfetchable: masks only change at commit time, so a
        span in which every candidate is masked is inert until the next
        commit-enabling event, and ``select_thread`` provably mutates
        nothing meanwhile (the rotation pointer moves only on an actual
        selection). The pipeline only relies on this when the masks
        already match what the next commit stage would set; a writeback
        can change that state one cycle before the masks follow.
        """
        masked = self.masked if self.policy is FetchPolicy.MASKED_RR else None
        horizon = None
        for thread in self.threads:
            if not thread.fetchable() or (masked is not None
                                          and masked[thread.tid]):
                continue
            stall = thread.stall_until
            if stall <= now:
                return now
            if horizon is None or stall < horizon:
                horizon = stall
        return horizon

    def note_idle_cycles(self, cycles):
        """Replay ``cycles`` consecutive idle :meth:`select_thread` calls.

        The idle-cycle fast-forward skips cycles where no thread is
        fetchable, but some policies mutate state even on a wasted slot:
        True RR advances its modulo counter once per call, and
        Conditional Switch consumes a pending switch (rotating with the
        ``fetchable(None)`` relaxation) the first time. Masked RR and
        ICOUNT only move their pointers when a thread is actually
        selected, so an idle run leaves them untouched.
        """
        if self.policy is FetchPolicy.TRUE_RR:
            self._rr_counter += cycles
        elif self.policy is FetchPolicy.COND_SWITCH and self._switch_pending:
            self._switch_pending = False
            self._advance_current()

    def note_switch_trigger(self):
        """Decoder saw a switch-trigger instruction (Conditional Switch)."""
        if self.policy is FetchPolicy.COND_SWITCH:
            self._switch_pending = True

    def set_mask(self, tid, masked, now=0):
        """Masked-RR: suspend/resume fetching for ``tid``.

        Only actual transitions are recorded (the pipeline re-asserts
        the desired mask state every cycle), so an attached sink sees
        one :class:`~repro.obs.events.MaskEvent` per suspend/resume.
        """
        if self.masked[tid] == masked:
            return
        self.masked[tid] = masked
        bus = self.bus
        if bus is not None:
            bus.emit(MaskEvent(now, tid, masked))

    # ------------------------------------------------------- block fetch

    def fetch_block(self, thread):
        """Fetch one aligned block for ``thread``, updating its PC.

        Fetching stops at the block boundary, after a predicted-taken
        control transfer, at a ``halt``, or at a ``jalr`` whose target
        the BTB cannot supply (the thread then stalls until the ``jalr``
        resolves).

        Blocks that contain no conditional branch and no ``jalr`` are
        *static*: the walk depends only on the starting PC (``j``/``jal``
        are always predicted taken with a fixed target), so it is done
        once per run and memoized — a fetch then costs one dict hit.
        Blocks that consult predictor state are re-walked every time.
        """
        pc = thread.pc
        cached = self._static_blocks.get(pc, False)
        if cached is False:
            cached = self._build_static_block(pc)
            self._static_blocks[pc] = cached
        if cached is not None:
            items, next_pc, halts = cached
            if halts:
                thread.fetch_halted = True
            thread.pc = next_pc
            return items
        instructions = self.program.instructions
        limit = len(instructions)
        room = BLOCK - pc % BLOCK
        pool = self._item_pool
        count = 0
        for _ in range(room):
            if not 0 <= pc < limit:
                thread.fetch_halted = True
                break
            instr = instructions[pc]
            item = pool[count]
            count += 1
            item.pc = pc
            item.instr = instr
            kind = instr.info.ctl_kind
            if kind == 0:
                item.predicted_taken = False
                item.predicted_target = None
                pc += 1
            elif kind == 1:  # conditional branch
                taken = self.predictor.predict(pc, thread.tid)
                item.predicted_taken = taken
                item.predicted_target = pc + 1 + instr.imm if taken else pc + 1
                if taken:
                    pc = item.predicted_target
                    break
                pc += 1
            elif kind == 2:  # j / jal
                item.predicted_taken = True
                item.predicted_target = instr.imm
                pc = instr.imm
                break
            elif kind == 3:  # jalr
                target = self.predictor.btb_lookup(pc, thread.tid)
                item.predicted_taken = True
                item.predicted_target = target
                if target is None:
                    thread.jalr_wait = -1  # tag filled in by decode
                else:
                    pc = target
                break
            else:  # halt
                item.predicted_taken = False
                item.predicted_target = None
                thread.fetch_halted = True
                pc += 1
                break
        if thread.jalr_wait is None:
            thread.pc = pc
        return pool[:count]

    def _build_static_block(self, pc):
        """Memoizable walk from ``pc``, or ``None`` if input-dependent.

        Mirrors the dynamic walk in :meth:`fetch_block` for the static
        opcode kinds only (plain, ``j``/``jal``, ``halt``, running off
        the program): the resulting items, next PC, and halt flag are
        identical every time this PC starts a block. The cached
        ``FetchedInstr`` objects are immutable once built — decode only
        reads them — so one list is shared across every fetch.
        """
        instructions = self.program.instructions
        limit = len(instructions)
        items = []
        halts = False
        for _ in range(BLOCK - pc % BLOCK):
            if not 0 <= pc < limit:
                halts = True
                break
            instr = instructions[pc]
            kind = instr.info.ctl_kind
            if kind == 1 or kind == 3:  # branch / jalr: predictor state
                return None
            item = FetchedInstr(pc, instr)
            items.append(item)
            if kind == 0:
                pc += 1
            elif kind == 2:  # j / jal: statically predicted taken
                item.predicted_taken = True
                item.predicted_target = instr.imm
                pc = instr.imm
                break
            else:  # halt
                halts = True
                pc += 1
                break
        return items, pc, halts
