"""The cycle-accurate multithreaded superscalar pipeline simulator.

Stage order within one simulated cycle::

    commit -> writeback -> issue -> decode -> fetch -> store-buffer drain

With result bypassing disabled, issue runs *before* writeback, so a
dependent instruction sees a result one cycle later — the paper's
"Bypassing of results: Have / No" configuration knob.

Memory-ordering model
---------------------
A store executes in the store unit (address and value computed, entry
DONE) but its value stays in the scheduling unit until the block
commits; at commit it moves to the store buffer, and drains to the data
cache one entry per cycle. A block whose stores do not fit in the store
buffer cannot commit that cycle. Because every buffered store is already
committed, the machine cannot deadlock on store-buffer space, while the
performance-visible behaviour of the paper's restricted load/store
policy is preserved: loads stall behind older same-thread stores with
unresolved or matching addresses, and the 8-entry buffer throttles
store-heavy code. Loads forward from older same-thread stores still in
the SU and from committed store-buffer entries; ``tas`` additionally
waits until it is non-speculative and the buffer holds no write to its
address, then performs an atomic read-modify-write on memory.

Fast-path engine
----------------
The simulator is performance-critical (every figure of the evaluation
re-simulates a workload grid), so the hot path avoids work that cannot
change the outcome:

* Stage calls are guarded: writeback only runs when the earliest
  pending result is due, issue only when the SU has an issuable entry,
  decode and fetch only when the fetch buffer is in the right state.
* Completion is a calendar queue — per-ready-cycle buckets plus a heap
  of distinct cycles — instead of a heap of individual results, and
  ALU/FP results come from per-instruction execution closures
  (:func:`repro.isa.semantics.build_exec`).
* Ordering and occupancy questions are answered by the scheduling
  unit's incremental indexes instead of per-query scans (see
  :mod:`repro.core.scheduler`).
* ``run()`` fast-forwards across provably inert cycles — every stall
  class, not just full idle. When nothing can write back, commit,
  decode, fetch, or drain this cycle, and a side-effect-free mirror of
  the issue scan proves no ready entry can issue either, the machine
  state is frozen and the clock jumps straight to the earliest
  next-event horizon: the writeback calendar's next completion (which
  subsumes dcache-miss service), the store buffer's drain slot, the
  earliest divider release, or a thread's instruction-cache refill.
  Each component exposes its own horizon (``FuPool.next_free``,
  ``StoreBuffer.next_drain_cycle``, ``FetchUnit.fetch_horizon``,
  ``DataCache.refill_horizon``); the skipped cycles are charged to the
  same stall counters — and, via the attribution layer, the same stall
  *class* — the per-cycle loop would have used.
  ``MachineConfig(fast_forward=False)`` disables the jump; both modes
  produce bit-identical statistics (enforced by
  ``tests/test_golden_cycles.py`` and the differential suite).

Bump :data:`ENGINE_VERSION` whenever a change alters any simulated
cycle count — or deliberately, to invalidate persisted results after a
major engine rework; the persistent result cache
(``repro.harness.diskcache``) keys on it.
"""

import gc
import heapq

from repro.asm.program import Program
from repro.core.branch import BranchPredictor
from repro.core.config import CommitPolicy, FetchPolicy, MachineConfig
from repro.core.execute import FuPool
from repro.core.fetch import FetchUnit, ThreadContext
from repro.core.scheduler import (DONE, ISSUED, SchedulingUnit, SUBlock,
                                  SUEntry, WAITING)
from repro.core.stats import SimStats
from repro.isa.opcodes import FU_CLASSES, FuClass, Op
from repro.isa.registers import REG_ZERO, RegisterFile
from repro.isa.semantics import branch_taken, build_exec
from repro.mem.cache import DataCache
from repro.mem.memory import MainMemory
from repro.mem.storebuffer import StoreBuffer
# Plain-data event types (no further imports; see repro.obs.__init__ for
# the layering rules). Event objects are only ever constructed when a
# sink is attached (self._bus is not None).
from repro.obs.events import (CommitEvent, DecodeEvent, FetchEvent,
                              IssueEvent, SquashEvent, StallEvent,
                              WritebackEvent)

#: Simulator timing-model version. Bump on ANY change that can alter a
#: simulated cycle count; persisted results keyed on an older version
#: are then ignored rather than silently reused. Version 3 is the
#: next-event fast-forward engine — cycle counts are unchanged, but the
#: bump retires every cache entry produced before its safety nets were
#: in place. Version 4 stops the fast-forward from skipping the cycle in
#: which a masked-RR mask changes; fast-forward runs of such shapes now
#: match the per-cycle loop.
ENGINE_VERSION = 4

_NO_FORWARD = object()

_DIV_CLASSES = (FuClass.IDIV, FuClass.FPDIV)

_LOAD_FU_BIT = 1 << FU_CLASSES.index(FuClass.LOAD)

# Issue-condition flags observed by the skip engine's horizon scan.
# Mirror repro.obs.attribution's _F_SYNC/_F_DCACHE/_F_FU (the pipeline
# only imports plain-data event types from repro.obs; keep in sync).
_F_SYNC = 1
_F_DCACHE = 2
_F_FU = 4


class DeadlockError(RuntimeError):
    """The simulation exceeded its cycle budget without finishing."""


class SimulationHang(DeadlockError):
    """The pipeline made no commit progress for ``hang_cycles`` cycles.

    Raised by the no-progress watchdog in :meth:`PipelineSim.run` —
    long before the blunt ``max_cycles`` guard would fire — with a
    machine-state dump attached as :attr:`report` (scheduling unit,
    per-thread fetch state, store buffer, pending writebacks, and the
    stall-attribution breakdown when one is attached). Subclasses
    :class:`DeadlockError` so existing guards keep catching it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        #: Plain-data machine-state snapshot (see ``_hang_report``).
        self.report = report or {}


class PipelineSim:
    """Simulate ``program`` on the configured multithreaded SDSP.

    Usage::

        sim = PipelineSim(program, MachineConfig(nthreads=4))
        stats = sim.run()
        print(stats.summary())
    """

    def __init__(self, program, config=None):
        if not isinstance(program, Program):
            raise TypeError(f"expected Program, got {type(program).__name__}")
        self.config = config or MachineConfig()
        # Diagnose nonsensical configurations (zero units of a class the
        # program needs, impossible widths) in microseconds here instead
        # of as a deadlocked simulation later.
        self.config.validate(program)
        self.program = program
        cfg = self.config
        self.regs = RegisterFile(cfg.nthreads)
        self.memory = MainMemory(cfg.mem_words)
        self.memory.load_image(program.data)
        self.cache = DataCache(cfg.cache)
        self.icache = DataCache(cfg.icache) if cfg.icache else None
        self.store_buffer = StoreBuffer(cfg.store_buffer_depth)
        self.predictor = BranchPredictor(
            bits=cfg.predictor_bits, entries=cfg.predictor_entries,
            btb_entries=cfg.btb_entries, nthreads=cfg.nthreads,
            shared=cfg.shared_predictor, kind=cfg.predictor_kind)
        self.stats = SimStats(cfg)
        self.threads = [ThreadContext(tid, program.entry)
                        for tid in range(cfg.nthreads)]
        self.su = SchedulingUnit(cfg)
        self.fetch_unit = FetchUnit(cfg, program, self.predictor, self.threads)
        self.fetch_unit.occupancy_of = self._thread_occupancy
        # ICOUNT fast path: select_thread only runs while the fetch
        # buffer is empty, when SU occupancy is the full occupancy.
        self.fetch_unit.tid_counts = self.su._tid_count
        self.fu_pool = FuPool(cfg, self.stats)
        self.fetch_buffer = None  # (ThreadContext, [FetchedInstr])
        self.cycle = 0
        self._next_tag = 0
        # Completion calendar: ready cycle -> entries in schedule order,
        # plus a min-heap of the distinct ready cycles.
        self._wb_buckets = {}
        self._wb_cycles = []
        self._halted = 0  # threads whose HALT has committed
        # Hot-loop copies of configuration fields (attribute chains cost).
        self._issue_width = cfg.issue_width
        self._writeback_width = cfg.writeback_width
        self._bypassing = cfg.bypassing
        self._commit_blocks = cfg.commit_blocks
        self._renaming = cfg.renaming
        self._masked = cfg.fetch_policy is FetchPolicy.MASKED_RR
        self._fast_forward = cfg.fast_forward
        self._nthreads = cfg.nthreads
        self._latency = self.fu_pool._latency  # fu_index -> result latency
        # Observability (repro.obs). All three stay None unless
        # explicitly attached; every hook in the hot loop is guarded by
        # a single ``is None`` check, so a plain run pays nothing else.
        self._bus = None       # EventBus while >=1 sink is subscribed
        self._attr = None      # StallAttribution (attach_attribution)
        self._metrics = None   # IntervalMetrics (attach_metrics)

    # ----------------------------------------------------- observability

    def add_sink(self, sink):
        """Subscribe ``sink`` (any callable taking one event); returns it.

        The first sink creates the event bus, flipping every hook point
        from a bare predicate check to actual event emission.
        """
        if self._bus is None:
            from repro.obs.events import EventBus
            self._bus = EventBus()
            self.fetch_unit.bus = self._bus
        return self._bus.subscribe(sink)

    def remove_sink(self, sink):
        """Unsubscribe ``sink``; dropping the last sink drops the bus."""
        bus = self._bus
        if bus is None:
            return
        bus.unsubscribe(sink)
        if not bus.sinks:
            self._bus = None
            self.fetch_unit.bus = None

    def attach_attribution(self, attr=None):
        """Attach per-cycle stall attribution (before :meth:`run`).

        Returns the :class:`~repro.obs.attribution.StallAttribution`;
        its breakdown also lands on ``stats.stall_breakdown``.
        """
        if attr is None:
            from repro.obs.attribution import StallAttribution
            attr = StallAttribution()
        self._attr = attr
        return attr

    def attach_metrics(self, metrics=None, interval=64):
        """Attach interval-metric sampling (before :meth:`run`).

        Returns the :class:`~repro.obs.metrics.IntervalMetrics`; its
        histograms also land on ``stats.interval_metrics``.
        """
        if metrics is None:
            from repro.obs.metrics import IntervalMetrics
            metrics = IntervalMetrics(interval=interval)
        metrics.bind(self.config)
        self._metrics = metrics
        return metrics

    # ------------------------------------------------------------ driver

    @property
    def done(self):
        return all(thread.done for thread in self.threads)

    def run(self):
        """Run to completion and return the populated :class:`SimStats`."""
        max_cycles = self.config.max_cycles
        nthreads = self.config.nthreads
        fast_forward = self._fast_forward
        step = self.step
        skip = self._skip_inert_cycles
        # No-progress watchdog: a machine where no block commits for
        # hang_cycles is wedged (the longest legitimate commit gap —
        # cache-miss pileups, divide chains, SU drain — is orders of
        # magnitude shorter), so raise a diagnosable SimulationHang
        # instead of silently spinning to max_cycles.
        hang_limit = self.config.hang_cycles
        stats = self.stats
        last_committed = -1
        progress_cycle = 0
        # The run loop allocates at a high, steady rate with almost no
        # garbage surviving a cycle; collector passes only add overhead.
        # The fused loop below pre-binds every per-cycle attribute and
        # inlines the body of ``step``; it is cycle-for-cycle identical
        # to calling ``step`` in a loop and is used only when ``step``
        # is the stock method (tests replace it to model wedges).
        fused = ("step" not in self.__dict__
                 and type(self).step is PipelineSim.step)
        su = self.su
        store_buffer = self.store_buffer
        cache = self.cache
        memory = self.memory
        attr = self._attr
        metrics = self._metrics
        wb_cycles = self._wb_cycles
        bypassing = self._bypassing
        commit = self._commit
        issue = self._issue
        writeback = self._writeback
        decode = self._decode
        fetch = self._fetch
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while self._halted < nthreads:
                if self.cycle >= max_cycles:
                    raise DeadlockError(
                        f"no completion after {max_cycles} cycles; "
                        f"threads: {self.threads}")
                if fast_forward:
                    skip()
                if fused:
                    # Inlined ``step`` — keep in sync with it.
                    now = self.cycle
                    committed = commit(now)
                    if bypassing:
                        if wb_cycles and wb_cycles[0] <= now:
                            writeback(now)
                        if su.issuable:
                            issue(now)
                    else:
                        if su.issuable:
                            issue(now)
                        if wb_cycles and wb_cycles[0] <= now:
                            writeback(now)
                    if self.fetch_buffer is not None:
                        decode(now)
                    if self.fetch_buffer is None:
                        fetch(now)
                    if store_buffer.entries:
                        store_buffer.drain_one(cache, memory, now)
                    stats.su_occupancy_sum += su._entry_count
                    if attr is not None:
                        attr.close_cycle(self, now, committed)
                    if metrics is not None:
                        metrics.on_cycle(self, now)
                    self.cycle = now + 1
                else:
                    step()
                if hang_limit:
                    committed = stats.committed
                    if committed != last_committed:
                        last_committed = committed
                        progress_cycle = self.cycle
                    elif self.cycle - progress_cycle >= hang_limit:
                        raise self._hang_error(hang_limit)
        finally:
            if gc_was_enabled:
                gc.enable()
        # Drain remaining (all committed) stores so memory is final.
        now = self.cycle
        while self.store_buffer.entries:
            self.store_buffer.drain_one(self.cache, self.memory, now)
            now += 1
        self._finalize_stats()
        return self.stats

    def step(self):
        """Advance the machine by one cycle."""
        now = self.cycle
        su = self.su
        committed = self._commit(now)
        cycles = self._wb_cycles
        if self._bypassing:
            if cycles and cycles[0] <= now:
                self._writeback(now)
            if su.issuable:
                self._issue(now)
        else:
            if su.issuable:
                self._issue(now)
            if cycles and cycles[0] <= now:
                self._writeback(now)
        if self.fetch_buffer is not None:
            self._decode(now)
        if self.fetch_buffer is None:
            self._fetch(now)
        store_buffer = self.store_buffer
        if store_buffer.entries:
            store_buffer.drain_one(self.cache, self.memory, now)
        stats = self.stats
        stats.su_occupancy_sum += su._entry_count
        attr = self._attr
        if attr is not None:
            attr.close_cycle(self, now, committed)
        metrics = self._metrics
        if metrics is not None:
            metrics.on_cycle(self, now)
        self.cycle = now + 1

    def _skip_inert_cycles(self):
        """Jump the clock over cycles in which nothing can happen.

        A cycle is provably inert when the earliest pending result is
        not due, the front end is stalled (fetch buffer blocked on a
        full SU / scoreboard hazard, or no thread fetchable — masked
        threads count as unfetchable once their masks are up to date),
        the store buffer cannot drain, no block can commit, and
        :meth:`_issue_horizon` proves no ready entry can issue. Machine
        state is then frozen: the only time-dependent predicates are the
        ones the next-event horizon covers — the earliest pending result
        (which subsumes dcache refill completions), the store buffer's
        drain slot, the earliest unpipelined-divider release, and a
        thread's instruction-cache refill. The clock jumps to the minimum of
        those, for *every* stall class (fu-latency, dcache-miss,
        commit-wait, sync), and the skipped cycles are charged to
        exactly the stall counters — and attribution class — the
        per-cycle loop would have used, so statistics are bit-identical
        either way (``MachineConfig(fast_forward=False)`` runs the slow
        path).
        """
        now = self.cycle
        pending = self._wb_cycles
        if pending and pending[0] <= now:
            return
        if self._masked and self._desired_masks() != self.fetch_unit.masked:
            # Masks are re-derived in this cycle's commit stage; a
            # writeback in the previous cycle may have lifted (or set)
            # one, so the front end is not provably stalled.
            return
        fetch_idle = self.fetch_buffer is None
        if fetch_idle:
            fetch_horizon = self.fetch_unit.fetch_horizon(now)
            if fetch_horizon is not None and fetch_horizon <= now:
                return  # a thread could be selected this cycle
        else:
            fetch_horizon = None
            if not self._decode_blocked():
                return
        store_buffer = self.store_buffer
        drain_at = None
        if store_buffer.entries:
            drain_at = store_buffer.next_drain_cycle(now)
            if drain_at <= now:
                return
        su = self.su
        index = su.choose_commit_block(self._commit_blocks)
        if index is not None:
            block = su.blocks[index]
            free = store_buffer.depth - len(store_buffer.entries)
            if block.store_count <= free:
                return  # a block will commit this cycle
        flags = 0
        fu_free_at = None
        if su.issuable:
            blocked = self._issue_horizon(now)
            if blocked is None:
                return  # some ready entry can issue this cycle
            fu_free_at, flags = blocked
        # Nothing can happen before the next event.
        target = pending[0] if pending else None
        if drain_at is not None and (target is None or drain_at < target):
            target = drain_at
        if fu_free_at is not None and (target is None or fu_free_at < target):
            target = fu_free_at
        if fetch_horizon is not None and (target is None
                                          or fetch_horizon < target):
            target = fetch_horizon
        if target is None or target <= now:
            return
        skipped = target - now
        stats = self.stats
        if fetch_idle:
            stats.fetch_idle_cycles += skipped
            self.fetch_unit.note_idle_cycles(skipped)
        else:
            stats.decode_stall_cycles += skipped
        su_full = su.full
        if su_full:
            stats.su_stall_cycles += skipped
        stats.su_occupancy_sum += su._entry_count * skipped
        attr = self._attr
        if attr is not None:
            attr.note_skip(self, now, skipped, su_full, fetch_idle, flags)
        metrics = self._metrics
        if metrics is not None:
            metrics.note_skip(self, skipped)
        bus = self._bus
        if bus is not None:
            bus.emit(StallEvent(
                now, self._span_reason(now, su_full, fetch_idle, flags),
                skipped))
        self.cycle = target

    def _issue_horizon(self, now):
        """Prove no ready entry can issue at ``now``, without issuing.

        A side-effect-free mirror of one :meth:`_issue` scan: it visits
        exactly the candidates issue would visit and applies the same
        per-entry checks against pristine cycle-start state (the first
        issuing candidate exists for :meth:`_issue` iff it exists
        here). Returns ``None`` as soon as any candidate could issue;
        otherwise ``(fu_free_at, flags)``, where ``fu_free_at`` is the
        earliest release among blocking unpipelined units (``None`` if
        no candidate is FU-blocked) and ``flags`` carries the stall
        classes observed. Pipelined classes are always free at a fresh
        cycle, as is cache port arbitration, so the only cross-cycle FU
        state is the dividers' — which is exactly what
        :meth:`FuPool.next_free` reports.
        """
        pool = self.fu_pool
        fu_free_at = None
        flags = 0
        remaining = self.su.issuable
        for entry in self.su.ready_entries():
            info = entry.info
            fu_index = info.fu_index
            if not pool.available(fu_index, now):
                flags |= _F_FU
                free_at = pool.next_free(fu_index, now)
                if fu_free_at is None or free_at < fu_free_at:
                    fu_free_at = free_at
            elif not info.is_load:
                return None
            else:
                why = self._load_blocked(entry, now)
                if not why:
                    return None
                flags |= why
            remaining -= 1
            if remaining == 0:
                break
        return fu_free_at, flags

    def _load_blocked(self, entry, now):
        """Why a ready load cannot issue at ``now`` — 0 when it can.

        Mirrors the decision chain of :meth:`_issue_load` (including
        the address computation, which issue would redo identically)
        without performing the access. The cache-port checks can never
        fail at a fresh cycle — ports are per-cycle state — and are
        kept only to stay textually parallel with the issue path.
        """
        entry.addr = addr = int(entry.vals[0]) + entry.instr.imm
        su = self.su
        if su.older_mem_unissued(entry):
            return _F_SYNC
        if entry.instr.op is Op.TAS:
            if not su.all_older_done(entry):
                return _F_SYNC
            if self.store_buffer.has_match(addr):
                return _F_SYNC
            if not self.cache.can_access(now):
                return _F_DCACHE
            return 0
        if su.older_store_conflict(entry):
            return _F_SYNC
        if self._forward_value(entry) is not _NO_FORWARD:
            return 0
        if not 0 <= addr < self.memory.size:
            return 0
        if not self.cache.can_access(now):
            return _F_DCACHE
        return 0

    def _span_reason(self, now, su_full, fetch_idle, flags):
        """Stall-class label for a skipped span's :class:`StallEvent`.

        Same priority order as the attribution layer's
        ``close_cycle``/``note_skip``, computed from engine state alone
        so event sinks see per-class reasons even without attribution
        attached.
        """
        if su_full:
            return "su-full"
        if flags & _F_SYNC:
            return "sync"
        if flags & _F_DCACHE or self.cache.refill_horizon(now) is not None:
            return "dcache-miss"
        if flags & _F_FU:
            return "fu-contention"
        if self._wb_cycles and not self.su.issuable:
            return "fu-contention"
        if fetch_idle:
            return "fetch-idle"
        return "decode-stall"

    def _decode_blocked(self):
        """Would :meth:`_decode` stall this cycle (no state change)?"""
        su = self.su
        if len(su.blocks) >= su.capacity_blocks:
            return True
        if self._renaming:
            return False
        thread, items = self.fetch_buffer
        return self._scoreboard_hazard(thread.tid, items)

    def _finalize_stats(self):
        stats = self.stats
        stats.cycles = self.cycle
        stats.cache_accesses = self.cache.stats.accesses
        stats.cache_hits = self.cache.stats.hits
        stats.cache_misses = self.cache.stats.misses
        if self.icache is not None:
            icstats = self.icache.stats
            stats.icache_accesses = icstats.accesses
            # None (rendered "n/a"), not 1.0, when nothing was fetched.
            stats.icache_hit_rate = (icstats.hit_rate if icstats.accesses
                                     else None)
        stats.predictor_accuracy = self.predictor.accuracy
        self.fu_pool.flush_stats()
        if self._attr is not None:
            stats.stall_breakdown = self._attr.to_dict()
        if self._metrics is not None:
            stats.interval_metrics = self._metrics.to_dict()

    # ------------------------------------------------------------ commit

    def _commit(self, now):
        """Commit stage. Returns 1 if a block retired, 2 if the commit
        slot was lost to a full scheduling unit, 0 otherwise (the stall
        attribution's ``commit_status``)."""
        su = self.su
        blocks = su.blocks
        # Flexible Result Commit, inlined from su.choose_commit_block
        # (keep in sync): the first ready bottom block whose thread is
        # not represented among the lower, uncommitted blocks.
        limit = len(blocks)
        commit_blocks = self._commit_blocks
        if commit_blocks < limit:
            limit = commit_blocks
        index = None
        blocked = 0  # bitmask of thread ids seen in lower blocks
        for i in range(limit):
            block = blocks[i]
            bit = 1 << block.tid
            if not block.not_done and not blocked & bit:
                # A block additionally needs store-buffer room for its
                # stores.
                store_buffer = self.store_buffer
                if block.store_count <= (store_buffer.depth
                                         - len(store_buffer.entries)):
                    index = i
                break
            blocked |= bit
        if index is None:
            if len(blocks) >= su.capacity_blocks:
                self.stats.su_stall_cycles += 1
                status = 2
            else:
                status = 0
        else:
            self._commit_block(index)
            status = 1
        if self._masked:
            self._update_masks(now)
        return status

    def _commit_block(self, index):
        """Retire the block at ``index``: one walk does both the
        scheduling-unit removal (inlined from ``SchedulingUnit.pop_block``
        — keep in sync) and the architectural commit actions."""
        su = self.su
        block = su.blocks.pop(index)
        tid = block.tid
        entries = block.entries
        now = self.cycle
        bus = self._bus
        if bus is not None:
            bus.emit(CommitEvent(now, tid, [entry.tag for entry in entries]))
        stats = self.stats
        regs = self.regs
        # Register-write fast path: commit-time destinations come from
        # validated programs, so the bounds checks of ``regs.write``
        # reduce to the r0 discard and the 32-bit integer wrap. Keep in
        # sync with RegisterFile.write.
        regs_arr = regs._regs
        reg_base = tid * regs.k
        predictor = self.predictor
        by_tag = su.by_tag
        stores = su._tid_stores[tid]
        writers = su._writers[tid]
        for entry in entries:
            by_tag.pop(entry.tag, None)
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
                result = entry.result
                if result is not None and dest != REG_ZERO:
                    if isinstance(result, int):
                        result &= 0xFFFFFFFF
                        if result >= 0x80000000:
                            result -= 0x100000000
                    regs_arr[reg_base + dest] = result
            info = entry.info
            if info.is_store:
                stores.remove(entry)
                if not info.is_load:
                    sbe = self.store_buffer.allocate(entry.tag, tid,
                                                     entry.addr,
                                                     entry.vals[1])
                    sbe.committed = True
            elif info.is_control:
                if info.is_branch:
                    predictor.update(entry.pc, entry.actual_taken, tid)
                else:
                    op = entry.instr.op
                    if op is Op.JALR:
                        predictor.btb_update(entry.pc, entry.actual_target,
                                             tid)
                    elif op is Op.HALT:
                        thread = self.threads[tid]
                        if not thread.done:
                            thread.done = True
                            self._halted += 1
                        stats.finish_cycle[tid] = now
            entry.block = None  # break the entry<->block reference cycle
        count = len(entries)
        su._entry_count -= count
        su._tid_count[tid] -= count
        stats.committed_per_thread[tid] += count
        stats.committed += count
        stats.commit_blocks += 1

    def _update_masks(self, now):
        """Masked-RR masking.

        ``commit_stall`` (the paper's criterion): suspend fetching for a
        thread while it fails to commit from the lower-most block.
        ``long_latency`` (ablation): suspend threads with an unfinished
        divide in flight — the paper notes masking is most beneficial
        when the failing operation has a long latency.
        """
        set_mask = self.fetch_unit.set_mask
        for tid, masked in enumerate(self._desired_masks()):
            set_mask(tid, masked, now)

    def _desired_masks(self):
        """Per-thread mask state the current machine state calls for."""
        desired = [False] * self.config.nthreads
        blocks = self.su.blocks
        if self.config.masked_criterion == "commit_stall":
            if blocks and blocks[0].not_done:
                desired[blocks[0].tid] = True
        else:
            for tid in self.su.threads_with_inflight(_DIV_CLASSES):
                desired[tid] = True
        return desired

    # --------------------------------------------------------- writeback

    def _writeback(self, now):
        budget = self._writeback_width
        buckets = self._wb_buckets
        cycles = self._wb_cycles
        heappop = heapq.heappop
        bus = self._bus
        su = self.su
        while cycles and cycles[0] <= now:
            cyc = cycles[0]
            bucket = buckets[cyc]
            i = 0
            n = len(bucket)
            while i < n:
                entry = bucket[i]
                i += 1
                if entry.squashed:
                    continue  # squashed results vanish; no budget spent
                budget -= 1
                # Completion, inlined from the former _complete helper
                # (this loop is its only caller).
                entry.state = DONE
                entry.block.not_done -= 1
                if bus is not None:
                    bus.emit(WritebackEvent(now, entry.tag, entry.tid))
                waiters = entry.waiters
                if waiters:
                    entry.waiters = None
                    result = entry.result
                    for waiter, index in waiters:
                        if waiter.squashed:
                            continue
                        waiter.vals[index] = result
                        pending = waiter.pending - 1
                        waiter.pending = pending
                        if not pending:
                            # The waiter is necessarily still WAITING:
                            # it could not have issued with an operand
                            # outstanding.
                            su.issuable += 1
                            winfo = waiter.info
                            wblock = waiter.block
                            wblock.ready += 1
                            wblock.ready_fu_mask |= 1 << winfo.fu_index
                            if winfo.is_load:
                                wblock.ready_loads += 1
                            elif winfo.is_store:
                                wblock.ready_stores += 1
                if entry.info.is_control:
                    self._resolve_control(entry, now)
                if budget == 0:
                    break
            if i >= n:
                del buckets[cyc]
                heappop(cycles)
            else:
                # Budget exhausted mid-bucket: the rest writes back on a
                # later cycle, in the same order.
                buckets[cyc] = bucket[i:]
            if budget == 0:
                return

    def _resolve_control(self, entry, now):
        op = entry.instr.op
        thread = self.threads[entry.tid]
        redirect = None
        if entry.info.is_branch:
            self.stats.branches += 1
            self.predictor.record_outcome(entry.predicted_taken,
                                          entry.actual_taken)
            if entry.actual_taken != entry.predicted_taken:
                redirect = entry.actual_target
        elif op is Op.JALR:
            if thread.jalr_wait == entry.tag:
                thread.redirect(entry.actual_target)
                return
            if entry.predicted_target != entry.actual_target:
                redirect = entry.actual_target
        if redirect is None:
            return
        self.stats.mispredicts += 1
        squashed = self.su.squash_younger(entry)
        self.stats.squashed += len(squashed)
        bus = self._bus
        if squashed and bus is not None:
            bus.emit(SquashEvent(now, entry.tid,
                                 [victim.tag for victim in squashed]))
        if self.fetch_buffer is not None and self.fetch_buffer[0] is thread:
            self.fetch_buffer = None
        thread.redirect(redirect)

    # -------------------------------------------------------------- issue

    def _issue(self, now):
        budget = self._issue_width
        # Local count of candidates lets the scan stop as soon as every
        # issuable entry has been visited instead of walking the whole SU.
        remaining = self.su.issuable
        su = self.su
        pool = self.fu_pool
        latency = self._latency
        nthreads = self._nthreads
        attr = self._attr
        stats = self.stats
        bus = self._bus
        wb_buckets = self._wb_buckets
        wb_cycles = self._wb_cycles
        heappush = heapq.heappush
        # FuPool internals, inlined for the pipelined-class fast path.
        # Pipelined classes (occupancy 1) are fully described by the
        # per-cycle acquire counter; only the dividers take the generic
        # ``acquire`` path. Keep in sync with FuPool.acquire/available.
        occupancy = pool._occupancy
        used_cycle = pool._used_cycle
        used = pool._used
        fu_counts = pool._counts
        fu_busy = pool._busy
        # Per-cycle short-circuit masks. A functional-unit class with no
        # free unit stays exhausted for the rest of the cycle, and once a
        # thread's oldest waiting memory op fails to issue, every younger
        # load of that thread is doomed by the in-order memory rule —
        # skipping both reproduces exactly what the failed attempts
        # would have concluded, without paying for them.
        fu_blocked = 0  # bitmask over fu_index
        mem_blocked = 0  # bitmask over tid
        for block in su.blocks:
            ready = block.ready
            if not ready:
                continue
            # When every candidate in the block is a load and loads of
            # this thread are already doomed (no load unit free, or an
            # older memory op failed), the whole block can be skipped.
            ready_loads = block.ready_loads
            block_tbit = 1 << block.tid
            if ready_loads == ready and (
                    fu_blocked & _LOAD_FU_BIT
                    or mem_blocked & block_tbit):
                remaining -= ready
                if remaining == 0:
                    return
                continue
            if not block.ready_fu_mask & ~fu_blocked:
                # Every candidate's unit class is already exhausted this
                # cycle (the mask is a conservative superset), so the
                # per-entry visits could only re-conclude "blocked"
                # without setting new flags. Mirror their one side
                # effect: a doomed ready memory op blocks the thread's
                # younger loads for the rest of the scan.
                if ready_loads or block.ready_stores:
                    mem_blocked |= block_tbit
                remaining -= ready
                if remaining == 0:
                    return
                continue
            for entry in block.entries:
                if entry.state != WAITING or entry.pending:
                    continue
                remaining -= 1
                ready -= 1
                issued = False
                info = entry.info
                fu_index = info.fu_index
                bit = 1 << fu_index
                if info.is_load:
                    # The load/store class is always pipelined, so its
                    # availability is just the per-cycle counter.
                    tbit = 1 << entry.tid
                    if mem_blocked & tbit:
                        pass
                    elif fu_blocked & bit or (
                            used_cycle[fu_index] == now
                            and used[fu_index] >= fu_counts[fu_index]):
                        if not fu_blocked & bit and attr is not None:
                            attr.flag_fu()
                        fu_blocked |= bit
                        mem_blocked |= tbit
                    elif self._issue_load(entry, now, latency[fu_index]):
                        issued = True
                    else:
                        mem_blocked |= tbit
                elif fu_blocked & bit:
                    if info.is_store:
                        # An unissued store blocks the thread's younger
                        # loads (in-order memory issue), not its stores.
                        mem_blocked |= 1 << entry.tid
                else:
                    if occupancy[fu_index] == 1:
                        if used_cycle[fu_index] != now:
                            used_cycle[fu_index] = now
                            used[fu_index] = 0
                        unit = used[fu_index]
                        if unit < fu_counts[fu_index]:
                            used[fu_index] = unit + 1
                            fu_busy[fu_index][unit] += 1
                        else:
                            unit = None
                    else:
                        unit = pool.acquire(fu_index, now)
                    if unit is None:
                        fu_blocked |= bit
                        if info.is_store:
                            mem_blocked |= 1 << entry.tid
                        if attr is not None:
                            attr.flag_fu()
                    else:
                        if info.is_store:
                            entry.addr = int(entry.vals[0]) + entry.instr.imm
                            entry.result = None
                        elif info.is_control:
                            self._prepare_control(entry)
                        else:
                            instr = entry.instr
                            fn = instr._exec
                            if fn is None:
                                fn = build_exec(instr)
                            entry.result = fn(entry.vals, entry.tid, nthreads)
                        # Inlined from _schedule (keep in sync). Loads
                        # never reach this arm, so the only memory ops
                        # here are stores.
                        ready_cycle = now + latency[fu_index]
                        entry.state = ISSUED
                        su.issuable -= 1
                        block.ready -= 1
                        if info.is_mem:
                            su._tid_mem_waiting[entry.tid].remove(entry)
                            block.ready_stores -= 1
                        wb_bucket = wb_buckets.get(ready_cycle)
                        if wb_bucket is None:
                            wb_buckets[ready_cycle] = [entry]
                            heappush(wb_cycles, ready_cycle)
                        else:
                            wb_bucket.append(entry)
                        stats.issued += 1
                        if bus is not None:
                            instr = entry.instr
                            text = instr._text
                            if text is None:
                                text = instr.text()
                            bus.emit(IssueEvent(now, entry.tag, entry.tid,
                                                entry.pc, fu_index, unit,
                                                ready_cycle, text))
                        issued = True
                if issued:
                    budget -= 1
                    if budget == 0:
                        return
                if remaining == 0:
                    return
                if ready == 0:
                    break  # no more candidates in this block

    def _issue_load(self, entry, now, latency):
        entry.addr = addr = int(entry.vals[0]) + entry.instr.imm
        su = self.su
        attr = self._attr
        # In-order memory issue, inlined from su.older_mem_unissued:
        # the thread's oldest waiting memory op must be this entry.
        head = su._tid_mem_waiting[entry.tid][0]
        if head is not entry and head.order < entry.order:
            if attr is not None:
                attr.flag_sync()
            return False
        if entry.instr.op is Op.TAS:
            if not su.all_older_done(entry):
                if attr is not None:
                    attr.flag_sync()
                return False
            if self.store_buffer.has_match(addr):
                if attr is not None:
                    attr.flag_sync()
                return False
            if not self.cache.can_access(now):
                if attr is not None:
                    attr.flag_dcache()
                return False
            unit = self.fu_pool.acquire(entry.info.fu_index, now)
            ready = self.cache.access(addr, now) + latency
            if attr is not None and ready > now + latency:
                attr.note_miss(ready)
            entry.result = self.memory.read(addr)
            self.memory.write(addr, 1)
            self._schedule(entry, ready, unit)
            return True
        # One walk over the thread's older in-flight stores covers both
        # the restricted load/store conflict check and the SU leg of
        # store-to-load forwarding (inlined from older_store_conflict
        # and _forward_value; keep in sync). A store that matches the
        # address and has not executed — or whose address is still
        # unresolved — blocks the load; otherwise the youngest match
        # forwards its value and is guaranteed DONE.
        order = entry.order
        best = None
        for store in su._tid_stores[entry.tid]:
            if store.order >= order:
                break  # program-ordered: the rest are younger
            st_addr = store.addr
            if store.state != DONE and (st_addr is None or st_addr == addr):
                if attr is not None:
                    attr.flag_sync()
                return False
            if st_addr == addr:
                best = store
        pool = self.fu_pool
        fu_index = entry.info.fu_index
        if best is not None:
            entry.result = best.vals[1]
            self._schedule(entry, now + latency, pool.acquire(fu_index, now))
            return True
        for sbe in reversed(self.store_buffer.entries):
            if sbe.addr == addr:
                entry.result = sbe.value
                self._schedule(entry, now + latency,
                               pool.acquire(fu_index, now))
                return True
        memory = self.memory
        if not 0 <= addr < memory.size:
            # A wrong-path load may compute a garbage address; hardware
            # does not fault speculatively, so return a dummy value. A
            # wild load on the *correct* path is a program bug that the
            # functional simulator reports as a MemoryFault.
            entry.result = 0
            self._schedule(entry, now + latency, pool.acquire(fu_index, now))
            return True
        cache = self.cache
        if not cache.can_access(now):
            if attr is not None:
                attr.flag_dcache()
            return False
        unit = pool.acquire(fu_index, now)
        ready = cache.access(addr, now) + latency
        if attr is not None and ready > now + latency:
            attr.note_miss(ready)
        entry.result = memory.read(addr)
        self._schedule(entry, ready, unit)
        return True

    def _forward_value(self, entry):
        """Store-to-load forwarding.

        Priority: the youngest *older same-thread* store still in the
        scheduling unit (value known once it has executed), then the
        youngest committed store-buffer entry for the address, then
        memory (signalled by ``_NO_FORWARD``).
        """
        addr = entry.addr
        order = entry.order
        best = None
        for candidate in self.su.stores_of(entry.tid):
            if candidate.order >= order:
                break  # program-ordered: the rest are younger
            if candidate.addr == addr:
                best = candidate
        if best is not None:
            # older_store_conflict guarantees the store has executed.
            return best.vals[1]
        for sbe in reversed(self.store_buffer.entries):
            if sbe.addr == addr:
                return sbe.value
        return _NO_FORWARD

    def _prepare_control(self, entry):
        op = entry.instr.op
        pc = entry.pc
        if entry.info.is_branch:
            taken = branch_taken(op, entry.vals[0], entry.vals[1])
            entry.actual_taken = taken
            entry.actual_target = pc + 1 + entry.instr.imm if taken else pc + 1
        elif op is Op.J:
            entry.actual_target = entry.instr.imm
        elif op is Op.JAL:
            entry.actual_target = entry.instr.imm
            entry.result = pc + 1
        elif op is Op.JALR:
            entry.actual_target = int(entry.vals[0])
            entry.result = pc + 1

    def _schedule(self, entry, ready_cycle, unit=None):
        entry.state = ISSUED
        su = self.su
        su.issuable -= 1
        block = entry.block
        block.ready -= 1
        info = entry.info
        if info.is_mem:
            su._tid_mem_waiting[entry.tid].remove(entry)
            if info.is_load:
                block.ready_loads -= 1
            else:
                block.ready_stores -= 1
        bucket = self._wb_buckets.get(ready_cycle)
        if bucket is None:
            self._wb_buckets[ready_cycle] = [entry]
            heapq.heappush(self._wb_cycles, ready_cycle)
        else:
            bucket.append(entry)
        self.stats.issued += 1
        bus = self._bus
        if bus is not None:
            instr = entry.instr
            text = instr._text
            if text is None:
                text = instr.text()
            bus.emit(IssueEvent(self.cycle, entry.tag, entry.tid, entry.pc,
                                info.fu_index, unit, ready_cycle, text))

    # ------------------------------------------------------------- decode

    def _decode(self, now):
        if self.fetch_buffer is None:
            return
        su = self.su
        if len(su.blocks) >= su.capacity_blocks:
            self.stats.decode_stall_cycles += 1
            return
        thread, items = self.fetch_buffer
        tid = thread.tid
        if not self._renaming and self._scoreboard_hazard(tid, items):
            self.stats.decode_stall_cycles += 1
            return
        # Inlined from su.new_block / SUBlock.__init__ (keep in sync);
        # the capacity check above already guarantees room.
        block = SUBlock.__new__(SUBlock)
        block.seq = seq = su._next_seq
        su._next_seq = seq + 1
        block.tid = tid
        block.entries = []
        block.ready = 0
        block.ready_loads = 0
        block.ready_stores = 0
        block.ready_fu_mask = 0
        block.not_done = 0
        block.store_count = 0
        su.blocks.append(block)
        next_tag = self._next_tag
        # ``su.add``, ``SUEntry.__init__`` and ``_rename_operands`` are
        # inlined here (the per-instruction method calls are
        # measurable); keep them in sync with their scheduler
        # counterparts and with the standalone rename method.
        new_entry = SUEntry.__new__
        entries = block.entries
        by_tag = su.by_tag
        tid_stores = su._tid_stores[tid]
        mem_waiting = su._tid_mem_waiting[tid]
        writers = su._writers[tid]
        regs = self.regs
        regs_arr = regs._regs
        reg_base = tid * regs.k
        seq8 = block.seq << 3
        issuable_add = 0
        for item in items:
            instr = item.instr
            entry = new_entry(SUEntry)
            entry.tag = next_tag
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
            next_tag += 1
            # Operand rename, inlined from _rename_operands: pick up
            # each source from the youngest in-flight writer (value if
            # DONE, a wakeup subscription otherwise) or the register
            # file (r0 reads as zero).
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
            by_tag[entry.tag] = entry
            if info.is_store:
                tid_stores.append(entry)
                if not info.is_load:
                    block.store_count += 1
            if info.is_mem:
                mem_waiting.append(entry)
            if not entry.pending:
                issuable_add += 1
                block.ready_fu_mask |= 1 << info.fu_index
                if info.is_load:
                    block.ready_loads += 1
                elif info.is_store:
                    block.ready_stores += 1
            if dest is not None:
                writers[dest].append(entry)
            if info.switch_trigger:
                self.fetch_unit.note_switch_trigger()
            elif info.ctl_kind == 3 and thread.jalr_wait == -1:  # jalr
                thread.jalr_wait = entry.tag
        count = len(entries)
        block.not_done = count
        block.ready = issuable_add
        su.issuable += issuable_add
        su._entry_count += count
        su._tid_count[tid] += count
        self._next_tag = next_tag
        self.fetch_buffer = None
        bus = self._bus
        if bus is not None:
            bus.emit(DecodeEvent(now, tid, block.seq,
                                 [e.tag for e in entries],
                                 [e.pc for e in entries],
                                 [i._text if i._text is not None
                                  else i.text()
                                  for i in (e.instr for e in entries)]))

    def _scoreboard_hazard(self, tid, items):
        """Without full renaming, stall on in-flight destination writers."""
        for item in items:
            dest = item.instr.dest()
            if dest and self.su.lookup_operand(tid, dest) is not None:
                return True
        return False

    def _rename_operands(self, entry):
        """Reference copy of the rename logic inlined in :meth:`_decode`.

        Kept for clarity and for unit-level use; the decode loop carries
        an inlined duplicate (see the comment there) — keep both in
        sync.
        """
        sources = entry.instr.sources()
        nsources = len(sources)
        entry.vals = vals = [None] * nsources
        pending = 0
        tid = entry.tid
        writers = self.su._writers[tid]
        regs = self.regs
        for index in range(nsources):
            reg = sources[index]
            if reg == 0:
                vals[index] = 0
                continue
            stack = writers[reg]
            if not stack:
                vals[index] = regs.read(tid, reg)
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

    # -------------------------------------------------------------- fetch

    def _fetch(self, now):
        if self.fetch_buffer is not None:
            return
        thread = self.fetch_unit.select_thread(now)
        if thread is None:
            self.stats.fetch_idle_cycles += 1
            return
        if self.icache is not None:
            ready = self.icache.access(thread.pc, now)
            if ready > now:
                # Instruction-cache miss: the thread cannot fetch until
                # the line refills; the slot is wasted.
                thread.stall_until = ready
                self.stats.fetch_idle_cycles += 1
                return
        items = self.fetch_unit.fetch_block(thread)
        if not items:
            self.stats.fetch_idle_cycles += 1
            return
        self.fetch_buffer = (thread, items)
        self.stats.fetched_blocks += 1
        self.stats.fetched_instructions += len(items)
        bus = self._bus
        if bus is not None:
            bus.emit(FetchEvent(now, thread.tid, items[0].pc, len(items)))

    # ---------------------------------------------------------- watchdog

    def _hang_error(self, hang_limit):
        """Build the :class:`SimulationHang` for a no-progress wedge."""
        report = self._hang_report()
        lines = [
            f"no block committed for {hang_limit} cycles "
            f"(cycle {self.cycle}, {self.stats.committed} committed, "
            f"{self._halted}/{self._nthreads} threads halted)",
            "threads:",
        ]
        for state in report["threads"]:
            lines.append(
                "  t{tid}: pc={pc} done={done} fetch_halted={fetch_halted} "
                "jalr_wait={jalr_wait} stall_until={stall_until} "
                "masked={masked} in_flight={in_flight}".format(**state))
        su = report["su"]
        lines.append(
            f"scheduling unit: {su['entries']}/{su['capacity']} entries, "
            f"issuable={su['issuable']}, blocks={len(su['blocks'])}")
        for block in su["blocks"][:8]:
            lines.append(f"  block seq={block['seq']} tid={block['tid']} "
                         f"not_done={block['not_done']}: "
                         + "; ".join(block["entries"]))
        lines.append(
            f"store buffer: {report['store_buffer']} entries; pending "
            f"writeback cycles: {report['pending_writeback_cycles']}; "
            f"fetch buffer: {report['fetch_buffer']}")
        if report.get("stall_breakdown"):
            lines.append(f"stall attribution so far: "
                         f"{report['stall_breakdown']}")
        bus = self._bus
        if bus is not None:
            bus.emit(StallEvent(self.cycle, "hang", 0))
        return SimulationHang("\n".join(lines), report)

    def _hang_report(self):
        """Plain-data machine-state snapshot for hang diagnosis.

        Rides the observability layer where attached: the attribution
        breakdown (who was charged for the dead cycles) is included
        whenever ``attach_attribution`` was called before ``run``.
        """
        su = self.su
        fetch_buffer = self.fetch_buffer
        threads = [{
            "tid": thread.tid,
            "pc": thread.pc,
            "done": thread.done,
            "fetch_halted": thread.fetch_halted,
            "jalr_wait": thread.jalr_wait,
            "stall_until": thread.stall_until,
            "masked": self.fetch_unit.masked[thread.tid],
            "in_flight": self._thread_occupancy(thread.tid),
        } for thread in self.threads]
        blocks = [{
            "seq": block.seq,
            "tid": block.tid,
            "not_done": block.not_done,
            "ready": block.ready,
            "entries": [repr(entry) for entry in block.entries],
        } for block in su.blocks]
        report = {
            "cycle": self.cycle,
            "committed": self.stats.committed,
            "halted": self._halted,
            "threads": threads,
            "su": {
                "entries": su._entry_count,
                "capacity": self.config.su_entries,
                "issuable": su.issuable,
                "full": su.full,
                "blocks": blocks,
            },
            "store_buffer": len(self.store_buffer.entries),
            "pending_writeback_cycles": sorted(self._wb_cycles)[:8],
            "fetch_buffer": (None if fetch_buffer is None else
                             {"tid": fetch_buffer[0].tid,
                              "count": len(fetch_buffer[1])}),
        }
        if self._attr is not None:
            report["stall_breakdown"] = self._attr.to_dict()
        return report

    # ------------------------------------------------------------ helpers

    def _thread_occupancy(self, tid):
        """In-flight instructions of ``tid`` (SU + fetch buffer)."""
        count = self.su.tid_occupancy(tid)
        if self.fetch_buffer is not None and self.fetch_buffer[0].tid == tid:
            count += len(self.fetch_buffer[1])
        return count

    def reg(self, tid, reg):
        """Architectural register value (for inspection in tests)."""
        return self.regs.read(tid, reg)

    def mem(self, addr, count=1):
        """Memory contents (one value, or a list when ``count`` > 1)."""
        if count == 1:
            return self.memory.read(addr)
        return self.memory.read_block(addr, count)
