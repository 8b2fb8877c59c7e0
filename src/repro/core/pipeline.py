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
change the outcome. Every engine rule is written once, in the code the
engine runs. Only per-instruction legs — the execution closures, the
writeback wake-up, the pipelined functional-unit acquire and the issue
bookkeeping — sit inside their stage loops rather than behind a call,
because a call per instruction is measurable; per-cycle and per-block
rules are plain method calls (``docs/PERFORMANCE.md``, "One copy of
every rule").

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
  decode, fetch, or drain this cycle, and a side-effect-free replay of
  the issue scan (the same :meth:`PipelineSim._load_source` rule the
  issue stage uses) proves no ready entry can issue either, the machine
  state is frozen and the clock jumps straight to the earliest
  next-event horizon: the writeback calendar's next completion (which
  subsumes dcache-miss service), the store buffer's drain slot, the
  earliest divider release, or a thread's instruction-cache refill.
  Each component exposes its own horizon (``FuPool.next_free``,
  ``StoreBuffer.next_drain_cycle``, ``FetchUnit.fetch_horizon``); the
  skipped cycles are charged to the same stall counters — and, via
  :func:`repro.obs.attribution.span_class`, the same stall *class* —
  the per-cycle loop would have used.
  ``MachineConfig(fast_forward=False)`` disables the jump; both modes
  produce bit-identical statistics (enforced by
  ``tests/test_golden_cycles.py`` and the differential suite).

Bump :data:`~repro.core.config.ENGINE_VERSION` whenever a change
alters any simulated cycle count — or deliberately, to invalidate
persisted results after a major engine rework; the persistent result
cache (``repro.harness.diskcache``) keys on it. It lives in
:mod:`repro.core.config` so cache keys and ledger records can name it
without loading the engine; ``repro.core.pipeline.ENGINE_VERSION`` is
the same object.
"""

import gc
import heapq

from repro.asm.program import Program
from repro.core.branch import BranchPredictor
# ENGINE_VERSION is defined in config and re-exported here.
from repro.core.config import (ENGINE_VERSION, CommitPolicy,  # noqa: F401
                               FetchPolicy, MachineConfig)
from repro.core.execute import FuPool
from repro.core.fetch import FetchUnit, ThreadContext
from repro.core.scheduler import DONE, ISSUED, SchedulingUnit, WAITING
from repro.core.stats import SimStats
from repro.isa.opcodes import FU_CLASSES, FuClass, Op
from repro.isa.registers import REG_ZERO, RegisterFile
from repro.isa.semantics import branch_taken, build_exec
from repro.mem.cache import DataCache
from repro.mem.memory import MainMemory
from repro.mem.storebuffer import StoreBuffer
# Dependency-free modules (see repro.obs.__init__ for the layering
# rules). Event objects are only ever constructed, and span_class only
# ever called, when a sink or attribution is attached.
from repro.obs.attribution import F_DCACHE, F_FU, F_SYNC, span_class
from repro.obs.events import (CommitEvent, DecodeEvent, FetchEvent,
                              IssueEvent, SquashEvent, StallEvent,
                              WritebackEvent)

_DIV_CLASSES = (FuClass.IDIV, FuClass.FPDIV)

_LOAD_FU_BIT = 1 << FU_CLASSES.index(FuClass.LOAD)

# What PipelineSim._load_source answers besides a forwarded value: the
# load must wait for memory order or synchronization, or for a cache
# port; or it reads memory through the data cache.
_HOLD_SYNC = object()
_HOLD_DCACHE = object()
_READ_MEMORY = object()


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
        # Latest data-ready cycle of any load's data-cache miss: while
        # ``now`` is below it, an otherwise unexplained stall is a
        # dcache-miss wait (repro.obs.attribution.span_class).
        self._miss_until = 0
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
        if su.choose_commit_block(
                self._commit_blocks,
                store_buffer.depth - len(store_buffer.entries)) is not None:
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
                now, span_class(self, now, su_full, fetch_idle, flags),
                skipped))
        self.cycle = target

    def _issue_horizon(self, now):
        """Prove no ready entry can issue at ``now``, without issuing.

        A side-effect-free replay of one :meth:`_issue` scan: it visits
        exactly the candidates issue would visit and asks the same
        questions of pristine cycle-start state — unit availability,
        then :meth:`_load_source` for loads (the first issuing
        candidate exists for :meth:`_issue` iff it exists here).
        Returns ``None`` as soon as any candidate could issue;
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
                flags |= F_FU
                free_at = pool.next_free(fu_index, now)
                if fu_free_at is None or free_at < fu_free_at:
                    fu_free_at = free_at
            elif not info.is_load:
                return None
            else:
                source = self._load_source(entry, now)
                if source is _HOLD_SYNC:
                    flags |= F_SYNC
                elif source is _HOLD_DCACHE:
                    flags |= F_DCACHE
                else:
                    return None
            remaining -= 1
            if remaining == 0:
                break
        return fu_free_at, flags

    def _decode_blocked(self):
        """True when decode must stall this cycle: the SU is at block
        capacity, or (renaming off) a fetched instruction's destination
        still has an in-flight writer. Changes no state, so the skip
        engine asks it too."""
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
        store_buffer = self.store_buffer
        index = su.choose_commit_block(
            self._commit_blocks,
            store_buffer.depth - len(store_buffer.entries))
        if index is None:
            if len(su.blocks) >= su.capacity_blocks:
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
        """Retire the block at ``index``: take it out of the scheduling
        unit, then perform its architectural commit actions."""
        block = self.su.pop_block(index)
        tid = block.tid
        entries = block.entries
        now = self.cycle
        bus = self._bus
        if bus is not None:
            bus.emit(CommitEvent(now, tid, [entry.tag for entry in entries]))
        stats = self.stats
        # The per-instruction register write: commit-time destinations
        # come from validated programs, so RegisterFile.write's bounds
        # checks reduce to the r0 discard and the 32-bit integer wrap.
        regs = self.regs
        regs_arr = regs._regs
        reg_base = tid * regs.k
        predictor = self.predictor
        for entry in entries:
            dest = entry.dest
            if dest is not None:
                result = entry.result
                if result is not None and dest != REG_ZERO:
                    if isinstance(result, int):
                        result &= 0xFFFFFFFF
                        if result >= 0x80000000:
                            result -= 0x100000000
                    regs_arr[reg_base + dest] = result
            info = entry.info
            if info.is_store:
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
        count = len(entries)
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
                # Completion and the wake-up of waiting consumers.
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
        # Pipelined classes (occupancy 1) are fully described by a
        # per-cycle acquire counter, which this loop keeps itself; only
        # the dividers go through FuPool.acquire.
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
                info = entry.info
                fu_index = info.fu_index
                bit = 1 << fu_index
                ready_cycle = None
                if info.is_load and mem_blocked & block_tbit:
                    pass  # doomed by the in-order memory rule
                elif fu_blocked & bit:
                    if info.is_mem:
                        # An unissued memory op blocks the thread's
                        # younger loads (in-order memory issue).
                        mem_blocked |= block_tbit
                else:
                    unit = None
                    if occupancy[fu_index] == 1:
                        free = (used_cycle[fu_index] != now
                                or used[fu_index] < fu_counts[fu_index])
                    else:
                        unit = pool.acquire(fu_index, now)
                        free = unit is not None
                    if not free:
                        fu_blocked |= bit
                        if info.is_mem:
                            mem_blocked |= block_tbit
                        if attr is not None:
                            attr.flag_fu()
                    elif info.is_load:
                        ready_cycle = self._issue_load(entry, now,
                                                       latency[fu_index])
                        if ready_cycle is None:
                            mem_blocked |= block_tbit
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
                        ready_cycle = now + latency[fu_index]
                if ready_cycle is not None:
                    if unit is None:
                        if used_cycle[fu_index] != now:
                            used_cycle[fu_index] = now
                            used[fu_index] = 0
                        unit = used[fu_index]
                        used[fu_index] = unit + 1
                        fu_busy[fu_index][unit] += 1
                    entry.state = ISSUED
                    su.issuable -= 1
                    block.ready -= 1
                    if info.is_mem:
                        su._tid_mem_waiting[entry.tid].remove(entry)
                        if info.is_load:
                            block.ready_loads -= 1
                        else:
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
                    budget -= 1
                    if budget == 0:
                        return
                if remaining == 0:
                    return
                if ready == 0:
                    break  # no more candidates in this block

    def _issue_load(self, entry, now, latency):
        """Perform a ready load (or ``tas``) whose load unit is free.

        Returns the cycle its value is ready, or ``None`` when it must
        wait (flagging the stall class for attribution).
        """
        source = self._load_source(entry, now)
        if source is _READ_MEMORY:
            addr = entry.addr
            ready = self.cache.access(addr, now) + latency
            if ready > now + latency and ready > self._miss_until:
                self._miss_until = ready
            memory = self.memory
            entry.result = memory.read(addr)
            if entry.instr.op is Op.TAS:
                memory.write(addr, 1)  # the atomic read-modify-write
            return ready
        attr = self._attr
        if source is _HOLD_SYNC:
            if attr is not None:
                attr.flag_sync()
            return None
        if source is _HOLD_DCACHE:
            if attr is not None:
                attr.flag_dcache()
            return None
        entry.result = source
        return now + latency

    def _load_source(self, entry, now):
        """Where a ready load's value comes from at ``now``.

        Returns ``_HOLD_SYNC`` (memory order or synchronization holds
        it), ``_HOLD_DCACHE`` (no cache port), ``_READ_MEMORY`` (read
        through the data cache) or the forwarded value itself. Changes
        no machine state — it only records the effective address, which
        every call computes identically — so the fast-forward horizon
        scan asks it the same question the issue stage does.
        """
        entry.addr = addr = int(entry.vals[0]) + entry.instr.imm
        su = self.su
        # Per-thread in-order memory issue: loads sample memory at
        # issue, so a load may not pass an older unissued memory op
        # (without this it could hoist above an in-flight ``tas`` and
        # read data the lock does not yet protect).
        if su._tid_mem_waiting[entry.tid][0] is not entry:
            return _HOLD_SYNC
        if entry.instr.op is Op.TAS:
            # Non-speculative, and only once the store buffer holds no
            # write to its address; then an atomic read-modify-write.
            if not su.all_older_done(entry) or self.store_buffer.has_match(
                    addr):
                return _HOLD_SYNC
            if not self.cache.can_access(now):
                return _HOLD_DCACHE
            return _READ_MEMORY
        # One walk over the thread's older in-flight stores covers both
        # the restricted load/store check and store-to-load forwarding.
        # A store that matches the address and has not executed — or
        # whose address is still unresolved — holds the load; otherwise
        # the youngest match forwards its value (it is necessarily DONE).
        order = entry.order
        best = None
        for store in su._tid_stores[entry.tid]:
            if store.order >= order:
                break  # program-ordered: the rest are younger
            st_addr = store.addr
            if store.state != DONE and (st_addr is None or st_addr == addr):
                return _HOLD_SYNC
            if st_addr == addr:
                best = store
        if best is not None:
            return best.vals[1]
        # Then the youngest committed store-buffer entry for the address.
        for sbe in reversed(self.store_buffer.entries):
            if sbe.addr == addr:
                return sbe.value
        if not 0 <= addr < self.memory.size:
            # A wrong-path load may compute a garbage address; hardware
            # does not fault speculatively, so return a dummy value. A
            # wild load on the *correct* path is a program bug that the
            # functional simulator reports as a MemoryFault.
            return 0
        if not self.cache.can_access(now):
            return _HOLD_DCACHE
        return _READ_MEMORY

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

    # ------------------------------------------------------------- decode

    def _decode(self, now):
        if self._decode_blocked():
            self.stats.decode_stall_cycles += 1
            return
        thread, items = self.fetch_buffer
        tid = thread.tid
        regs = self.regs
        next_tag = self._next_tag
        block = self.su.insert_block(tid, items, next_tag, regs._regs,
                                     tid * regs.k)
        self._next_tag = next_tag + len(items)
        self.fetch_buffer = None
        entries = block.entries
        # Front-end actions: a context-switch trigger tells the fetch
        # unit, and the jalr that stopped the thread's fetch (marked -1
        # by fetch) gets its tag, so its writeback restarts fetch at
        # the resolved target.
        for entry in entries:
            info = entry.info
            if info.switch_trigger:
                self.fetch_unit.note_switch_trigger()
            elif info.ctl_kind == 3 and thread.jalr_wait == -1:  # jalr
                thread.jalr_wait = entry.tag
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
