"""Per-cycle stall attribution.

The paper's analysis (Figs. 3-14) is an exercise in explaining where
cycles go. :class:`StallAttribution` charges **every simulated cycle to
exactly one category**, so the breakdown always sums to
``stats.cycles`` — with and without the idle-cycle fast-forward
(enforced by ``tests/test_obs_attribution.py`` over the golden-cycle
matrix).

Categories (first matching rule wins, evaluated per executed cycle):

``commit``
    A block retired this cycle — or, rarely, no stall condition held
    (pipeline ramp/drain cycles are charged here too; the machine was
    making unimpeded forward progress).
``su-full``
    No block retired and the scheduling unit was full at the commit
    stage. By construction this count equals the per-cycle part of
    ``stats.su_stall_cycles`` (see :meth:`StallAttribution.verify`).
``sync``
    Memory-ordering or synchronization wait: a ready ``tas`` held back
    until non-speculative / the store buffer drains its address, or a
    load blocked by the restricted load/store policy (older unresolved
    or conflicting same-thread store, per-thread in-order memory issue).
``dcache-miss``
    A load's data-cache miss is outstanding (the engine's
    ``_miss_until``; store-buffer drain refills do not count), or a
    ready memory op lost cache port arbitration this cycle.
``fu-contention``
    Ready work failed to acquire a busy functional unit, or every
    in-flight instruction is waiting out functional-unit/result latency
    (including scoreboard RAW waits when renaming is off).
``fetch-idle``
    Nothing else stalled and the front end produced no block (no
    fetchable thread: all masked, done, jalr-blocked, or refilling the
    instruction cache).
``idle-ff``
    Cycles skipped in one jump by the fast-forward engine (only ever
    non-zero with ``fast_forward=True``). The sub-counters
    ``ff_su_full`` / ``ff_fetch_idle`` / ``ff_decode_stall`` record
    which legacy stall counters the skipped span was charged to, which
    is what keeps :meth:`verify` exact in both engine modes. In
    addition, :attr:`StallAttribution.ff_classes` charges every skipped
    cycle to the executed-cycle category :meth:`close_cycle` would have
    picked — the skip engine passes the condition flags its horizon
    scan observed, and :func:`span_class` classifies executed cycles
    and skipped spans alike — so ``counts[cat] + ff_classes[cat]``
    reproduces the slow engine's breakdown exactly (see
    ``tests/test_obs_attribution.py``).

The attribution object is attached with
``PipelineSim.attach_attribution()`` **before** ``run()``; when it is
not attached the simulator pays one ``is None`` check per cycle.
"""

#: Attribution category names, display order.
CATEGORIES = ("commit", "su-full", "sync", "dcache-miss",
              "fu-contention", "fetch-idle", "idle-ff")

#: Issue-condition flags: set per executed cycle by the issue stage
#: (:meth:`StallAttribution.flag_sync` and friends) and observed per
#: skipped span by the fast-forward engine's horizon scan.
F_SYNC = 1
F_DCACHE = 2
F_FU = 4


def span_class(sim, start, su_full, fetch_idle, flags):
    """Stall category of cycle ``start`` — the one priority order.

    Serves executed cycles (:meth:`StallAttribution.close_cycle`),
    fast-forwarded spans (:meth:`StallAttribution.note_skip`) and the
    ``reason`` of the skip engine's ``StallEvent``. ``su_full`` means
    the commit slot was lost to a full scheduling unit and ``flags``
    holds the issue-condition flags. ``fetch_idle`` says what the front
    end did: ``True`` when no block was fetched, ``False`` when the
    fetched block stalled in decode, ``None`` when it made progress
    (executed cycles only; a skipped span's front end is always stalled
    one way or the other).
    """
    if su_full:
        return "su-full"
    if flags & F_SYNC:
        return "sync"
    if flags & F_DCACHE or start < sim._miss_until:
        return "dcache-miss"
    if flags & F_FU or (sim._wb_cycles and not sim.su.issuable):
        # Ready work found its unit busy, or everything in flight is
        # waiting out result latency.
        return "fu-contention"
    if fetch_idle:
        return "fetch-idle"
    if fetch_idle is None:
        # No stall condition held (pipeline ramp/drain).
        return "commit"
    # Scoreboard RAW wait (renaming off): the producer has not written
    # back yet — a result-latency wait.
    return "fu-contention"


class StallAttribution:
    """Charges every simulated cycle to exactly one stall category."""

    __slots__ = ("counts", "flags",
                 "ff_su_full", "ff_fetch_idle", "ff_decode_stall",
                 "ff_classes",
                 "_last_fetch_idle", "_last_decode_stall")

    def __init__(self):
        self.counts = dict.fromkeys(CATEGORIES, 0)
        #: Per-cycle condition flags, set by the issue stage and cleared
        #: when the cycle is closed.
        self.flags = 0
        self.ff_su_full = 0
        self.ff_fetch_idle = 0
        self.ff_decode_stall = 0
        #: Executed-cycle category each fast-forwarded span would have
        #: been charged to; sums to ``counts["idle-ff"]``.
        self.ff_classes = dict.fromkeys(CATEGORIES[1:-1], 0)
        self._last_fetch_idle = 0
        self._last_decode_stall = 0

    # ------------------------------------------------- issue-stage flags

    def flag_sync(self):
        """A memory op was held by ordering/synchronization this cycle."""
        self.flags |= F_SYNC

    def flag_dcache(self):
        """A ready memory op lost cache port arbitration this cycle."""
        self.flags |= F_DCACHE

    def flag_fu(self):
        """A ready instruction found its functional-unit class busy."""
        self.flags |= F_FU

    # ------------------------------------------------------ cycle close

    def close_cycle(self, sim, now, commit_status):
        """Charge the cycle that just executed to one category.

        ``commit_status`` comes from the commit stage: 1 = a block
        retired, 2 = the scheduling unit was full, 0 = neither.
        """
        flags = self.flags
        if flags:
            self.flags = 0
        stats = sim.stats
        if commit_status == 1:
            key = "commit"
        else:
            if stats.fetch_idle_cycles > self._last_fetch_idle:
                fetch_idle = True
            elif stats.decode_stall_cycles > self._last_decode_stall:
                fetch_idle = False
            else:
                fetch_idle = None
            key = span_class(sim, now, commit_status == 2, fetch_idle, flags)
        self.counts[key] += 1
        self._last_fetch_idle = stats.fetch_idle_cycles
        self._last_decode_stall = stats.decode_stall_cycles

    def note_skip(self, sim, start, skipped, su_full, fetch_idle, flags=0):
        """Charge a fast-forwarded inert span of ``skipped`` cycles.

        ``start`` is the first skipped cycle and ``flags`` the issue
        condition flags the skip engine's horizon scan observed (same
        bit meanings as :attr:`flags`). Mirrors exactly how
        ``_skip_inert_cycles`` charged the legacy stall counters, so
        :meth:`verify` stays exact under ``fast_forward=True``; the
        span additionally lands in :attr:`ff_classes` under the
        category :meth:`close_cycle` would have charged every one of
        its cycles to (both ask :func:`span_class`). A state frozen for
        the whole span yields the same flags every cycle, and a span
        never crosses the engine's ``_miss_until`` — the missed load's
        writeback bounds the jump — so one classification covers the
        span exactly.
        """
        self.counts["idle-ff"] += skipped
        self.ff_classes[span_class(sim, start, su_full, fetch_idle,
                                   flags)] += skipped
        if su_full:
            self.ff_su_full += skipped
        if fetch_idle:
            self.ff_fetch_idle += skipped
            self._last_fetch_idle += skipped
        else:
            self.ff_decode_stall += skipped
            self._last_decode_stall += skipped

    # -------------------------------------------------------- reporting

    def total(self):
        """Cycles charged so far (== ``stats.cycles`` after a run)."""
        return sum(self.counts.values())

    def verify(self, stats):
        """Reconciliation check against the run's legacy counters.

        Raises :class:`AssertionError` unless (a) the categories sum
        exactly to ``stats.cycles`` and (b) the ``su-full`` accounting
        matches ``stats.su_stall_cycles`` once fast-forwarded spans are
        folded back in.
        """
        total = self.total()
        if total != stats.cycles:
            raise AssertionError(
                f"attributed {total} cycles, simulated {stats.cycles}: "
                f"{self.counts}")
        su_full = self.counts["su-full"] + self.ff_su_full
        if su_full != stats.su_stall_cycles:
            raise AssertionError(
                f"su-full attribution {su_full} != su_stall_cycles "
                f"{stats.su_stall_cycles}")
        fetch_idle = self.counts["fetch-idle"] + self.ff_fetch_idle
        if fetch_idle > stats.fetch_idle_cycles:
            raise AssertionError(
                f"fetch-idle attribution {fetch_idle} exceeds "
                f"fetch_idle_cycles {stats.fetch_idle_cycles}")
        ff_classified = sum(self.ff_classes.values())
        if ff_classified != self.counts["idle-ff"]:
            raise AssertionError(
                f"per-class skip accounting {ff_classified} != idle-ff "
                f"{self.counts['idle-ff']}: {self.ff_classes}")

    def folded(self):
        """Breakdown with skipped spans folded into their stall classes.

        ``idle-ff`` is redistributed according to :attr:`ff_classes`,
        so the result is directly comparable with (and, cycle for
        cycle, equal to) a ``fast_forward=False`` run's :meth:`to_dict`.
        """
        out = dict(self.counts)
        for key, extra in self.ff_classes.items():
            out[key] += extra
        out["idle-ff"] = 0
        return out

    def to_dict(self):
        """Plain-data snapshot (stored on ``SimStats.stall_breakdown``)."""
        return dict(self.counts)


def format_breakdown(breakdown, cycles=None):
    """Render a stall-attribution table (``repro stats --breakdown``)."""
    from repro.harness.tables import format_table

    if cycles is None:
        cycles = sum(breakdown.values())
    rows = []
    for key in CATEGORIES:
        count = breakdown.get(key, 0)
        share = count / cycles if cycles else 0.0
        rows.append([key, count, f"{share:6.1%}"])
    rows.append(["total", cycles, f"{1.0 if cycles else 0.0:6.1%}"])
    return format_table("cycle attribution", ["category", "cycles", "share"],
                        rows)
