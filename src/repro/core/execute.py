"""Functional-unit pool.

Each unit class has a configurable number of instances (Table 1). Most
multi-cycle units are internally pipelined, accepting a new operation
every cycle while results return after the class latency — standard for
the era's adders/multipliers and for the cache port. Dividers (integer
and FP) are not pipelined: they occupy their unit for the full latency,
which is why the paper treats divide as a context-switch trigger.
Utilization is tracked per *instance*, with instances filled
lowest-index-first, so the usage of the "extra" units of the enhanced
configuration (paper Table 3) falls out directly.
"""

from repro.isa.opcodes import FU_CLASSES, FuClass

#: Unit classes that occupy their unit for the full latency.
UNPIPELINED = frozenset({FuClass.IDIV, FuClass.FPDIV})


class FuPool:
    """Tracks per-instance busy times for every functional-unit class.

    Internally indexed by ``OpInfo.fu_index`` (integer position in
    :data:`~repro.isa.opcodes.FU_CLASSES`) to keep the per-issue cost
    low; :meth:`flush_stats` copies busy counters into the run's
    :class:`~repro.core.stats.SimStats` at the end.
    """

    def __init__(self, config, stats):
        self.stats = stats
        self._latency = [config.fu_latency[cls] for cls in FU_CLASSES]
        self._occupancy = [config.fu_latency[cls] if cls in UNPIPELINED
                           else 1 for cls in FU_CLASSES]
        self._counts = [config.fu_counts.get(cls, 0) for cls in FU_CLASSES]
        self._free_at = [[0] * count for count in self._counts]
        self._busy = [[0] * count for count in self._counts]
        # Pipelined classes (occupancy 1) are fully described by how
        # many acquires happened in the current cycle — a counter reset
        # on cycle change replaces the per-instance free-time scan.
        # Instances still fill lowest-index-first, so per-instance busy
        # statistics are unchanged.
        n = len(FU_CLASSES)
        self._used_cycle = [-1] * n
        self._used = [0] * n

    def latency_of(self, fu_index):
        """Result latency of the unit class."""
        return self._latency[fu_index]

    def acquire(self, fu_index, now):
        """Reserve an unpipelined unit (a divider) starting at ``now``.

        Returns the instance index, or ``None`` if all are busy. The
        pipelined classes are acquired by the pipeline's issue stage,
        which bumps their per-cycle counters (``_used_cycle``/``_used``)
        in its own loop.
        """
        occupancy = self._occupancy[fu_index]
        units = self._free_at[fu_index]
        for index, free_at in enumerate(units):
            if free_at <= now:
                units[index] = now + occupancy
                self._busy[fu_index][index] += occupancy
                return index
        return None

    def available(self, fu_index, now):
        """True if a unit of the class is free at the start of ``now``.

        Asked before the cycle's issue stage runs (the fast-forward
        horizon scan), when every pipelined class is free: they are
        per-cycle resources. A divider is free once an instance's
        previous operation has released it.
        """
        if self._occupancy[fu_index] == 1:
            return True
        for free_at in self._free_at[fu_index]:
            if free_at <= now:
                return True
        return False

    def next_free(self, fu_index, now):
        """Next-event horizon: earliest cycle a unit of the class frees.

        Part of the fast-forward protocol (``docs/PERFORMANCE.md``):
        only unpipelined classes (the dividers) can stay busy across
        cycles, so this is the minimum of their per-instance release
        times. Pipelined classes are per-cycle resources — they are
        always free at the next fresh cycle — and only appear here
        defensively.
        """
        if self._occupancy[fu_index] == 1:
            return now + 1
        return min(self._free_at[fu_index])

    def flush_stats(self):
        """Copy per-instance busy counters into the stats object."""
        for cls, busy in zip(FU_CLASSES, self._busy):
            if cls in self.stats.fu_busy:
                self.stats.fu_busy[cls] = list(busy)
