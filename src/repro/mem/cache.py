"""Data-cache timing model.

Models the paper's data cache: 8 KB, 32-byte lines, LRU replacement,
either direct-mapped or set-associative. The cache "is capable of
servicing one line refill while simultaneously providing data. A second
miss renders the cache incapable of servicing data requests" — so one
refill may be outstanding; while a second miss is waiting, *all*
requests (hits included) are delayed until the first refill completes.

The model is timing/statistics only: an access returns the cycle at
which its data is available; the caller reads or writes the value in
main memory itself.
"""


class CacheConfig:
    """Cache geometry and timing.

    Parameters
    ----------
    size_bytes:
        Total capacity. The paper uses 8 KB; the default here is 2 KB
        because the benchmark working sets are scaled down ~10-50x from
        the paper's to keep cycle-accurate simulation fast, and the
        cache is scaled with them to preserve the working-set/cache
        ratio that drives the paper's cache experiments (DESIGN.md).
    line_words:
        Line size in 32-bit words (8 words = the paper's 32-byte lines).
    assoc:
        Associativity; 1 = direct-mapped. The paper's default is 4-way.
    miss_penalty:
        Cycles to refill a line from memory.
    """

    def __init__(self, size_bytes=2048, line_words=8, assoc=4,
                 miss_penalty=8, ports=2):
        self.size_bytes = size_bytes
        self.line_words = line_words
        self.assoc = assoc
        self.miss_penalty = miss_penalty
        if ports < 1:
            raise ValueError("cache needs at least one port")
        self.ports = ports
        total_lines = size_bytes // (line_words * 4)
        if total_lines % assoc:
            raise ValueError(f"{total_lines} lines not divisible by assoc {assoc}")
        self.num_sets = total_lines // assoc
        if self.num_sets < 1:
            raise ValueError("cache too small for its associativity")

    def describe(self):
        """Human-readable one-liner."""
        kind = "direct-mapped" if self.assoc == 1 else f"{self.assoc}-way set-associative"
        return (f"{self.size_bytes // 1024}KB {kind}, "
                f"{self.line_words * 4}B lines, {self.num_sets} sets")


class CacheStats:
    """Access counters."""

    def __init__(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.blocked_cycles = 0

    @property
    def hit_rate(self):
        """Hit fraction in [0, 1]; 1.0 when there were no accesses."""
        if self.accesses == 0:
            return 1.0
        return self.hits / self.accesses


class DataCache:
    """LRU set-associative (or direct-mapped) cache with one refill port."""

    def __init__(self, config=None):
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        # Per-set list of line tags, most recently used last.
        self._sets = [[] for _ in range(self.config.num_sets)]
        # Completion cycle of the refill currently in flight (0 = idle).
        self._refill_done = 0
        # Completion cycle of a queued second miss's refill (0 = none).
        self._queued_done = 0
        # Port arbitration: accesses already granted this cycle.
        self._port_cycle = -1
        self._port_used = 0

    def _locate(self, addr):
        line = addr // self.config.line_words
        return line % self.config.num_sets, line

    def can_access(self, now):
        """True if a cache port is free at cycle ``now``.

        The paper's closing discussion suggests "more cache ports" as an
        improvement; the default models a dual-ported array (one load
        unit plus the store-buffer drain proceed without conflict).
        """
        if now != self._port_cycle:
            return True
        return self._port_used < self.config.ports

    def _take_port(self, now):
        if now != self._port_cycle:
            self._port_cycle = now
            self._port_used = 0
        self._port_used += 1

    def contains(self, addr):
        """True if the word's line is resident (no state change)."""
        index, line = self._locate(addr)
        return line in self._sets[index]

    def _touch(self, index, line):
        ways = self._sets[index]
        ways.remove(line)
        ways.append(line)

    def _install(self, index, line):
        ways = self._sets[index]
        if len(ways) >= self.config.assoc:
            ways.pop(0)  # evict LRU
        ways.append(line)

    def access(self, addr, now):
        """Perform one access at cycle ``now``; return the data-ready cycle.

        Updates LRU state and statistics. Reads and writes are treated
        identically (write-allocate); the store buffer serializes writes
        so a write access is also one request.
        """
        self.stats.accesses += 1
        self._take_port(now)
        index, line = self._locate(addr)
        resident = line in self._sets[index]

        # Retire completed refills before judging availability.
        if self._queued_done and now >= self._queued_done:
            self._refill_done = 0
            self._queued_done = 0
        elif self._refill_done and now >= self._refill_done:
            self._refill_done = self._queued_done
            self._queued_done = 0

        if resident:
            self.stats.hits += 1
            self._touch(index, line)
            if self._queued_done and now < self._queued_done:
                # A second miss is pending: the cache cannot serve data
                # until the *first* refill completes.
                self.stats.blocked_cycles += self._refill_done - now
                return max(now, self._refill_done)
            return now

        self.stats.misses += 1
        penalty = self.config.miss_penalty
        if not self._refill_done or now >= self._refill_done:
            # Refill port free: start immediately.
            ready = now + penalty
            self._refill_done = ready
        elif not self._queued_done:
            # One refill outstanding: this miss queues behind it.
            ready = self._refill_done + penalty
            self._queued_done = ready
            self.stats.blocked_cycles += self._refill_done - now
        else:
            # Two misses already in the system: serialize after both.
            ready = self._queued_done + penalty
            self._refill_done = self._queued_done
            self._queued_done = ready
            self.stats.blocked_cycles += ready - penalty - now
        self._install(index, line)
        return ready

    def reset_stats(self):
        """Zero the counters (keeps cache contents)."""
        self.stats = CacheStats()
