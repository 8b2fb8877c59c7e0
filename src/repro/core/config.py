"""Machine configuration (the paper's Table 1 and Table 2).

Where the surviving paper text lost a numeric value to OCR, the value
chosen here is documented in DESIGN.md and kept in one place so the
sensitivity benches can sweep it.
"""

import enum

from repro.isa.opcodes import FU_CLASSES, FuClass
from repro.mem.cache import CacheConfig

#: Simulator timing-model version. Bump on ANY change that can alter a
#: simulated cycle count; persisted results keyed on an older version
#: are then ignored rather than silently reused. Version 3 is the
#: next-event fast-forward engine — cycle counts are unchanged, but the
#: bump retires every cache entry produced before its safety nets were
#: in place. Version 4 stops the fast-forward from skipping the cycle in
#: which a masked-RR mask changes; fast-forward runs of such shapes now
#: match the per-cycle loop. It lives here, not beside the engine in
#: :mod:`repro.core.pipeline`, so cache keys and ledger records can
#: name it without importing the engine.
ENGINE_VERSION = 4


class FetchPolicy(enum.Enum):
    """The three fetch policies of Section 5.1, plus ICOUNT.

    ICOUNT is not in the paper: it implements the paper's closing
    suggestion of "a judicious fetch policy, that slows down fetching
    for a thread in a region of low execution rate" using the
    instruction-count heuristic later formalized by Tullsen et al.
    (ISCA 1996): fetch for the fetchable thread with the fewest
    instructions in the front end and scheduling unit.
    """

    TRUE_RR = "true_rr"
    MASKED_RR = "masked_rr"
    COND_SWITCH = "cond_switch"
    ICOUNT = "icount"


class CommitPolicy(enum.Enum):
    """Result-commit policies of Section 5.6."""

    #: Commit only from the lower-most block (classic reorder buffer).
    LOWEST_ONLY = "lowest_only"
    #: Flexible Result Commit: choose among the bottom four blocks.
    FLEXIBLE = "flexible"


#: Default functional-unit configuration (Table 1, "Default no.").
FU_DEFAULT = {
    FuClass.IALU: 4,
    FuClass.IMUL: 1,
    FuClass.IDIV: 1,
    FuClass.LOAD: 1,
    FuClass.STORE: 1,
    FuClass.CT: 1,
    FuClass.FPADD: 1,
    FuClass.FPMUL: 1,
    FuClass.FPDIV: 1,
}

#: Enhanced configuration (Table 1, "Other no."): +2 integer ALUs and one
#: extra unit of every other type (Table 3 reports usage of exactly this
#: set of extra units).
FU_ENHANCED = {
    FuClass.IALU: 6,
    FuClass.IMUL: 2,
    FuClass.IDIV: 2,
    FuClass.LOAD: 2,
    FuClass.STORE: 2,
    FuClass.CT: 1,
    FuClass.FPADD: 2,
    FuClass.FPMUL: 2,
    FuClass.FPDIV: 2,
}

#: Execution latencies in cycles (Table 1, "Latency").
FU_LATENCY = {
    FuClass.IALU: 1,
    FuClass.IMUL: 4,
    FuClass.IDIV: 12,
    FuClass.LOAD: 2,
    FuClass.STORE: 1,
    FuClass.CT: 1,
    FuClass.FPADD: 4,
    FuClass.FPMUL: 6,
    FuClass.FPDIV: 12,
}

#: Block size: instructions fetched, decoded, and committed per block.
BLOCK = 4


def _cache_spec(cache):
    """Plain-data form of a :class:`CacheConfig` (or ``None``)."""
    if cache is None:
        return None
    return dict(size_bytes=cache.size_bytes, line_words=cache.line_words,
                assoc=cache.assoc, miss_penalty=cache.miss_penalty,
                ports=cache.ports)


class MachineConfig:
    """Full hardware configuration (the paper's Table 2).

    Parameters mirror the paper's feature list; every keyword has the
    paper's default value.
    """

    def __init__(self, *,
                 nthreads=4,
                 fetch_policy=FetchPolicy.TRUE_RR,
                 masked_criterion="commit_stall",
                 commit_policy=CommitPolicy.FLEXIBLE,
                 commit_blocks=4,
                 su_entries=64,
                 issue_width=8,
                 writeback_width=8,
                 store_buffer_depth=8,
                 fu_counts=None,
                 fu_latency=None,
                 cache=None,
                 icache=None,
                 bypassing=True,
                 renaming=True,
                 predictor_bits=2,
                 predictor_entries=512,
                 btb_entries=256,
                 shared_predictor=True,
                 predictor_kind="bimodal",
                 mem_words=1 << 20,
                 max_cycles=50_000_000,
                 hang_cycles=200_000,
                 fast_forward=True):
        self.nthreads = nthreads
        self.fetch_policy = (FetchPolicy(fetch_policy)
                             if not isinstance(fetch_policy, FetchPolicy)
                             else fetch_policy)
        if masked_criterion not in ("commit_stall", "long_latency"):
            raise ValueError(f"unknown masked_criterion {masked_criterion!r}")
        self.masked_criterion = masked_criterion
        self.commit_policy = (CommitPolicy(commit_policy)
                              if not isinstance(commit_policy, CommitPolicy)
                              else commit_policy)
        self.commit_blocks = (commit_blocks
                              if self.commit_policy is CommitPolicy.FLEXIBLE
                              else 1)
        if su_entries % BLOCK:
            raise ValueError(f"su_entries must be a multiple of {BLOCK}")
        self.su_entries = su_entries
        self.su_blocks = su_entries // BLOCK
        self.issue_width = issue_width
        self.writeback_width = writeback_width
        if store_buffer_depth < BLOCK:
            raise ValueError(
                f"store_buffer_depth must be >= {BLOCK} (a block may "
                f"contain up to {BLOCK} stores, which must fit in the "
                f"buffer for the block to commit)")
        self.store_buffer_depth = store_buffer_depth
        self.fu_counts = dict(fu_counts or FU_DEFAULT)
        self.fu_latency = dict(fu_latency or FU_LATENCY)
        self.cache = cache or CacheConfig()
        #: None = perfect instruction cache (100% hits), as in the paper.
        self.icache = icache
        self.bypassing = bypassing
        self.renaming = renaming
        self.predictor_bits = predictor_bits
        self.predictor_entries = predictor_entries
        self.btb_entries = btb_entries
        self.shared_predictor = shared_predictor
        self.predictor_kind = predictor_kind
        self.mem_words = mem_words
        self.max_cycles = max_cycles
        #: No-progress watchdog: raise
        #: :class:`~repro.core.pipeline.SimulationHang` (with a machine
        #: state dump) when this many consecutive cycles pass without a
        #: single block committing. ``None`` disables the watchdog and
        #: falls back to the blunt ``max_cycles`` guard. Like
        #: ``max_cycles``, it cannot change a completed run's statistics
        #: and is excluded from the result-cache key.
        self.hang_cycles = hang_cycles
        #: Skip provably-idle cycles in one jump. Never changes any
        #: simulated statistic (see docs/PERFORMANCE.md); exposed as a
        #: knob so differential tests can pin the slow path.
        self.fast_forward = fast_forward

    def replace(self, **overrides):
        """A copy of this configuration with some fields overridden."""
        fields = dict(
            nthreads=self.nthreads,
            fetch_policy=self.fetch_policy,
            masked_criterion=self.masked_criterion,
            commit_policy=self.commit_policy,
            commit_blocks=self.commit_blocks,
            su_entries=self.su_entries,
            issue_width=self.issue_width,
            writeback_width=self.writeback_width,
            store_buffer_depth=self.store_buffer_depth,
            fu_counts=self.fu_counts,
            fu_latency=self.fu_latency,
            cache=self.cache,
            icache=self.icache,
            bypassing=self.bypassing,
            renaming=self.renaming,
            predictor_bits=self.predictor_bits,
            predictor_entries=self.predictor_entries,
            btb_entries=self.btb_entries,
            shared_predictor=self.shared_predictor,
            predictor_kind=self.predictor_kind,
            mem_words=self.mem_words,
            max_cycles=self.max_cycles,
            hang_cycles=self.hang_cycles,
            fast_forward=self.fast_forward,
        )
        fields.update(overrides)
        return MachineConfig(**fields)

    def to_spec(self):
        """Plain-data dict that :meth:`from_spec` reconstructs exactly.

        Used to ship configurations across process boundaries (the
        parallel harness pickles only plain data) and to feed the disk
        cache's key hash.
        """
        return dict(
            nthreads=self.nthreads,
            fetch_policy=self.fetch_policy.value,
            masked_criterion=self.masked_criterion,
            commit_policy=self.commit_policy.value,
            commit_blocks=self.commit_blocks,
            su_entries=self.su_entries,
            issue_width=self.issue_width,
            writeback_width=self.writeback_width,
            store_buffer_depth=self.store_buffer_depth,
            fu_counts={cls.value: n for cls, n in self.fu_counts.items()},
            fu_latency={cls.value: n for cls, n in self.fu_latency.items()},
            cache=_cache_spec(self.cache),
            icache=_cache_spec(self.icache),
            bypassing=self.bypassing,
            renaming=self.renaming,
            predictor_bits=self.predictor_bits,
            predictor_entries=self.predictor_entries,
            btb_entries=self.btb_entries,
            shared_predictor=self.shared_predictor,
            predictor_kind=self.predictor_kind,
            mem_words=self.mem_words,
            max_cycles=self.max_cycles,
            hang_cycles=self.hang_cycles,
            fast_forward=self.fast_forward,
        )

    @classmethod
    def from_spec(cls, spec):
        """Inverse of :meth:`to_spec`."""
        fields = dict(spec)
        fields["fetch_policy"] = FetchPolicy(fields["fetch_policy"])
        fields["commit_policy"] = CommitPolicy(fields["commit_policy"])
        fields["fu_counts"] = {FuClass(name): n
                               for name, n in fields["fu_counts"].items()}
        fields["fu_latency"] = {FuClass(name): n
                                for name, n in fields["fu_latency"].items()}
        if fields["cache"] is not None:
            fields["cache"] = CacheConfig(**fields["cache"])
        if fields["icache"] is not None:
            fields["icache"] = CacheConfig(**fields["icache"])
        return cls(**fields)

    @classmethod
    def from_partial_spec(cls, spec):
        """A validated config from a partial :meth:`to_spec` dict.

        ``spec`` is overlaid on the defaults' spec, so absent fields
        keep their default values. Raises :class:`ValueError` naming
        any field :meth:`to_spec` does not have, and
        :class:`ValueError` or :class:`TypeError` for invalid values.
        """
        defaults = cls().to_spec()
        unknown = sorted(set(spec) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)} "
                             f"(see MachineConfig.to_spec for the schema)")
        return cls.from_spec({**defaults, **spec}).validate()

    def validate(self, program=None):
        """Reject nonsensical configurations with actionable errors.

        ``__init__`` already rejects malformed individual fields (bad
        enum values, SU size not a multiple of the block size, a store
        buffer smaller than a block); :meth:`validate` adds the
        cross-field and semantic checks that would otherwise surface as
        a deadlocked or garbage simulation. With a ``program`` it also
        proves every functional-unit class the program actually uses
        has at least one unit — a zero-unit needed class is a
        guaranteed hang, diagnosed here in microseconds instead of
        after ``max_cycles`` of simulation.

        Raises :class:`ValueError` listing every problem found; returns
        ``self`` so construction can chain (``MachineConfig(...)
        .validate()``).
        """
        problems = []
        if self.nthreads < 1:
            problems.append(f"nthreads={self.nthreads}: need at least one "
                            f"resident thread")
        if self.issue_width < 1:
            problems.append(f"issue_width={self.issue_width}: the machine "
                            f"could never issue an instruction")
        if self.writeback_width < 1:
            problems.append(f"writeback_width={self.writeback_width}: "
                            f"results could never complete")
        if self.commit_blocks < 1:
            problems.append(f"commit_blocks={self.commit_blocks}: no block "
                            f"could ever retire")
        if self.su_entries < BLOCK:
            problems.append(f"su_entries={self.su_entries}: the scheduling "
                            f"unit cannot hold even one {BLOCK}-instruction "
                            f"block")
        if self.max_cycles < 1:
            problems.append(f"max_cycles={self.max_cycles}: must be >= 1")
        if self.hang_cycles is not None and self.hang_cycles < 1:
            problems.append(f"hang_cycles={self.hang_cycles}: must be >= 1 "
                            f"(or None to disable the watchdog)")
        if self.mem_words < 1:
            problems.append(f"mem_words={self.mem_words}: must be >= 1")
        if self.predictor_entries < 1 or self.predictor_bits < 1:
            problems.append(
                f"predictor_entries={self.predictor_entries}, "
                f"predictor_bits={self.predictor_bits}: the predictor "
                f"needs at least one entry of at least one bit")
        for cls in FU_CLASSES:
            count = self.fu_counts.get(cls, 0)
            if count < 0:
                problems.append(f"fu_counts[{cls.value}]={count}: negative "
                                f"unit count")
            latency = self.fu_latency.get(cls)
            if latency is None or latency < 1:
                problems.append(f"fu_latency[{cls.value}]={latency!r}: every "
                                f"class needs a latency >= 1")
        if self.fu_counts.get(FuClass.CT, 0) < 1:
            problems.append(
                f"fu_counts[{FuClass.CT.value}]=0: every program ends in a "
                f"halt, which needs the control-transfer unit")
        if program is not None:
            used = {FU_CLASSES[instr.info.fu_index]
                    for instr in program.instructions}
            for cls in sorted(used, key=lambda c: c.value):
                if self.fu_counts.get(cls, 0) < 1:
                    problems.append(
                        f"fu_counts[{cls.value}]=0 but the program uses "
                        f"that class: it could never issue (guaranteed "
                        f"hang)")
            if len(program.data) > self.mem_words:
                problems.append(
                    f"mem_words={self.mem_words} is smaller than the "
                    f"program's {len(program.data)}-word data image")
        if problems:
            raise ValueError("invalid MachineConfig: " + "; ".join(problems))
        return self

    def describe(self):
        """Multi-line summary of the configuration."""
        fus = ", ".join(f"{cls.value}={n}" for cls, n in self.fu_counts.items())
        return "\n".join([
            f"threads={self.nthreads} fetch={self.fetch_policy.value} "
            f"commit={self.commit_policy.value}({self.commit_blocks})",
            f"SU={self.su_entries} entries, issue={self.issue_width}/cycle, "
            f"writeback={self.writeback_width}/cycle, "
            f"store buffer={self.store_buffer_depth}",
            f"cache: {self.cache.describe()}",
            f"FUs: {fus}",
        ])
