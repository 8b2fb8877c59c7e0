"""Memoizing simulation runner used by every experiment.

The runner caches at two levels:

* an in-memory dict, so experiments sharing a configuration within one
  process (e.g. the single-threaded base case) simulate it once; and
* optionally a :class:`~repro.harness.diskcache.DiskResultCache`, so
  repeated *processes* (a second ``pytest benchmarks/`` session, figure
  regeneration, parallel workers) replay finished runs from JSON
  instead of re-simulating.
"""

import functools
import hashlib
import pathlib
import time

from repro.core.config import ENGINE_VERSION, MachineConfig
from repro.core.stats import SimStats
from repro.harness.diskcache import DiskResultCache


class RunResult:
    """Outcome of one simulation run.

    ``wall_seconds`` is the host time the simulation took when it was
    actually executed (``None`` only for legacy cached payloads); a
    cache replay keeps the original measurement, so ledger records of
    cached results still report the throughput of the real run.
    """

    __slots__ = ("workload", "nthreads", "stats", "checksum", "verified",
                 "wall_seconds", "program_hash")

    #: Discriminator mirrored by ``JobFailure.ok = False``: grid callers
    #: can filter mixed result lists with ``r.ok`` instead of isinstance.
    ok = True

    def __init__(self, workload, nthreads, stats, checksum, verified,
                 wall_seconds=None, program_hash=None):
        self.workload = workload
        self.nthreads = nthreads
        self.stats = stats
        self.checksum = checksum
        self.verified = verified
        self.wall_seconds = wall_seconds
        #: :func:`program_hash` of the program that ran; carried in the
        #: cache payload so a replay's ledger record needs no compile.
        self.program_hash = program_hash

    @property
    def cycles(self):
        return self.stats.cycles

    def __repr__(self):
        return (f"RunResult({self.workload.name}, nthreads={self.nthreads}, "
                f"cycles={self.cycles}, verified={self.verified})")


def _config_key(config):
    cache = config.cache
    icache = config.icache
    ickey = (None if icache is None
             else (icache.size_bytes, icache.line_words, icache.assoc,
                   icache.miss_penalty, icache.ports))
    fus = tuple(sorted((cls.value, n) for cls, n in config.fu_counts.items()))
    lats = tuple(sorted((cls.value, n) for cls, n in config.fu_latency.items()))
    return (config.nthreads, config.fetch_policy.value,
            config.masked_criterion,
            config.commit_policy.value, config.commit_blocks,
            config.su_entries, config.issue_width, config.writeback_width,
            config.store_buffer_depth, fus, lats,
            cache.size_bytes, cache.line_words, cache.assoc, cache.ports,
            cache.miss_penalty, ickey, config.bypassing, config.renaming,
            config.predictor_bits, config.predictor_entries,
            config.btb_entries, config.shared_predictor,
            config.predictor_kind, config.mem_words)


def program_hash(program):
    """Content digest of an assembled program.

    Hashes the disassembled text, the initial data image, and the entry
    point — everything that determines the simulation outcome. Every
    result and ledger record carries it, naming the exact program that
    ran; the disk cache keys on its inputs instead (``Runner._disk_key``).
    """
    digest = hashlib.sha256()
    for instr in program.instructions:
        digest.update(instr.text().encode())
        digest.update(b"\n")
    digest.update(repr(program.data).encode())
    digest.update(str(program.entry).encode())
    return digest.hexdigest()


#: Sources (globs under ``src/repro``) that determine what
#: :func:`repro.lang.compile_source` emits: exactly the ``repro``
#: modules that importing the compiler loads, namely three subpackages
#: and the lazy-export helper their ``__init__`` modules run
#: (``tests/test_harness.py`` pins that set).
TOOLCHAIN_SOURCES = ("lang/*.py", "asm/*.py", "isa/*.py", "_lazy.py")


@functools.cache
def toolchain_digest():
    """Digest of the toolchain's ``*.py`` sources, computed once per process.

    Part of every disk-cache key in place of the compiled program: a
    cache hit then needs no compile, and any edit to the compiler,
    assembler or instruction set still invalidates every entry without
    a hand-bumped version constant.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for pattern in TOOLCHAIN_SOURCES:
        for path in sorted(root.glob(pattern)):
            digest.update(f"{path.relative_to(root).as_posix()}\n".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


#: Process-level decoded-program cache:
#: ``(workload, nthreads, aligned) -> (Program, program_hash)``.
#: Keyed by workload object identity — the registry
#: (:func:`repro.workloads.by_name`) hands out module singletons, so
#: every grid job resolving the same name in one process shares one
#: entry (and ad-hoc test workloads can never
#: collide by name alone).
_DECODE_CACHE = {}


def decoded_program(workload, nthreads, aligned=False):
    """Assembled program plus its content hash, decoded once per process.

    Workload objects already memoize *compilation* per ``(nthreads,
    aligned)``; this cache additionally pins the program's content hash
    (otherwise recomputed for every disk-cache key and ledger record of
    a sweep) and pre-builds every ALU/FP execution closure and
    disassembly line, so every job of a sweep shares the same warm,
    read-only instruction objects.
    """
    key = (workload, nthreads, bool(aligned))
    hit = _DECODE_CACHE.get(key)
    if hit is not None:
        return hit
    from repro.isa.semantics import build_exec
    program = workload.program(nthreads, aligned=aligned)
    for instr in program.instructions:
        try:
            build_exec(instr)
        except ValueError:
            pass  # not an ALU/FP op: executes in a pipeline stage instead
    hit = (program, program_hash(program))
    _DECODE_CACHE[key] = hit
    return hit


class Runner:
    """Runs workloads on configurations, caching results.

    Parameters
    ----------
    verify:
        When True (default), every run's checksum is compared against
        the workload's Python mirror; a mismatch raises immediately —
        a performance number from a wrong computation is worthless.
    quiet:
        Suppress the per-run progress line.
    disk_cache:
        ``None`` (default) for in-memory memoization only; a
        :class:`~repro.harness.diskcache.DiskResultCache` instance; or a
        path-like, which constructs one. Entries are keyed on the
        engine version, the workload source and toolchain, and the full
        configuration (see :mod:`repro.harness.diskcache`); a hit
        compiles nothing.
    instrument:
        Attach stall attribution and interval metrics to every run, so
        results carry ``stats.stall_breakdown`` and
        ``stats.interval_metrics``. Instrumented runs use a distinct
        cache key (same cycle counts, richer payload), so they never
        collide with — or invalidate — plain entries.
    """

    #: Fields every cached result payload must carry; passed to
    #: :class:`DiskResultCache` as its validation schema so a corrupted
    #: or hand-edited entry is dropped (a miss) instead of crashing
    #: :meth:`_from_payload`.
    RESULT_SCHEMA = ("nthreads", "stats", "checksum", "verified",
                     "program_hash")

    def __init__(self, verify=True, quiet=True, disk_cache=None,
                 instrument=False):
        self.verify = verify
        self.quiet = quiet
        if disk_cache is not None and not isinstance(disk_cache,
                                                     DiskResultCache):
            disk_cache = DiskResultCache(disk_cache,
                                         schema=Runner.RESULT_SCHEMA)
        self.disk_cache = disk_cache
        self.instrument = instrument
        self._cache = {}

    def run(self, workload, config=None, aligned=False, **overrides):
        """Simulate ``workload`` under ``config`` (plus overrides).

        ``aligned`` compiles the workload with branch-target alignment.
        """
        config = (config or MachineConfig()).replace(**overrides) \
            if overrides else (config or MachineConfig())
        if config.max_cycles > 2_000_000:
            # Benchmarks finish in tens of thousands of cycles; cap the
            # guard so a pathological configuration fails fast instead
            # of burning an hour of single-core simulation.
            config = config.replace(max_cycles=2_000_000)
        key = self._mem_key(workload, aligned, config, self.instrument)
        if key in self._cache:
            return self._cache[key]
        nthreads = config.nthreads
        disk = self.disk_cache
        disk_key = None
        if disk is not None:
            disk_key = self._disk_key(key, workload, nthreads, aligned)
            payload = disk.get(disk_key)
            if payload is not None:
                result = self._from_payload(workload, config, payload)
                self._cache[key] = result
                return result
        from repro.core.pipeline import PipelineSim
        program, phash = decoded_program(workload, nthreads, aligned=aligned)
        sim = PipelineSim(program, config)
        if self.instrument:
            attr = sim.attach_attribution()
            sim.attach_metrics()
        start = time.perf_counter()
        stats = sim.run()
        wall_seconds = time.perf_counter() - start
        if self.instrument:
            attr.verify(stats)  # attribution must reconcile exactly
        checksum = sim.mem(workload.checksum_address(nthreads))
        verified = workload.verify(checksum, nthreads)
        if self.verify and not verified:
            raise AssertionError(
                f"{workload.name} with {nthreads} threads computed "
                f"{checksum!r}, expected {workload.expected(nthreads)!r}")
        result = RunResult(workload, nthreads, stats, checksum, verified,
                           wall_seconds, phash)
        self._cache[key] = result
        if disk is not None:
            disk.put(disk_key, self._to_payload(result))
        if not self.quiet:
            print(f"  {workload.name:8s} threads={nthreads} "
                  f"cycles={stats.cycles:8d} ipc={stats.ipc:.2f}")
        return result

    @staticmethod
    def _mem_key(workload, aligned, config, instrument=False):
        # Plain runs keep the historical key shape, so existing disk
        # caches stay valid; instrumented runs get a marker element.
        if instrument:
            return (workload.name, aligned, "instrumented",
                    _config_key(config))
        return (workload.name, aligned, _config_key(config))

    @staticmethod
    def _disk_key(key, workload, nthreads, aligned):
        # Keyed on what determines the program, not on the program, so
        # a hit compiles nothing.
        from repro.harness.diskcache import hash_key
        source = hashlib.sha256(workload.source.encode()).hexdigest()
        return hash_key(ENGINE_VERSION, key,
                        (source, nthreads, bool(aligned), toolchain_digest()))

    @staticmethod
    def _to_payload(result):
        return {
            "nthreads": result.nthreads,
            "stats": result.stats.to_dict(),
            "checksum": result.checksum,
            "verified": result.verified,
            "wall_seconds": result.wall_seconds,
            "program_hash": result.program_hash,
        }

    def _from_payload(self, workload, config, payload):
        stats = SimStats.from_dict(config, payload["stats"])
        verified = payload["verified"]
        if self.verify and not verified:
            raise AssertionError(
                f"{workload.name}: cached run recorded a checksum "
                f"mismatch ({payload['checksum']!r})")
        return RunResult(workload, payload["nthreads"], stats,
                         payload["checksum"], verified,
                         payload.get("wall_seconds"),
                         payload["program_hash"])
