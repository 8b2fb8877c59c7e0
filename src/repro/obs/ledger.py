"""Append-only JSONL run ledger: one durable record per simulation.

Every other artifact of the harness is *derived* and overwritten in
place — the golden fixture keeps only the current pins, the disk
result cache keeps only payloads keyed by content, ``results.json`` is
regenerated per session. The ledger is the missing primary source: an
append-only file of one JSON object per line, each tying a simulation
result to everything that produced it:

* the **config fingerprint** (a stable hash of the full
  :meth:`~repro.core.config.MachineConfig.to_spec` dict) and the spec
  itself;
* the **program hash** (:func:`repro.harness.runner.program_hash`);
* the **engine version** and best-effort **git SHA** of the source
  tree, plus the Python version;
* the full **stats counters**, the **stall-attribution breakdown**,
  and compact **interval-metrics summaries** (histogram means, not the
  raw buckets — the disk cache keeps those);
* **wall-clock throughput** (simulated cycles per host second) when
  the run was actually timed, and a ``cached`` marker when it was
  replayed from the disk cache;
* an ``aligned`` marker when the program was compiled with
  branch-target alignment, which ``repro report`` never mixes with
  plain runs;
* a **timestamp supplied by the caller** — the ledger itself never
  reads the clock when building a record, so tests and replays are
  deterministic.

Writers: :func:`repro.harness.parallel.run_grid` (``ledger=``),
and ``repro run`` / ``repro bench`` / ``repro check`` (opt out with
``--no-ledger``). Readers:
``repro diff`` and ``repro report`` (:mod:`repro.obs.report`).

The default location is ``~/.cache/repro-sdsp/ledger.jsonl``; override
with the ``REPRO_LEDGER`` environment variable or an explicit path.
Appends take an advisory ``flock`` on the ledger file where the
platform provides one, so concurrent writers interleave whole lines,
never bytes. Reading skips malformed or schema-violating lines with a
warning — one rotted line never poisons the rest of the history.

Every read goes through one reader that walks the file backwards in
blocks, newest record first, and stops as soon as its caller has what
it asked for: ``repro report`` reads only as far back as the oldest of
its grid's latest records, and ``repro diff last`` only the tail, so
neither slows down as the history grows.
"""

import hashlib
import json
import os
import pathlib
import platform
import warnings
from datetime import datetime, timezone

try:
    import fcntl
except ImportError:  # non-POSIX: appends are still line-buffered
    fcntl = None

#: Environment variable overriding the ledger file location.
ENV_LEDGER = "REPRO_LEDGER"

#: Environment variable overriding :func:`git_sha` (CI checkouts
#: without a .git directory, tests pinning a known value).
ENV_GIT_SHA = "REPRO_GIT_SHA"

_DEFAULT_PATH = "~/.cache/repro-sdsp/ledger.jsonl"

#: Record layout version, stored in every record's ``schema`` field.
SCHEMA_VERSION = 1

#: Bytes per backwards read of the ledger reader.
BLOCK_SIZE = 1 << 16

#: Fields every ledger record must carry; lines missing one are
#: skipped on read (with a warning), and :meth:`RunLedger.append`
#: refuses to write one.
REQUIRED_FIELDS = ("schema", "run_id", "timestamp", "source", "workload",
                   "engine_version", "config", "config_fingerprint", "stats")


class LedgerWarning(UserWarning):
    """A ledger line was malformed and has been skipped."""


class LedgerError(Exception):
    """A ledger operation failed (bad record, unresolvable run id)."""


def default_path():
    """Ledger file location honouring the ``REPRO_LEDGER`` override."""
    return pathlib.Path(
        os.environ.get(ENV_LEDGER, _DEFAULT_PATH)).expanduser()


def fingerprint(data, length=12):
    """Stable hex digest of arbitrarily nested plain data."""
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def config_fingerprint(config):
    """Fingerprint of a :class:`MachineConfig` (or its spec dict)."""
    spec = config.to_spec() if hasattr(config, "to_spec") else dict(config)
    return fingerprint(spec)


def utc_now_iso():
    """ISO-8601 UTC timestamp for callers that want wall-clock now.

    Provided as a convenience for *callers*; nothing in this module
    calls it implicitly — :func:`make_record` requires the timestamp as
    an argument so record content is fully caller-determined.
    """
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


_GIT_SHA_UNSET = object()
_git_sha_cache = _GIT_SHA_UNSET


def git_sha():
    """Best-effort short git SHA of this source tree, or ``None``.

    ``REPRO_GIT_SHA`` overrides (useful in CI and tests); otherwise one
    ``git rev-parse`` runs per process, against the directory holding
    this file, and any failure (no git, not a checkout) is ``None``.
    """
    global _git_sha_cache
    override = os.environ.get(ENV_GIT_SHA)
    if override:
        return override
    if _git_sha_cache is not _GIT_SHA_UNSET:
        return _git_sha_cache
    import subprocess
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    _git_sha_cache = sha or None
    return _git_sha_cache


def summarize_metrics(interval_metrics):
    """Compact summary of an ``IntervalMetrics.to_dict()`` payload.

    Histogram means (bucket-midpoint approximation) instead of raw
    buckets: the ledger answers "what was the pressure", the disk cache
    keeps the full distributions. Returns ``None`` for ``None``.
    """
    if not interval_metrics:
        return None
    from repro.obs.metrics import Histogram

    out = {
        "interval": interval_metrics["interval"],
        "samples": interval_metrics["samples"],
    }
    for name in ("su_occupancy", "issue_width", "fetch_width"):
        out[f"{name}_mean"] = round(
            Histogram.from_dict(interval_metrics[name]).mean(), 4)
    out["fu_pressure_mean"] = {
        cls: round(Histogram.from_dict(hist).mean(), 4)
        for cls, hist in sorted(interval_metrics["fu_pressure"].items())}
    return out


def make_record(*, source, workload, config, stats, timestamp,
                program_hash=None, checksum=None, verified=None,
                wall_seconds=None, cached=False, aligned=False,
                engine_version=None, keep_interval_metrics=False,
                sweep_id=None, request_id=None):
    """Build one ledger record (a plain JSON-serializable dict).

    ``stats`` is a :class:`~repro.core.stats.SimStats` or its
    ``to_dict()`` form; the stall breakdown is lifted into the
    top-level ``attribution`` field and the interval metrics are
    reduced to their summary (``keep_interval_metrics=True`` keeps the
    raw histograms too — used by ``repro stats --json``). ``timestamp``
    is caller-supplied (see :func:`utc_now_iso`); the record id is a
    content fingerprint over everything else.

    ``sweep_id`` ties the record to the harness sweep that produced it
    (see :mod:`repro.obs.telemetry`); ``None`` for standalone runs and
    for every record written before sweeps existed. ``request_id`` is
    the correlation id of the service request that commissioned the
    run (``X-Repro-Request-Id``) — one grep joins the HTTP access log,
    the telemetry event stream, and this record. ``aligned`` marks a
    run of the program compiled with branch-target alignment: a
    different point from the plain run under the same config
    fingerprint.
    """
    spec = config.to_spec() if hasattr(config, "to_spec") else dict(config)
    counters = dict(stats if isinstance(stats, dict) else stats.to_dict())
    attribution = counters.get("stall_breakdown")
    metrics = summarize_metrics(counters.get("interval_metrics"))
    if not keep_interval_metrics:
        counters["interval_metrics"] = None
    if engine_version is None:
        from repro.core.config import ENGINE_VERSION
        engine_version = ENGINE_VERSION
    cycles = counters.get("cycles")
    cycles_per_sec = (round(cycles / wall_seconds)
                      if cycles and wall_seconds else None)
    record = {
        "schema": SCHEMA_VERSION,
        "timestamp": timestamp,
        "source": source,
        "workload": workload,
        "nthreads": spec.get("nthreads"),
        "engine_version": engine_version,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "config": spec,
        "config_fingerprint": fingerprint(spec),
        "program_hash": program_hash,
        "stats": counters,
        "attribution": attribution,
        "metrics": metrics,
        "wall_seconds": wall_seconds,
        "cycles_per_sec": cycles_per_sec,
        "checksum": checksum,
        "verified": verified,
        "cached": bool(cached),
        "aligned": bool(aligned),
        "sweep_id": sweep_id,
        "request_id": request_id,
    }
    record["run_id"] = fingerprint(record)
    return record


def _lines_newest_first(handle):
    """Raw lines of a binary file, last line first, read in blocks
    from the end; a final line without its newline comes out first."""
    pos = handle.seek(0, os.SEEK_END)
    partial = b""
    while pos > 0:
        step = min(BLOCK_SIZE, pos)
        pos -= step
        handle.seek(pos)
        lines = (handle.read(step) + partial).split(b"\n")
        partial = lines[0]  # its start may lie in the block before
        yield from reversed(lines[1:])
    yield partial


def _parse(line):
    """The record on one raw line, or ``None`` when the line is rotted."""
    try:
        record = json.loads(line.decode())
    except ValueError:
        return None
    if not isinstance(record, dict) or any(
            field not in record for field in REQUIRED_FIELDS):
        return None
    # Older records name the engine that ran them ("scalar", "batch" or
    # "spec"); the one engine today is the scalar interpreter, and
    # records it writes carry no such field.
    record.setdefault("backend", "scalar")
    # Pre-telemetry records belong to no sweep.
    record.setdefault("sweep_id", None)
    # Pre-service records were never commissioned over HTTP.
    record.setdefault("request_id", None)
    # Records written before alignment was recorded read as plain runs,
    # which most of them are; the few aligned ones cannot be told apart.
    record.setdefault("aligned", False)
    return record


class RunLedger:
    """Append-only JSONL file of simulation-run records.

    Parameters
    ----------
    path:
        Ledger file; created (with parents) on first append. Defaults
        to :func:`default_path` (``REPRO_LEDGER`` honoured).
    """

    def __init__(self, path=None):
        self.path = pathlib.Path(path) if path is not None else default_path()
        #: Malformed lines skipped by the last read.
        self.skipped = 0

    # ----------------------------------------------------------- writing

    def append(self, record):
        """Validate and append one record; returns its ``run_id``."""
        self.append_all([record])
        return record["run_id"]

    def append_all(self, records):
        """Append ``records`` in the given order under one file lock.

        Raises :class:`LedgerError` (writing nothing) if any record
        misses a required field — a half-schema record would be skipped
        by every future read, so it is rejected at the door.
        """
        records = list(records)
        for record in records:
            missing = [f for f in REQUIRED_FIELDS if f not in record]
            if missing:
                raise LedgerError(
                    f"record is missing required field(s) "
                    f"{', '.join(missing)}; refusing to append")
        if not records:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return len(records)

    # ----------------------------------------------------------- reading

    def _newest_first(self, sweep=None):
        """Valid records, newest first (of ``sweep`` only, if given).

        The one reader every query goes through. It reads backwards
        and only as far as its caller iterates; rotted lines among
        those read are counted in :attr:`skipped` for
        :meth:`_warn_skipped`. A missing file reads as empty.
        """
        self.skipped = 0
        try:
            handle = open(self.path, "rb")
        except OSError:
            return
        with handle:
            for line in _lines_newest_first(handle):
                line = line.strip()
                if not line:
                    continue
                record = _parse(line)
                if record is None:
                    self.skipped += 1
                elif sweep is None or record["sweep_id"] == sweep:
                    yield record

    def _warn_skipped(self):
        if self.skipped:
            warnings.warn(
                f"skipped {self.skipped} malformed ledger line"
                f"{'' if self.skipped == 1 else 's'} in {self.path}",
                LedgerWarning, stacklevel=3)

    def records(self):
        """Every valid record, oldest first; skips rotted lines."""
        out = list(self._newest_first())
        self._warn_skipped()
        out.reverse()
        return out

    def __len__(self):
        return len(self.records())

    def resolve(self, token, sweep=None):
        """Find one record by ``last``/``last~N`` or a run-id prefix.

        ``sweep`` restricts the search to records stamped with that
        ``sweep_id`` (so ``last`` means "last record of that sweep").
        ``last~N`` reads only back to the N+1-th newest record; a
        prefix reads every record, since ambiguity needs them all.

        Raises :class:`LedgerError` when the ledger is empty, the token
        matches nothing, or a prefix is ambiguous across distinct runs.
        """
        back = None
        if token == "last":
            back = 0
        elif token.startswith("last~"):
            try:
                back = int(token[len("last~"):])
            except ValueError:
                raise LedgerError(f"bad run reference {token!r}") from None
        newest = []
        for record in self._newest_first(sweep):
            newest.append(record)
            if back is not None and 0 <= back < len(newest):
                break
        self._warn_skipped()
        if not newest:
            if sweep is not None:
                raise LedgerError(
                    f"ledger {self.path} has no records for sweep "
                    f"{sweep!r}")
            raise LedgerError(f"ledger {self.path} has no records")
        if back is not None:
            if back < 0 or back >= len(newest):
                raise LedgerError(
                    f"{token!r} is out of range: ledger has "
                    f"{len(newest)} record(s)")
            return newest[back]
        matches = [r for r in newest if r["run_id"].startswith(token)]
        if not matches:
            raise LedgerError(
                f"no ledger record matches run id {token!r} "
                f"({len(newest)} record(s) in {self.path})")
        distinct = {r["run_id"] for r in matches}
        if len(distinct) > 1:
            sample = ", ".join(sorted(distinct)[:4])
            raise LedgerError(
                f"run id prefix {token!r} is ambiguous: {sample}")
        return matches[0]

    def latest_by_key(self, sweep=None, keys=None):
        """Newest record per ``(workload, config_fingerprint)`` pair.

        The selection ``repro report`` renders from: re-running an
        experiment appends fresh records, and the report always reflects
        the latest measurement of each grid point. ``sweep`` restricts
        the selection to records stamped with that ``sweep_id``.
        Only plain runs answer: an ``aligned`` record shares its
        point's key but measures a different program. ``keys``
        restricts the selection to those pairs, and the read stops as
        soon as each has been found, so its cost follows the keys, not
        the length of the history; ``None`` reads the whole file.
        """
        wanted = None if keys is None else set(keys)
        latest = {}
        if wanted == set():
            return latest
        for record in self._newest_first(sweep):
            if record["aligned"]:
                continue
            key = (record["workload"], record["config_fingerprint"])
            if key in latest or (wanted is not None and key not in wanted):
                continue
            latest[key] = record
            if wanted is not None and len(latest) == len(wanted):
                break
        self._warn_skipped()
        return latest

    def __repr__(self):
        return f"RunLedger({str(self.path)!r})"
