"""Persistent on-disk result cache for simulation runs.

Re-running an experiment grid is dominated by re-simulating
configurations whose outcome cannot have changed. This cache persists
every run's statistics as JSON so a second invocation — a repeated
``pytest benchmarks/`` session, a re-generated figure, a parallel sweep
— replays from disk in milliseconds.

Keying
------
A cached entry is valid only if *nothing that can affect a simulated
cycle count* changed, so the key hashes together:

* :data:`repro.core.config.ENGINE_VERSION` — bumped manually whenever
  a simulator change alters any cycle count; stale entries are then
  ignored (never silently reused) and rewritten on the next run.
* what determines the *program*, rather than the program itself: the
  sha256 of the workload's MiniC source, the thread count, the
  alignment variant, and
  :func:`~repro.harness.runner.toolchain_digest` — a digest, computed
  once per process, of the ``*.py`` sources of ``repro.lang``,
  ``repro.asm`` and ``repro.isa`` and the lazy-export helper their
  ``__init__`` modules run. Editing a kernel invalidates exactly
  its entries, editing the toolchain invalidates all of them, and a
  hit compiles nothing (the payload carries the ``program_hash`` the
  ledger record needs);
* the full architectural configuration via the runner's
  ``_config_key`` (which deliberately excludes ``fast_forward`` — both
  modes are bit-identical by construction — ``max_cycles``, and
  ``hang_cycles``, none of which can change a completed run's counts).

The default location is ``~/.cache/repro-sdsp/results.json``; override
with the ``REPRO_CACHE`` environment variable or an explicit ``path``.

Robustness
----------
The cache is the crash-safety backstop of the fault-tolerant harness
(see ``docs/ROBUSTNESS.md``), so it must never lose good data to bad
data:

* **Quarantine, not reset.** A file that fails to parse is renamed to
  ``<name>.corrupt-<n>`` and a :class:`CacheCorruptionWarning` is
  emitted; the cache then starts empty. Nothing is silently deleted —
  the corpse stays on disk for diagnosis.
* **Per-entry validation.** Entries are stored in a versioned envelope
  recording the :data:`~repro.core.config.ENGINE_VERSION` that wrote
  them; on load, entries from another engine version are dropped, and
  with a ``schema`` (a tuple of required payload fields) entries whose
  payload is not a dict or misses a required field are dropped too —
  each with a warning, never a crash. Extra payload fields are
  tolerated (forward compatibility). Files written by the pre-envelope
  format load transparently.
* **Advisory locking.** Writes are atomic (temp file + ``os.replace``)
  and *merge-on-save*: the file is re-read and merged immediately
  before writing. The read-merge-write sequence runs under an advisory
  ``flock`` on ``<name>.lock`` where the platform provides one, so
  concurrent writers appending different keys cannot interleave and
  clobber each other's entries (last writer wins only for identical
  keys, which hold identical data).
* **Thread safety.** One in-process lock guards :meth:`get`,
  :meth:`put`, :meth:`save` and :meth:`counters`, so concurrent
  dispatcher threads (``repro serve``) can share one cache object.
"""

import itertools
import hashlib
import json
import os
import pathlib
import tempfile
import threading
import warnings

try:
    import fcntl
except ImportError:  # non-POSIX: fall back to atomic-replace-only safety
    fcntl = None

from repro.core.config import ENGINE_VERSION

#: Environment variable overriding the cache file location.
ENV_PATH = "REPRO_CACHE"

_DEFAULT_PATH = "~/.cache/repro-sdsp/results.json"

#: On-disk format version of the envelope layout written by :meth:`save`.
FILE_FORMAT = 2


class CacheCorruptionWarning(UserWarning):
    """A cache file (or entry) was corrupt and has been quarantined."""


def default_path():
    """Cache file location honouring the ``REPRO_CACHE`` override."""
    return pathlib.Path(
        os.environ.get(ENV_PATH, _DEFAULT_PATH)).expanduser()


def hash_key(*parts):
    """Stable hex digest of arbitrarily nested plain data."""
    text = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class _FileLock:
    """Advisory exclusive lock on ``<path>.lock`` (no-op without fcntl)."""

    def __init__(self, path):
        self.path = pathlib.Path(str(path) + ".lock")
        self._handle = None

    def __enter__(self):
        if fcntl is not None:
            self._handle = open(self.path, "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        if self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
        return False


class DiskResultCache:
    """JSON-file-backed mapping from run keys to result payloads.

    Parameters
    ----------
    path:
        Cache file; created (with parents) on first save. Defaults to
        :func:`default_path`.
    autosave:
        Persist after every :meth:`put` (default). Disable for bulk
        insertion and call :meth:`save` once at the end.
    schema:
        Optional tuple of field names every payload must carry (e.g.
        ``Runner.RESULT_SCHEMA``). Entries missing a field — or whose
        payload is not a dict — are dropped on load and answered as
        misses by :meth:`get`, with a warning. ``None`` disables
        payload validation (the cache then stores arbitrary JSON).
    """

    def __init__(self, path=None, autosave=True, schema=None):
        self.path = pathlib.Path(path) if path is not None else default_path()
        self.autosave = autosave
        self.schema = tuple(schema) if schema is not None else None
        self.hits = 0
        self.misses = 0
        #: Entries dropped for schema/engine mismatch (diagnostics).
        self.dropped = 0
        #: Corrupt files moved aside to ``<name>.corrupt-<n>``.
        self.quarantined = 0
        self._lock = threading.Lock()
        self._entries, self._engines = self._load()
        self._dirty = False

    # ----------------------------------------------------------- loading

    def _load(self):
        """Parse the cache file into ``(entries, engines)`` dicts.

        Corrupt files are quarantined (warning, never an exception);
        invalid or stale entries are dropped individually.
        """
        try:
            text = self.path.read_text()
        except OSError:
            return {}, {}
        except UnicodeDecodeError:
            self._quarantine("not valid UTF-8")
            return {}, {}
        try:
            data = json.loads(text)
        except ValueError:
            self._quarantine("not valid JSON")
            return {}, {}
        if not isinstance(data, dict):
            self._quarantine(f"top level is {type(data).__name__}, "
                             f"expected an object")
            return {}, {}
        if data.get("format") == FILE_FORMAT:
            raw = data.get("entries")
            if not isinstance(raw, dict):
                self._quarantine("format-2 file without an entries object")
                return {}, {}
            return self._adopt_envelopes(raw)
        # Pre-envelope format: bare key -> payload mapping with the
        # engine version unrecorded (it is still baked into each key
        # hash, so replay safety is unaffected).
        entries = {}
        engines = {}
        dropped = 0
        for key, payload in data.items():
            if self.schema is not None and not self._payload_ok(payload):
                dropped += 1
                continue
            entries[key] = payload
            engines[key] = None
        self._note_dropped(dropped)
        return entries, engines

    def _adopt_envelopes(self, raw):
        entries = {}
        engines = {}
        dropped = 0
        for key, envelope in raw.items():
            if not isinstance(envelope, dict) or "payload" not in envelope:
                dropped += 1
                continue
            engine = envelope.get("engine")
            if isinstance(engine, int) and engine != ENGINE_VERSION:
                dropped += 1  # stale engine: ignored, never reused
                continue
            payload = envelope["payload"]
            if self.schema is not None and not self._payload_ok(payload):
                dropped += 1
                continue
            entries[key] = payload
            engines[key] = engine
        self._note_dropped(dropped)
        return entries, engines

    def _payload_ok(self, payload):
        return (isinstance(payload, dict)
                and all(field in payload for field in self.schema))

    def _note_dropped(self, count):
        if count:
            self.dropped += count
            warnings.warn(
                f"dropped {count} invalid or stale cache entr"
                f"{'y' if count == 1 else 'ies'} from {self.path} "
                f"(schema/engine-version validation)",
                CacheCorruptionWarning, stacklevel=4)

    def _quarantine(self, reason):
        """Move the corrupt file aside to ``<name>.corrupt-<n>``."""
        for n in itertools.count(1):
            target = self.path.with_name(f"{self.path.name}.corrupt-{n}")
            if not target.exists():
                break
        try:
            os.replace(self.path, target)
        except OSError:
            return  # concurrently removed/quarantined; nothing to keep
        self.quarantined += 1
        warnings.warn(
            f"cache file {self.path} is corrupt ({reason}); quarantined "
            f"to {target} and starting empty",
            CacheCorruptionWarning, stacklevel=4)

    # --------------------------------------------------------- dict-like

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        """Payload stored under ``key``, or ``None`` (counted as a miss).

        With a ``schema``, an entry whose payload lost a required field
        (e.g. hand-edited or merged from a corrupt writer) is dropped
        and answered as a miss rather than poisoning the caller.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self.schema is not None \
                    and not self._payload_ok(entry):
                del self._entries[key]
                self._engines.pop(key, None)
                self._note_dropped(1)
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry

    def __contains__(self, key):
        """Whether :meth:`get` would answer ``key`` with a payload.

        Applies the same validity rule as :meth:`get` but counts no hit
        or miss: the counters report lookups, and they feed the
        service's ``/metrics``.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and (self.schema is None
                                          or self._payload_ok(entry))

    def put(self, key, payload):
        """Store ``payload`` (plain data) under ``key``."""
        with self._lock:
            self._entries[key] = payload
            self._engines[key] = ENGINE_VERSION
            self._dirty = True
        if self.autosave:
            self.save()

    def save(self):
        """Atomically persist, merging with concurrent writers first.

        The re-read + merge + replace runs under an advisory file lock,
        so two processes saving different keys both survive. Entries
        are written sorted by key (and objects with sorted fields), so
        the file's bytes depend only on its *contents* — never on the
        completion order of a parallel sweep — and two cache files can
        be diffed line-for-line.
        """
        with self._lock:
            if not self._dirty:
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with _FileLock(self.path):
                disk_entries, disk_engines = self._load()
                for key, payload in disk_entries.items():
                    if key not in self._entries:
                        self._entries[key] = payload
                        self._engines[key] = disk_engines.get(key)
                envelopes = {
                    key: {"engine": self._engines.get(key),
                          "payload": self._entries[key]}
                    for key in sorted(self._entries)}
                document = {"format": FILE_FORMAT, "entries": envelopes}
                fd, tmp = tempfile.mkstemp(dir=str(self.path.parent),
                                           prefix=self.path.name,
                                           suffix=".tmp")
                try:
                    # One dumps, not a streaming dump: only dumps uses
                    # the C encoder, and the bytes are the same.
                    text = json.dumps(document, sort_keys=True)
                    with os.fdopen(fd, "w") as handle:
                        handle.write(text)
                    os.replace(tmp, self.path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            self._dirty = False

    def counters(self):
        """Session counters as a plain dict.

        The shape sweep telemetry embeds in its ``sweep-end`` event and
        ``repro sweep`` renders in its cache-accounting table; also
        handy for tests that want exact numbers without parsing
        :meth:`stats_line`.
        """
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "dropped": self.dropped, "quarantined": self.quarantined,
                    "entries": len(self._entries)}

    def stats_line(self):
        """One-line hit/miss summary for end-of-session reporting."""
        total = self.hits + self.misses
        dropped = f", {self.dropped} dropped" if self.dropped else ""
        quarantined = (f", {self.quarantined} quarantined"
                       if self.quarantined else "")
        return (f"disk result cache: {self.hits}/{total} hits, "
                f"{self.misses} misses, {len(self._entries)} entries"
                f"{dropped}{quarantined} ({self.path})")
