"""Harness-level sweep telemetry: job-lifecycle events, worker
heartbeats, and aggregate sweep metrics for :func:`run_grid`.

``repro.obs`` (PR 2) sees inside one simulation and the run ledger
(PR 4) sees finished runs after the fact; this module observes the
*harness itself* while a sweep is in flight. The fault-tolerant
submit/collect event loop of :func:`repro.harness.parallel.run_grid`
emits one typed :class:`SweepEvent` per job-lifecycle transition, plus
periodic heartbeats and a final metrics snapshot, to an attached
:class:`SweepTelemetry` hub — and, following the PR-2 zero-overhead
contract, emits **nothing at all** when no hub is attached: every hook
in the harness is a bare ``is None`` predicate (enforced by
``tests/test_obs_overhead.py``).

Event taxonomy (see ``docs/OBSERVABILITY.md`` for the full contract):

===================  ==================================================
``sweep-start``      the grid was resolved; carries totals
``queued``           one job entered the sweep (every job, exactly once)
``cache-hit``        terminal: answered from the disk result cache
``started``          one job attempt was handed to a worker
``retry``            a charged attempt failed and the job was requeued
``timeout``          a running attempt exceeded the per-job wall clock
``worker-crash``     the process pool broke; carries the victim jobs
``done``             terminal: the job completed (cycles, wall time)
``failed``           terminal: the job was unrecoverable
``heartbeat``        periodic worker/queue pulse with a metrics snapshot
``sweep-end``        final :class:`SweepMetrics` plus cache accounting
===================  ==================================================

**Accounting invariant** (pinned by ``tests/test_telemetry.py`` and
audited by ``repro sweep``): every job appears in exactly one ``queued``
event and ends in exactly one *terminal* event — ``done``, ``failed``,
or ``cache-hit`` — and the terminal counts reconcile with
:func:`run_grid`'s returned results, its :class:`JobFailure` records,
and its ledger appends, under every ``repro.faults`` scenario.

Every event carries the sweep's ``sweep_id``, which :func:`run_grid`
also stamps into the ledger records it appends — making whole sweeps
first-class across ``repro report``/``repro diff`` (``--sweep``) and
summarizable after the fact from a JSONL event log via ``repro sweep``.

The same schema also describes **server-lifetime** streams: the job
service (:mod:`repro.service`) emits one hub per server process, with
``sweep-start`` carrying ``total=0`` — the job population of a running
server is open-ended, and :func:`summarize` only cross-checks the
announced total against the log when it is non-zero. Per-job
accounting is identical, so ``repro sweep`` audits a served session
exactly like a local sweep (see ``docs/SERVICE.md``).

Sinks are callables taking one :class:`SweepEvent`;
:class:`repro.obs.export.JsonlSink` (the event log),
:class:`LiveProgress` (single-line terminal refresh), and
:class:`repro.obs.export.SweepTraceCollector` (Perfetto timeline) all
qualify.
"""

import json
import sys
import time
import uuid
import warnings

#: Event schema version, carried by ``sweep-start`` events.
SCHEMA_VERSION = 1

#: Every event kind, in rough lifecycle order.
LIFECYCLE_KINDS = (
    "sweep-start", "queued", "cache-hit", "started", "retry", "timeout",
    "worker-crash", "done", "failed", "heartbeat", "sweep-end",
)

#: Kinds that terminate a job: each job gets exactly one of these.
TERMINAL_KINDS = ("cache-hit", "done", "failed")


class TelemetryWarning(UserWarning):
    """A sweep-event log line was malformed and has been skipped."""


def new_sweep_id():
    """Fresh 12-hex-char sweep identifier."""
    return uuid.uuid4().hex[:12]


class SweepEvent:
    """Plain-data record of one harness-level occurrence.

    ``t`` is seconds since the sweep started (host clock, not simulated
    cycles — this is the harness's timeline, not the engine's), ``job``
    the grid index the event concerns (``None`` for sweep-level events),
    and ``data`` the kind-specific payload fields.
    """

    __slots__ = ("kind", "t", "sweep_id", "job", "workload", "data")

    def __init__(self, kind, t, sweep_id, job=None, workload=None,
                 data=None):
        self.kind = kind
        self.t = t
        self.sweep_id = sweep_id
        self.job = job
        self.workload = workload
        self.data = data

    def to_dict(self):
        """JSON-serializable dict: the JSONL event-log line."""
        record = {"event": self.kind, "t": self.t,
                  "sweep_id": self.sweep_id}
        if self.job is not None:
            record["job"] = self.job
        if self.workload is not None:
            record["workload"] = self.workload
        if self.data:
            record.update(self.data)
        return record

    @classmethod
    def from_dict(cls, record):
        """Rebuild an event from its :meth:`to_dict` form (log replay)."""
        data = {key: value for key, value in record.items()
                if key not in ("event", "t", "sweep_id", "job", "workload")}
        return cls(record["event"], record.get("t", 0.0),
                   record.get("sweep_id"), record.get("job"),
                   record.get("workload"), data or None)

    def __repr__(self):
        return (f"SweepEvent({self.kind!r}, t={self.t}, job={self.job}, "
                f"data={self.data!r})")


class SweepMetrics:
    """Running aggregates over a sweep's event stream.

    One accounting path for everything: the live :class:`SweepTelemetry`
    hub, the :class:`LiveProgress` view, and the ``repro sweep``
    after-the-fact summarizer all fold events through :meth:`apply`, so
    live and replayed numbers can never disagree.
    """

    __slots__ = ("total", "workers", "queued_events", "cache_hits", "done",
                 "failed", "retries", "timeouts", "crashes", "running",
                 "wall_done", "elapsed")

    def __init__(self):
        self.total = 0          # jobs announced by sweep-start
        self.workers = None
        self.queued_events = 0  # queued events seen (reconciliation)
        self.cache_hits = 0
        self.done = 0
        self.failed = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0        # pool breakages (worker-crash events)
        self.running = set()    # job indices with an open attempt
        self.wall_done = 0.0    # summed wall_seconds of done jobs
        self.elapsed = 0.0      # t of the latest event

    def apply(self, event):
        """Fold one :class:`SweepEvent` into the aggregates."""
        kind = event.kind
        data = event.data or {}
        if event.t > self.elapsed:
            self.elapsed = event.t
        if kind == "sweep-start":
            self.total = data.get("total") or 0
            self.workers = data.get("workers")
        elif kind == "queued":
            self.queued_events += 1
        elif kind == "cache-hit":
            self.cache_hits += 1
        elif kind == "started":
            self.running.add(event.job)
        elif kind == "retry":
            self.retries += 1
            self.running.discard(event.job)
        elif kind == "timeout":
            self.timeouts += 1
            self.running.discard(event.job)
        elif kind == "worker-crash":
            self.crashes += 1
            for victim in data.get("victims") or ():
                self.running.discard(victim)
        elif kind == "done":
            self.done += 1
            self.running.discard(event.job)
            wall = data.get("wall_seconds")
            if wall:
                self.wall_done += wall
        elif kind == "failed":
            self.failed += 1
            self.running.discard(event.job)

    # ------------------------------------------------------- derived views

    @property
    def terminal(self):
        """Jobs that reached their one terminal event."""
        return self.done + self.failed + self.cache_hits

    @property
    def remaining(self):
        return max(self.total, self.queued_events) - self.terminal

    def jobs_per_sec(self):
        """Terminal events per elapsed second, or ``None`` before any."""
        if self.elapsed <= 0.0 or not self.terminal:
            return None
        return self.terminal / self.elapsed

    def eta_seconds(self):
        """Estimated seconds to finish the remaining jobs.

        Prefers the mean wall time of *completed* jobs spread over the
        worker width (cache hits are free, so they are excluded from the
        mean); falls back to the overall terminal rate when nothing has
        simulated yet. ``None`` when there is no basis for an estimate.
        """
        remaining = self.remaining
        if remaining <= 0:
            return 0.0
        if self.done and self.wall_done:
            mean = self.wall_done / self.done
            return remaining * mean / max(self.workers or 1, 1)
        rate = self.jobs_per_sec()
        return remaining / rate if rate else None

    def cache_hit_rate(self):
        """Cache hits over terminal jobs, or ``None`` before any."""
        return self.cache_hits / self.terminal if self.terminal else None

    def to_dict(self):
        rate = self.jobs_per_sec()
        eta = self.eta_seconds()
        hit_rate = self.cache_hit_rate()
        return {
            "total": self.total,
            "workers": self.workers,
            "queued": self.queued_events,
            "done": self.done,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (round(hit_rate, 4)
                               if hit_rate is not None else None),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.crashes,
            "running": len(self.running),
            "elapsed": round(self.elapsed, 6),
            "jobs_per_sec": round(rate, 4) if rate is not None else None,
            "eta_seconds": round(eta, 3) if eta is not None else None,
        }


class SweepTelemetry:
    """The hub :func:`run_grid` emits through when one is attached.

    Parameters
    ----------
    sweep_id:
        Identifier stamped on every event (and, by :func:`run_grid`,
        into every ledger record of the sweep). Defaults to a fresh
        :func:`new_sweep_id`.
    sinks:
        Initial sinks (callables taking one :class:`SweepEvent`).
    heartbeat:
        Minimum seconds between ``heartbeat`` events (the harness calls
        :meth:`maybe_heartbeat` every event-loop iteration; the hub
        throttles).
    clock:
        Monotonic clock, injectable for deterministic tests.
    """

    def __init__(self, sweep_id=None, sinks=(), heartbeat=2.0,
                 clock=time.monotonic):
        self.sweep_id = sweep_id or new_sweep_id()
        self.metrics = SweepMetrics()
        self.heartbeat = heartbeat
        self._clock = clock
        self._t0 = None
        self._last_beat = None
        self._sinks = []
        for sink in sinks:
            self.subscribe(sink)

    def subscribe(self, sink):
        """Attach ``sink``; returns it (handy for inline construction)."""
        if not callable(sink):
            raise TypeError(
                f"sink must be callable, got {type(sink).__name__}")
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink):
        """Detach ``sink``; unknown sinks are ignored."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    # ---------------------------------------------------------- emission

    def _now(self):
        if self._t0 is None:
            self._t0 = self._clock()
        return self._clock() - self._t0

    def _emit(self, event_kind, job=None, workload=None, **data):
        # First parameter deliberately not named ``kind``: failure and
        # retry events carry a ``kind`` *payload* field via **data.
        event = SweepEvent(event_kind, round(self._now(), 6), self.sweep_id,
                           job, workload, data or None)
        self.metrics.apply(event)
        for sink in self._sinks:
            sink(event)
        return event

    # --------------------------------------------------- lifecycle hooks

    def sweep_start(self, total, workers=None):
        return self._emit("sweep-start", total=total, workers=workers,
                          schema=SCHEMA_VERSION)

    def job_queued(self, index, workload, fingerprint=None):
        return self._emit("queued", job=index, workload=workload,
                          config=fingerprint)

    def cache_hit(self, index, workload):
        return self._emit("cache-hit", job=index, workload=workload)

    def job_started(self, index, workload, attempt):
        return self._emit("started", job=index, workload=workload,
                          attempt=attempt)

    def job_retry(self, index, workload, kind, attempt, delay):
        return self._emit("retry", job=index, workload=workload, kind=kind,
                          attempt=attempt, delay=round(delay, 6))

    def job_timeout(self, index, workload, attempt):
        return self._emit("timeout", job=index, workload=workload,
                          attempt=attempt)

    def worker_crash(self, victims):
        return self._emit("worker-crash", victims=sorted(victims))

    def job_done(self, index, workload, cycles=None, wall_seconds=None,
                 attempts=1):
        return self._emit("done", job=index, workload=workload,
                          cycles=cycles, wall_seconds=wall_seconds,
                          attempts=attempts)

    def job_failed(self, index, workload, kind, attempts, message):
        return self._emit("failed", job=index, workload=workload, kind=kind,
                          attempts=attempts, message=message)

    def maybe_heartbeat(self, running=0, queued=0, **extra):
        """Emit a throttled ``heartbeat``; returns it, or ``None``."""
        now = self._now()
        if self._last_beat is not None \
                and now - self._last_beat < self.heartbeat:
            return None
        self._last_beat = now
        return self._emit("heartbeat", running=running, queued=queued,
                          metrics=self.metrics.to_dict(), **extra)

    def sweep_end(self, cache=None):
        """Final event: the metrics snapshot plus disk-cache counters."""
        return self._emit("sweep-end", metrics=self.metrics.to_dict(),
                          cache=cache)


class LiveProgress:
    """Single-line ``\\r``-refresh terminal view of a running sweep.

    A plain event sink: it folds every event through its own
    :class:`SweepMetrics` (so it also works replaying a recorded log)
    and redraws at most every ``min_interval`` seconds, finishing with
    a newline on ``sweep-end``.
    """

    __slots__ = ("stream", "metrics", "min_interval", "count",
                 "_clock", "_last", "_width", "_sweep")

    def __init__(self, stream=None, min_interval=0.1, clock=time.monotonic):
        self.stream = stream if stream is not None else sys.stderr
        self.metrics = SweepMetrics()
        self.min_interval = min_interval
        self.count = 0
        self._clock = clock
        self._last = None
        self._width = 0
        self._sweep = None

    def __call__(self, event):
        self.count += 1
        self.metrics.apply(event)
        self._sweep = event.sweep_id
        final = event.kind == "sweep-end"
        now = self._clock()
        if not final and self._last is not None \
                and now - self._last < self.min_interval:
            return
        self._last = now
        line = self.render(event)
        pad = max(self._width - len(line), 0)
        self._width = len(line)
        self.stream.write("\r" + line + " " * pad)
        if final:
            self.stream.write("\n")
        self.stream.flush()

    def println(self, text):
        """Write a full line *through* the live view without mangling it.

        Other writers sharing this tty (the service access log, ad-hoc
        diagnostics) must not interleave with the ``\\r``-refresh
        status line: this clears the status line, writes ``text`` plus
        a newline, and redraws the status underneath — so the log line
        lands intact on its own row and the live view survives.
        """
        clear_pad = max(self._width - len(text), 0)
        status = self.render()
        self._width = len(status)
        self.stream.write("\r" + text + " " * clear_pad + "\n" + status)
        self.stream.flush()

    def render(self, event=None):
        """The current status line (no carriage control)."""
        m = self.metrics
        sweep = event.sweep_id if event is not None else self._sweep
        bits = [f"[sweep {sweep or '?'}]",
                f"{m.terminal}/{m.total or m.queued_events} jobs"]
        if m.done:
            bits.append(f"{m.done} done")
        if m.cache_hits:
            bits.append(f"{m.cache_hits} cached")
        if m.failed:
            bits.append(f"{m.failed} FAILED")
        if m.running:
            bits.append(f"{len(m.running)} running")
        if m.retries:
            bits.append(f"{m.retries} retries")
        rate = m.jobs_per_sec()
        if rate is not None:
            bits.append(f"{rate:.1f} job/s")
        eta = m.eta_seconds()
        if eta:
            bits.append(f"ETA {eta:.0f}s")
        return " | ".join(bits)


# ------------------------------------------------------------ log replay

def load_events(path):
    """Parse a JSONL sweep-event log into event dicts, oldest first.

    Malformed lines are skipped with a :class:`TelemetryWarning` — one
    rotted line never poisons the forensics (mirrors the run ledger's
    read policy).
    """
    with open(path) as handle:
        text = handle.read()
    events = []
    skipped = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if not isinstance(record, dict) or "event" not in record:
            skipped += 1
            continue
        events.append(record)
    if skipped:
        warnings.warn(
            f"skipped {skipped} malformed sweep-event line"
            f"{'' if skipped == 1 else 's'} in {path}",
            TelemetryWarning, stacklevel=2)
    return events


def summarize(events):
    """Fold an event log into accounting: metrics, per-job lifecycles,
    and invariant violations.

    Returns a dict with ``sweep_ids``, ``metrics`` (a
    replayed :class:`SweepMetrics`), ``jobs`` (index -> ordered event
    dicts), ``cache`` (the ``sweep-end`` disk-cache counters, if any),
    and ``violations`` — human-readable strings for every job that does
    not have exactly one ``queued`` and exactly one terminal event.
    """
    metrics = SweepMetrics()
    jobs = {}
    sweep_ids = []
    cache = None
    for record in events:
        event = SweepEvent.from_dict(record)
        metrics.apply(event)
        if event.sweep_id and event.sweep_id not in sweep_ids:
            sweep_ids.append(event.sweep_id)
        if event.job is not None:
            jobs.setdefault(event.job, []).append(record)
        if event.kind == "sweep-end":
            cache = (event.data or {}).get("cache")
    violations = []
    for index in sorted(jobs):
        kinds = [record["event"] for record in jobs[index]]
        queued = kinds.count("queued")
        terminals = [kind for kind in kinds if kind in TERMINAL_KINDS]
        if queued != 1:
            violations.append(
                f"job {index}: {queued} queued events (expected 1)")
        if len(terminals) != 1:
            shown = ", ".join(terminals) or "none"
            violations.append(
                f"job {index}: {len(terminals)} terminal events "
                f"({shown}; expected exactly 1)")
    if metrics.total and metrics.total != len(jobs):
        violations.append(
            f"sweep-start announced {metrics.total} jobs but the log "
            f"covers {len(jobs)}")
    return {"sweep_ids": sweep_ids, "metrics": metrics,
            "jobs": jobs, "cache": cache, "violations": violations}


def _event_line(record):
    rest = " ".join(
        f"{key}={value}" for key, value in record.items()
        if key not in ("event", "t", "sweep_id", "job", "workload")
        and value is not None)
    who = f"job {record['job']}" if "job" in record else "sweep"
    workload = record.get("workload")
    label = f"{who} {workload}" if workload else who
    return f"  [{record.get('t', 0):10.4f}s] {record['event']:<19} " \
           f"{label} {rest}".rstrip()


#: Width of the waterfall bar column.
_WATERFALL_WIDTH = 32


def _job_waterfall_rows(summary):
    """Per-job lifecycle rows: span bars on the sweep's time axis."""
    metrics = summary["metrics"]
    duration = metrics.elapsed or 1.0
    rows = []
    for index in sorted(summary["jobs"]):
        records = summary["jobs"][index]
        queued_t = next((r.get("t", 0.0) for r in records
                         if r["event"] == "queued"), 0.0)
        starts = [r for r in records if r["event"] == "started"]
        terminal = next((r for r in records
                         if r["event"] in TERMINAL_KINDS), None)
        end_t = terminal.get("t", queued_t) if terminal else duration
        outcome = terminal["event"] if terminal else "UNFINISHED"
        first_start = starts[0].get("t", queued_t) if starts else end_t
        lo = int(first_start / duration * _WATERFALL_WIDTH)
        hi = int(end_t / duration * _WATERFALL_WIDTH)
        lo = min(lo, _WATERFALL_WIDTH - 1)
        hi = max(min(hi, _WATERFALL_WIDTH), lo + 1)
        bar = " " * lo + "#" * (hi - lo) + " " * (_WATERFALL_WIDTH - hi)
        workload = records[0].get("workload") or "?"
        rows.append([index, workload, f"{queued_t:.3f}", len(starts),
                     outcome, f"{end_t:.3f}", bar])
    return rows


def render_summary(events, waterfall=False, show_failures=True):
    """Human-readable sweep report from a recorded event log.

    Returns ``(text, ok)`` where ``ok`` is False when the accounting
    invariant is violated (``repro sweep`` exits 1 on that).
    """
    from repro.harness.tables import format_table

    summary = summarize(events)
    metrics = summary["metrics"]
    snapshot = metrics.to_dict()
    sweeps = ", ".join(summary["sweep_ids"]) or "?"
    lines = [f"# repro sweep — sweep {sweeps}",
             f"# {len(events)} events, {len(summary['jobs'])} jobs, "
             f"{snapshot['elapsed']:.3f}s elapsed"]
    rate = snapshot["jobs_per_sec"]
    if rate is not None:
        lines[-1] += f", {rate:.2f} jobs/s"
    lines.append("")
    rows = [["done", metrics.done], ["failed", metrics.failed],
            ["cache-hit", metrics.cache_hits],
            ["retries", metrics.retries], ["timeouts", metrics.timeouts],
            ["worker-crashes", metrics.crashes]]
    lines.append(format_table("lifecycle accounting", ["event", "count"],
                              rows))
    cache = summary["cache"]
    if cache:
        lines.append("")
        lines.append(format_table(
            "disk result cache", ["counter", "value"],
            [[key, cache[key]] for key in
             ("hits", "misses", "dropped", "quarantined", "entries")
             if key in cache]))
    if waterfall:
        lines.append("")
        lines.append(format_table(
            "per-job waterfall",
            ["job", "workload", "queued", "attempts", "outcome", "end",
             "timeline"],
            _job_waterfall_rows(summary)))
    if show_failures:
        failed = [index for index in sorted(summary["jobs"])
                  if any(r["event"] == "failed"
                         for r in summary["jobs"][index])]
        if failed:
            lines.append("")
            lines.append(f"failure forensics ({len(failed)} job"
                         f"{'' if len(failed) == 1 else 's'}):")
            for index in failed:
                for record in summary["jobs"][index]:
                    lines.append(_event_line(record))
    lines.append("")
    if summary["violations"]:
        lines.append("accounting: VIOLATED")
        for violation in summary["violations"]:
            lines.append(f"  {violation}")
    else:
        lines.append(
            f"accounting: ok — {metrics.terminal} jobs, one terminal "
            f"event each ({metrics.done} done, {metrics.failed} failed, "
            f"{metrics.cache_hits} cache-hit)")
    return "\n".join(lines), not summary["violations"]
