"""The job service core and its asyncio HTTP front end.

:class:`JobService` is the thread-safe heart: it admits submissions
(:mod:`repro.service.queue`), coalesces duplicates
(:mod:`repro.service.dedup`), and dispatches unique jobs onto the
existing fault-tolerant :func:`repro.harness.parallel.run_grid` event
loop — one job per ``run_grid`` call, from ``workers`` dispatcher
threads over one queue, so up to ``workers`` jobs run at once, each in
its own worker process. Every recovery path the harness already proves
(timeouts, bounded retries, ``BrokenProcessPool`` recovery,
incremental disk-cache persistence) serves remote clients unchanged,
and served results are bit-identical to a direct ``run_grid`` call.

**One server-lifetime telemetry stream.** The service emits through a
single :class:`~repro.obs.telemetry.SweepTelemetry` hub: one
``sweep-start`` (with ``total=0`` — the job population is open-ended)
when the service starts, one ``queued`` per admitted unique job, the
relayed per-job lifecycle events of every dispatch, and one terminal
``sweep-end`` at drain. Each dispatch's inner ``run_grid`` hub is
private; :class:`_DispatchRelay` remaps its grid index onto the
service-global job index and re-emits, suppressing the inner
sweep-level events — so the server's event log satisfies the same
accounting invariant as a single sweep (exactly one ``queued`` and one
terminal event per job) and ``repro sweep`` audits a served session
exactly like a local one.

**Graceful drain.** SIGTERM/SIGINT stops admission (503 to new
submissions), lets the dispatchers finish everything already admitted,
publishes each job's terminal ``result`` record to its streaming
subscribers, appends the ledger (inside ``run_grid``, per job),
emits ``sweep-end``, and only then lets the process exit. A second
signal force-quits via ``KeyboardInterrupt``.

The HTTP layer is deliberately small: hand-rolled HTTP/1.1 over
``asyncio.start_server`` (stdlib only, persistent connections with an
idle deadline), JSON bodies, and an ndjson per-job event stream that
always ends with one ``result`` record and then closes its connection.
A client that disconnects mid-stream costs the server one write
error; the job itself is unaffected.
"""

import asyncio
import contextlib
import json
import queue as queue_mod
import signal
import sys
import threading
import time
import uuid

from repro.harness.parallel import default_workers, run_grid
from repro.harness.runner import Runner
from repro.service.dedup import DONE, FAILED, JobRegistry
from repro.service.protocol import (REQUEST_ID, ProtocolError,
                                    parse_job_request)
from repro.service.queue import AdmissionController
from repro.service.wire import (END_OF_HEAD, HEAD_LIMIT, HeadTooLarge,
                                content_length, keeps_open, parse_head)

#: Inner run_grid events not forwarded to the service stream: the
#: service owns its own sweep framing and queued/heartbeat cadence.
_SUPPRESSED_KINDS = ("sweep-start", "sweep-end", "queued", "heartbeat")


def _load_job_path():
    """Import what running a job needs: the compiler, the engine, the
    worker pool and the ledger.

    ``repro`` loads these lazily, at a process's first cache miss. A
    server always runs jobs, so it pays for them before it reports
    ready instead of inside its first requests.
    """
    import concurrent.futures.process  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.lang.compiler  # noqa: F401
    import repro.obs.ledger  # noqa: F401


class _DispatchRelay:
    """Sink on a dispatch's private hub: remap grid -> service index.

    A dispatch is a one-job grid, so grid index 0 is always ``entry``.
    Re-emits every per-job event on the service hub (folding it into
    the server-lifetime metrics and sinks) and publishes a copy to the
    entry's subscriber streams.
    """

    __slots__ = ("service", "entry")

    def __init__(self, service, entry):
        self.service = service
        self.entry = entry

    def __call__(self, event):
        if event.kind in _SUPPRESSED_KINDS:
            return
        entry = self.entry
        data = dict(event.data or {})
        job = None
        if event.job is not None:
            job = entry.index
            if event.kind == "cache-hit":
                entry.cached = True
            if entry.request.request_id is not None:
                # Correlate the relayed lifecycle with the HTTP request
                # that first admitted this job.
                data.setdefault("request_id", entry.request.request_id)
        elif event.kind == "worker-crash":
            data["victims"] = [entry.index]
        record = self.service._emit(event.kind, job=job,
                                    workload=event.workload, **data)
        entry.publish(record)


class ServiceMetrics:
    """The service's runtime metric families in one place.

    Push-style families (HTTP request timing, dispatch/completion
    accounting) are incremented at their emission sites — every one of
    which is gated by a bare ``service.metrics is None`` predicate, per
    the PR-2 zero-overhead contract. Counters and gauges whose source
    of truth already exists elsewhere (admission stats, cache counters,
    queue sizes) are *mirrored* at scrape time by
    :meth:`JobService.render_metrics` instead of instrumenting those
    hot paths — see ``docs/OBSERVABILITY.md``.
    """

    __slots__ = ("registry", "requests", "request_seconds", "rejections",
                 "admitted", "coalesced", "executed", "completed",
                 "ledger_appends", "inflight", "inflight_limit", "pending",
                 "running", "workers", "workers_busy", "cache_hits",
                 "cache_misses", "cache_dropped", "cache_quarantined",
                 "cache_entries")

    def __init__(self, registry=None):
        from repro.obs.runtime import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self.requests = registry.counter(
            "repro_requests_total",
            "HTTP requests served, by route, method, and status.",
            ("route", "method", "status"))
        self.request_seconds = registry.histogram(
            "repro_request_seconds",
            "HTTP request wall time in seconds, by route (the events "
            "route counts full stream lifetime).",
            ("route",))
        self.rejections = registry.counter(
            "repro_admission_rejections_total",
            "Submissions refused by admission control, by reason.",
            ("reason",))
        self.admitted = registry.counter(
            "repro_jobs_admitted_total",
            "Unique jobs granted an in-flight window slot.")
        self.coalesced = registry.counter(
            "repro_jobs_coalesced_total",
            "Duplicate submissions coalesced onto an existing job.")
        self.executed = registry.counter(
            "repro_jobs_executed_total",
            "Jobs handed to a run_grid dispatch (cache hits included).")
        self.completed = registry.counter(
            "repro_jobs_completed_total",
            "Jobs reaching a terminal state, by state.",
            ("state",))
        self.ledger_appends = registry.counter(
            "repro_ledger_appends_total",
            "Ledger records appended by dispatches.")
        self.inflight = registry.gauge(
            "repro_inflight_window",
            "Unique jobs admitted but not yet terminal.")
        self.inflight_limit = registry.gauge(
            "repro_inflight_window_limit",
            "Admission window depth (--queue-depth).")
        self.pending = registry.gauge(
            "repro_dispatch_pending",
            "Admitted jobs waiting for a dispatcher thread.")
        self.running = registry.gauge(
            "repro_jobs_running",
            "Jobs currently inside a run_grid dispatch.")
        self.workers = registry.gauge(
            "repro_workers", "Simulations the service runs at once.")
        self.workers_busy = registry.gauge(
            "repro_workers_busy",
            "Workers occupied by running jobs (0 when idle).")
        self.cache_hits = registry.counter(
            "repro_cache_hits_total", "Disk result cache hits.")
        self.cache_misses = registry.counter(
            "repro_cache_misses_total", "Disk result cache misses.")
        self.cache_dropped = registry.counter(
            "repro_cache_dropped_total",
            "Cache entries dropped (schema/version mismatch).")
        self.cache_quarantined = registry.counter(
            "repro_cache_quarantined_total",
            "Corrupt cache entries quarantined.")
        self.cache_entries = registry.gauge(
            "repro_cache_entries", "Entries resident in the disk cache.")


class JobService:
    """Thread-safe job service over :func:`run_grid`.

    Parameters mirror ``run_grid`` where they share meaning
    (``workers``, ``timeout``, ``retries``, ``backoff``, ``verify``).
    ``workers`` is how many simulations run at once: the service starts
    that many dispatcher threads over one queue, and each dispatches one
    job at a time as a one-job ``run_grid``, which runs it in its own
    worker process when ``workers >= 2``. The rest configure the
    service envelope:
    ``queue_depth``/``rate``/``burst`` the admission controller,
    ``disk_cache``/``ledger`` the durable layers, ``sinks`` the
    server-lifetime telemetry sinks, ``allow_chaos`` the over-the-wire
    fault-injection gate, and ``clock`` an injectable monotonic clock
    for deterministic tests.

    ``metrics`` attaches a runtime metrics registry (a
    :class:`repro.obs.runtime.MetricsRegistry`, or a prebuilt
    :class:`ServiceMetrics`) rendered by ``GET /metrics``. ``None``
    (the default) keeps the zero-overhead contract literal: no counter
    is touched, no line of ``repro.obs.runtime`` ever executes.
    """

    def __init__(self, *, workers=None, queue_depth=64, rate=None,
                 burst=None, timeout=None, retries=2, backoff=0.25,
                 verify=True, disk_cache=None, ledger=None,
                 sinks=(), allow_chaos=False, heartbeat=2.0,
                 clock=time.monotonic, metrics=None):
        from repro.harness.diskcache import DiskResultCache
        from repro.obs.telemetry import SweepTelemetry

        if disk_cache is not None and not isinstance(disk_cache,
                                                     DiskResultCache):
            disk_cache = DiskResultCache(disk_cache,
                                         schema=Runner.RESULT_SCHEMA)
        self.workers = (max(1, workers) if workers is not None
                        else default_workers())
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.verify = verify
        self.disk_cache = disk_cache
        self.ledger = ledger
        self.allow_chaos = allow_chaos
        self.heartbeat = heartbeat
        if metrics is not None and not isinstance(metrics, ServiceMetrics):
            metrics = ServiceMetrics(metrics)
        self.metrics = metrics
        self.registry = JobRegistry()
        self.admission = AdmissionController(depth=queue_depth, rate=rate,
                                             burst=burst, clock=clock)
        self.hub = SweepTelemetry(sinks=sinks, heartbeat=heartbeat,
                                  clock=clock)
        self.started = False
        self.drained = False
        self._clock = clock
        self._queue = queue_mod.Queue()
        self._stop = threading.Event()
        self._threads = []
        self._emit_lock = threading.Lock()
        self._settling = threading.Condition()
        self._inline = 0        # cached jobs being settled by submit()

    # ------------------------------------------------------------ telemetry

    def _emit(self, event_kind, job=None, workload=None, **data):
        """Emit one event on the server-lifetime stream; returns its
        JSONL record. The lock serializes the asyncio thread (queued
        events) against the dispatcher threads (relayed events). First
        parameter deliberately not named ``kind`` — failure and retry
        events carry a ``kind`` *payload* field via ``**data``."""
        with self._emit_lock:
            event = self.hub._emit(event_kind, job=job, workload=workload,
                                   **data)
        return event.to_dict()

    # ------------------------------------------------------------ lifecycle

    def start(self):
        """Emit ``sweep-start`` and start one dispatcher thread per
        worker."""
        if self.started:
            return self
        _load_job_path()
        self.started = True
        self._emit("sweep-start", total=0, workers=self.workers)
        self._threads = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"repro-serve-dispatch-{n}", daemon=True)
            for n in range(self.workers)]
        for thread in self._threads:
            thread.start()
        return self

    def begin_drain(self):
        """Stop admitting immediately; in-flight work continues."""
        self.admission.drain()

    def drain(self, timeout=None):
        """Graceful shutdown: stop admitting, finish everything
        admitted, emit the terminal ``sweep-end``.

        Blocks until the dispatchers have drained the queue (every
        admitted job reaches exactly one terminal state and its
        subscribers receive the final ``result`` record) or ``timeout``
        expires. Idempotent.
        """
        if self.drained:
            return self
        self.begin_drain()
        self._stop.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(None if deadline is None
                        else max(deadline - time.monotonic(), 0.0))
        with self._settling:
            self._settling.wait_for(
                lambda: not self._inline,
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0))
        if self._threads and not any(t.is_alive() for t in self._threads):
            # Belt and braces: the queue is drained, so nothing should
            # still be open — but a dispatcher that died mid-job must
            # not leave a job without a terminal event.
            for entry in self.registry.entries():
                if not entry.terminal:
                    self._fail_entry(entry, "interrupted",
                                     "service drained before the job "
                                     "finished")
        if self.started:
            with self._emit_lock:
                self.hub.sweep_end(cache=(self.disk_cache.counters()
                                          if self.disk_cache is not None
                                          else None))
        self.drained = True
        return self

    # ------------------------------------------------------------ admission

    def submit(self, payload, client=None, request_id=None, job_id=None):
        """Admit one submission; returns ``(status, doc, headers)``.

        202 queued (or coalesced onto a live job), 200 already
        terminal, 400/403 protocol errors, 429 backpressure with
        ``Retry-After``, 503 draining. A new job whose point the disk
        cache holds is settled here, in the calling thread, through
        the same one-job dispatch a queued job gets, and answers 200
        with its terminal document: no dispatcher, no event stream.

        ``request_id`` is the transport-level correlation id (the
        ``X-Repro-Request-Id`` header); an explicit ``request_id``
        payload field wins over it. A job keeps the id of its *first*
        submission — like ``sweep_id``, the job belongs to whichever
        request admitted it.

        ``job_id`` is the id an earlier, byte-identical submission of
        ``payload`` was admitted as (the HTTP layer's replay memo).
        While the registry holds that job live or done, the submission
        coalesces onto it without parsing ``payload``.
        """
        self.start()
        ok, reason, retry_after = self.admission.precheck(client)
        if not ok:
            status = 503 if reason == "draining" else 429
            doc = {"error": reason}
            headers = {}
            if retry_after is not None:
                doc["retry_after"] = round(retry_after, 3)
                headers["Retry-After"] = f"{max(retry_after, 0.001):.3f}"
            return status, doc, headers
        entry = (self.registry.coalesce(job_id) if job_id is not None
                 else None)
        if entry is None:
            try:
                request = parse_job_request(payload,
                                            allow_chaos=self.allow_chaos,
                                            known=self._known)
            except ProtocolError as error:
                return error.status, {"error": str(error)}, {}
            if request.request_id is None:
                request.request_id = request_id
            entry, created, retry_after = self.registry.get_or_create(
                request, admit=self.admission.acquire_slot)
            if entry is None:
                return 429, {"error": "queue-full",
                             "retry_after": retry_after}, \
                       {"Retry-After": f"{retry_after:.3f}"}
            if created:
                return self._admit(entry)
        # Coalesced onto an existing live/done entry: no window slot is
        # spent — no new simulation will run, so a duplicate storm can
        # never exhaust the queue.
        self.admission.note_coalesced()
        doc = entry.job_doc()
        doc["coalesced"] = True
        return (200 if entry.terminal else 202), doc, {}

    def _admit(self, entry):
        """Announce a newly created entry, then queue it for a
        dispatcher — or settle it now when the disk cache holds it."""
        request = entry.request
        extra = ({"request_id": request.request_id}
                 if request.request_id is not None else {})
        record = self._emit("queued", job=entry.index,
                            workload=request.workload,
                            config=request.fingerprint, **extra)
        entry.publish(record)
        if self.disk_cache is not None and request.job_id in self.disk_cache:
            with self._settling:
                self._inline += 1
            try:
                self._dispatch(entry)
            finally:
                with self._settling:
                    self._inline -= 1
                    self._settling.notify_all()
        else:
            self._queue.put(entry)
        doc = entry.job_doc()
        doc["coalesced"] = False
        return (200 if entry.terminal else 202), doc, {}

    def _known(self, job_id):
        """Whether the registry or the disk cache already holds
        ``job_id`` — either proves its point compiles."""
        return (self.registry.get(job_id) is not None
                or (self.disk_cache is not None
                    and job_id in self.disk_cache))

    def job_status(self, job_id):
        """Status document for ``job_id``, or ``None`` if unknown."""
        entry = self.registry.get(job_id)
        return entry.job_doc() if entry is not None else None

    # --------------------------------------------------------------- health

    def snapshot(self):
        """Worker-pool, queue, dedup, and cache state (health body)."""
        return {
            "sweep_id": self.hub.sweep_id,
            "workers": self.workers,
            "started": self.started,
            "drained": self.drained,
            "dispatcher_alive": bool(self._threads) and all(
                thread.is_alive() for thread in self._threads),
            "pending_dispatch": self._queue.qsize(),
            "jobs": self.registry.counts(),
            "admission": self.admission.snapshot(),
            "cache": (self.disk_cache.counters()
                      if self.disk_cache is not None else None),
        }

    def ready(self):
        """``(ok, snapshot)`` — ready means admitting with every
        dispatcher thread alive."""
        snapshot = self.snapshot()
        ok = (self.started and not self.drained
              and not snapshot["admission"]["draining"]
              and snapshot["dispatcher_alive"])
        return ok, snapshot

    def render_metrics(self):
        """Prometheus text for ``GET /metrics``.

        Mirrors the counters whose source of truth lives elsewhere
        (admission stats, cache counters, queue sizes) into the
        registry at scrape time — scrapes are rare, so the hot paths
        those numbers describe stay uninstrumented — then renders the
        whole registry. Requires ``metrics`` to have been attached.
        """
        m = self.metrics
        if m is None:
            raise RuntimeError("metrics are not enabled on this service")
        snapshot = self.snapshot()
        admission = snapshot["admission"]
        for reason, count in admission["rejected"].items():
            m.rejections.labels(reason=reason).set_to(count)
        m.admitted.set_to(admission["admitted"])
        m.coalesced.set_to(admission["coalesced"])
        m.inflight.set(admission["inflight"])
        m.inflight_limit.set(admission["depth"])
        running = snapshot["jobs"]["running"]
        m.pending.set(snapshot["pending_dispatch"])
        m.running.set(running)
        m.workers.set(self.workers)
        m.workers_busy.set(min(self.workers, running))
        cache = snapshot["cache"]
        if cache is not None:
            m.cache_hits.set_to(cache["hits"])
            m.cache_misses.set_to(cache["misses"])
            m.cache_dropped.set_to(cache["dropped"])
            m.cache_quarantined.set_to(cache["quarantined"])
            m.cache_entries.set(cache["entries"])
        return m.registry.render()

    # ------------------------------------------------------------- dispatch

    def _dispatch_loop(self):
        """Dispatcher thread: take one queued entry at a time and run it
        as a one-job ``run_grid``. ``workers`` of these share the queue,
        so up to ``workers`` jobs run at once."""
        while True:
            try:
                entry = self._queue.get(timeout=0.05)
            except queue_mod.Empty:
                if self._stop.is_set():
                    return
                counts = self.registry.counts()
                with self._emit_lock:
                    self.hub.maybe_heartbeat(
                        running=counts["running"],
                        queued=counts["queued"],
                        inflight=self.admission.inflight)
                continue
            self._dispatch(entry)

    @staticmethod
    def _chaos_plan(entry):
        """The entry's over-the-wire chaos rules as a :class:`FaultPlan`
        on grid index 0, or ``None``."""
        chaos = entry.request.chaos
        if not chaos:
            return None
        from repro.faults import FaultPlan
        plan = FaultPlan()
        for rule, kwargs in chaos.items():
            getattr(plan, rule)(indices=[0], **kwargs)
        return plan

    def _fail_entry(self, entry, kind, message, attempts=0):
        """Terminal failure outside the normal relay path (dispatch
        errors, drain leftovers): emit the service-level ``failed``
        event and finish the entry, keeping the accounting invariant."""
        record = self._emit("failed", job=entry.index,
                            workload=entry.request.workload, kind=kind,
                            attempts=attempts, message=message)
        entry.publish(record)
        if entry.finish(FAILED, failure={"kind": kind, "message": message,
                                         "attempts": attempts},
                        on_transition=self._count_completion):
            self.admission.release_slot()

    @property
    def _count_completion(self):
        """``finish()`` hook counting terminal transitions, or ``None``
        when metrics are off — the increment runs under the entry lock
        so a scrape can never observe a terminal job the completion
        counter has not yet counted."""
        if self.metrics is None:
            return None
        return lambda state: self.metrics.completed.labels(state=state).inc()

    def _dispatch(self, entry):
        """Run one entry through a one-job ``run_grid`` and settle it."""
        request = entry.request
        entry.mark_running()
        from repro.obs.telemetry import SweepTelemetry
        inner = SweepTelemetry(sinks=(_DispatchRelay(self, entry),),
                               heartbeat=self.heartbeat, clock=self._clock)
        if self.metrics is not None:
            self.metrics.executed.inc()
        try:
            result, = run_grid(
                [(request.workload, request.config)], workers=self.workers,
                verify=self.verify, disk_cache=self.disk_cache,
                aligned=request.aligned, instrument=request.instrument,
                timeout=self.timeout,
                retries=self.retries, backoff=self.backoff, strict=False,
                fault_plan=self._chaos_plan(entry), ledger=self.ledger,
                telemetry=inner, sweep_id=request.sweep_id,
                request_ids=({0: request.request_id}
                             if request.request_id is not None else None))
        except Exception as error:  # noqa: BLE001 — dispatcher must survive
            if not entry.terminal:
                self._fail_entry(entry, "dispatch",
                                 f"dispatch error: {error!r}")
            return
        count = self._count_completion
        ok = result is not None and result.ok
        if ok:
            done = entry.finish(DONE, result=Runner._to_payload(result),
                                on_transition=count)
        else:
            failure = ({"kind": result.kind, "message": result.message,
                        "attempts": result.attempts}
                       if result is not None else
                       {"kind": "lost", "attempts": 0,
                        "message": "run_grid returned no result"})
            done = entry.finish(FAILED, failure=failure, on_transition=count)
        if done:
            self.admission.release_slot()
        if ok and self.metrics is not None and self.ledger is not None:
            # run_grid appended one record for the successful result
            # (a cache hit included).
            self.metrics.ledger_appends.inc()


# --------------------------------------------------------------- HTTP layer

#: Seconds a connection may take to deliver its next request — request
#: line, headers and body. When it passes, the server aborts the
#: connection, so an idle or stalled client cannot hold a handler.
IDLE_TIMEOUT = 5.0

#: Request bodies the replay memo remembers, and the largest it keeps:
#: at most 1,024 x 8 KiB. A full machine spec makes a body of about
#: 900 bytes, and the paper's grids hold under 300 points. The oldest
#: body is forgotten first; a forgotten one is simply parsed again.
REPLAY_MEMO_SIZE = 1024
REPLAY_BODY_LIMIT = 8192

#: Largest request body the server reads. A longer ``Content-Length``
#: is answered ``413`` and the connection closed unread. A full machine
#: spec makes a body of about 900 bytes.
BODY_LIMIT = 64 * 1024

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
            413: "Content Too Large", 429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _response(status, payload, headers=(), keep=False):
    """One complete response: a dict ``payload`` is sent as JSON, a str
    as Prometheus text (its Content-Type pins the exposition version
    scrapers negotiate on). ``keep`` leaves the connection open."""
    if isinstance(payload, str):
        body = payload.encode()
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload) + "\n").encode()
        content_type = "application/json"
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}"]
    if not keep:
        lines.append("Connection: close")
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _refused(status, message, start=(None, None, ""), headers=None):
    """What :meth:`ServiceHTTP._read_request` returns for a request it
    refuses: its parsed ``start`` line and ``headers`` when it got that
    far, and the answer as :meth:`ServiceHTTP._route` gives one."""
    method, target, version = start
    return (method, target, version, headers or {}, b"",
            (status, {"error": message}, ()))


def _stream_head(request_id=None):
    # The stream has no length: its end is the end of the connection.
    lines = ["HTTP/1.1 200 OK",
             "Content-Type: application/x-ndjson",
             "Connection: close"]
    if request_id is not None:
        lines.append(f"X-Repro-Request-Id: {request_id}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def _route_label(method, path):
    """Canonical route label for metrics — bounded cardinality no matter
    what paths clients probe."""
    if path in ("/healthz", "/readyz", "/metrics", "/v1/jobs"):
        return path
    if path.startswith("/v1/jobs/"):
        if path.endswith("/events"):
            return "/v1/jobs/{id}/events"
        return "/v1/jobs/{id}"
    return "other"


def _method_label(method):
    """Canonical method label for metrics: the two the service routes,
    or ``other`` — a client cannot add series by inventing methods."""
    return method if method in ("GET", "POST") else "other"


class AccessLog:
    """Structured ndjson access log, one line per HTTP request.

    Defaults to stderr — *never* stdout, which carries the banner and
    the drain summary that ``tools/service_chaos.py`` parses — and can
    target any line-buffered stream. When a
    :class:`~repro.obs.telemetry.LiveProgress` shares the destination
    tty, pass it as ``live``: lines are then routed through
    ``live.println`` so the single-line status refresh and the log
    never interleave mid-line (the PR-9 fix; regression-tested in
    ``tests/test_service.py``).
    """

    __slots__ = ("stream", "live", "count", "_lock")

    def __init__(self, stream=None, live=None):
        self.stream = stream if stream is not None else sys.stderr
        self.live = live
        self.count = 0
        self._lock = threading.Lock()

    def __call__(self, record):
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.count += 1
            if self.live is not None:
                self.live.println(line)
            else:
                self.stream.write(line + "\n")
                with contextlib.suppress(Exception):
                    self.stream.flush()


class ServiceHTTP:
    """Asyncio HTTP/1.1 front end for a :class:`JobService`.

    Routes::

        POST /v1/jobs             submit (see JobService.submit)
        GET  /v1/jobs/<id>        status document (404 unknown)
        GET  /v1/jobs/<id>/events ndjson lifecycle stream, ends with
                                  one {"event": "result", ...} record
        GET  /healthz             200 + full state snapshot, always
        GET  /readyz              200 admitting / 503 draining or dead
        GET  /metrics             Prometheus text (404 when the service
                                  was built without a metrics registry)

    Connections persist: an HTTP/1.1 request keeps its connection
    unless it sends ``Connection: close``, an HTTP/1.0 one only when it
    sends ``keep-alive`` (:func:`repro.service.wire.keeps_open`). The
    event stream, a refused request (``400``, ``413``, ``431``) and a
    500 close the connection, and so does every response once the
    service drains. Each next request must arrive within
    :data:`IDLE_TIMEOUT`. A request head is read in one
    ``readuntil``, so its size is capped by the reader's limit
    (:data:`~repro.service.wire.HEAD_LIMIT`).

    Every response carries ``X-Repro-Request-Id`` — the client's
    header echoed back, or a server-generated id — and ``access_log``
    (an :class:`AccessLog`) gets one structured line per request with
    that id, so a slow request joins its job's telemetry and ledger
    records by a single grep.

    ``port=0`` binds an ephemeral port; :meth:`start` fills in the
    real one.
    """

    def __init__(self, service, host="127.0.0.1", port=0, *,
                 access_log=None):
        self.service = service
        self.host = host
        self.port = port
        self.access_log = access_log
        self._server = None
        self._closing = False
        self._handlers = set()      # tasks serving a connection
        self._idle = set()          # writers waiting for their next request
        self._replays = {}          # admitted request body -> its job id

    async def start(self):
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=HEAD_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self):
        """Stop listening, abort every connection idle between
        requests, and wait for the handlers still answering one."""
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        for writer in list(self._idle):
            writer.transport.abort()
        if self._handlers:
            await asyncio.wait(set(self._handlers), timeout=5.0)
        with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
            await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)

    # ------------------------------------------------------------- handling

    async def _handle(self, reader, writer):
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while await self._serve_one(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass        # client went away mid-request/stream; jobs unaffected
        except Exception as error:  # noqa: BLE001 — one bad request only
            with contextlib.suppress(Exception):
                writer.write(_response(
                    500, {"error": f"internal error: {error!r}"}))
        finally:
            self._idle.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            self._handlers.discard(task)

    async def _read_request(self, reader, writer):
        """Read one request under the idle deadline.

        Returns ``(method, target, version, headers, body, refusal)``,
        or ``None`` when the connection ended (client close, deadline,
        shutdown). ``refusal`` is ``None``, or the ``(status, payload,
        headers)`` answer to a request that is not read to its end: a
        malformed one (400), a head over the reader's limit or with too
        many header lines (431), a body over :data:`BODY_LIMIT` (413).
        Then ``method`` and ``target`` are ``None`` when the request
        line was not parsed, and no body is read."""
        abort = asyncio.get_running_loop().call_later(
            IDLE_TIMEOUT, writer.transport.abort)
        self._idle.add(writer)
        try:
            try:
                head = await reader.readuntil(END_OF_HEAD)
            except asyncio.IncompleteReadError:
                return None
            except asyncio.LimitOverrunError:
                return _refused(431, f"request head over {HEAD_LIMIT} bytes")
            finally:
                self._idle.discard(writer)
            try:
                start, headers = parse_head(head)
            except HeadTooLarge as error:
                return _refused(431, str(error))
            if len(start) != 3:
                return _refused(400, "malformed request line")
            method, target, version = start
            try:
                length = content_length(headers) or 0
            except ValueError:
                # A request of unknown length would desynchronise every
                # request after it on this connection.
                return _refused(400, "Content-Length must be a "
                                     "non-negative integer", start, headers)
            if length > BODY_LIMIT:
                return _refused(413, f"request body over {BODY_LIMIT} bytes",
                                start, headers)
            body = await reader.readexactly(length) if length else b""
            return method, target, version.rstrip(), headers, body, None
        finally:
            abort.cancel()

    async def _serve_one(self, reader, writer):
        """Answer one request; returns whether the connection stays
        open for the next."""
        if self._closing:
            return False
        request = await self._read_request(reader, writer)
        if request is None:
            return False
        start = time.perf_counter()
        method, target, version, headers, body, refusal = request
        path = target.split("?", 1)[0] if target is not None else ""
        request_id = headers.get("x-repro-request-id")
        if request_id is None or not REQUEST_ID.fullmatch(request_id):
            # Absent, or not safe to echo and log: mint one.
            request_id = uuid.uuid4().hex[:12]
        if refusal is not None:
            keep = False
            status, payload, extra = refusal
        else:
            keep = keeps_open(version, headers)
            status, payload, extra = await self._route(
                method, path, body, writer, request_id)
        if payload is None:
            keep = False        # the event stream owned the connection
        else:
            keep = (keep and not self._closing
                    and not self.service.admission.draining)
            extra = [*extra, ("X-Repro-Request-Id", request_id)]
            if keep and version == "HTTP/1.0":
                extra.append(("Connection", "keep-alive"))
            writer.write(_response(status, payload, extra, keep))
            await writer.drain()
        seconds = time.perf_counter() - start
        if self.service.metrics is not None:
            route = _route_label(method, path)
            self.service.metrics.requests.labels(
                route=route, method=_method_label(method),
                status=str(status)).inc()
            self.service.metrics.request_seconds.labels(
                route=route).observe(seconds)
        if self.access_log is not None:
            self.access_log({"t": round(time.time(), 3), "method": method,
                             "path": path, "status": status,
                             "seconds": round(seconds, 6),
                             "request_id": request_id})
        return keep

    async def _route(self, method, path, body, writer, request_id):
        """Answer one request as ``(status, payload, headers)`` for the
        caller to send (see :func:`_response`), or ``(200, None, ())``
        once the event stream has been written."""
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok", **self.service.snapshot()}, ()
        if path == "/readyz" and method == "GET":
            ok, snapshot = self.service.ready()
            return (200 if ok else 503,
                    {"status": "ready" if ok else "not-ready", **snapshot},
                    ())
        if path == "/metrics" and method == "GET":
            if self.service.metrics is None:
                return 404, {"error": "metrics disabled "
                                      "(server started with --no-metrics)"}, ()
            loop = asyncio.get_running_loop()
            # render takes the registry/admission locks; keep it off
            # the event loop like every other service call.
            text = await loop.run_in_executor(
                None, self.service.render_metrics)
            return 200, text, ()
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "submit with POST /v1/jobs"}, ()
            return await self._submit(body, request_id)
        if path.startswith("/v1/jobs/") and method == "GET":
            job_id = path[len("/v1/jobs/"):]
            if job_id.endswith("/events"):
                return await self._events(
                    job_id[:-len("/events")].rstrip("/"), writer,
                    request_id)
            return self._status(job_id)
        return 404, {"error": f"no route for {method} {path}"}, ()

    async def _submit(self, body, request_id):
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "request body is not valid JSON"}, ()
        client = payload.get("client") if isinstance(payload, dict) else None
        job_id = self._replays.get(body)
        if job_id is not None:
            entry = self.service.registry.get(job_id)
            if entry is not None and entry.state != FAILED:
                # A byte-identical resubmission of a job the registry
                # holds live or done only coalesces: nothing to parse
                # and nothing that blocks, so answer it on the loop. (A
                # job that fails between this check and the coalesce is
                # parsed and retried here: correct, and rare.)
                status, doc, headers = self.service.submit(
                    payload, client, request_id, job_id=job_id)
                return status, doc, headers.items()
        loop = asyncio.get_running_loop()
        # submit() parses and hashes the program off the event loop, so
        # a slow (or injected-slow) client never stalls its neighbours.
        status, doc, headers = await loop.run_in_executor(
            None, self.service.submit, payload, client, request_id)
        if status in (200, 202) and len(body) <= REPLAY_BODY_LIMIT:
            if body not in self._replays \
                    and len(self._replays) >= REPLAY_MEMO_SIZE:
                del self._replays[next(iter(self._replays))]
            self._replays[body] = doc["job_id"]
        return status, doc, headers.items()

    def _status(self, job_id):
        doc = self.service.job_status(job_id)
        if doc is None:
            return 404, {"error": f"unknown job {job_id!r}"}, ()
        return 200, doc, ()

    async def _events(self, job_id, writer, request_id):
        entry = self.service.registry.get(job_id)
        if entry is None:
            return 404, {"error": f"unknown job {job_id!r}"}, ()
        loop = asyncio.get_running_loop()
        pending = asyncio.Queue()

        def forward(record):
            loop.call_soon_threadsafe(pending.put_nowait, record)

        backlog, live = entry.subscribe(forward)
        try:
            writer.write(_stream_head(request_id))
            for record in backlog:
                writer.write((json.dumps(record) + "\n").encode())
            await writer.drain()
            while live:
                record = await pending.get()
                writer.write((json.dumps(record) + "\n").encode())
                await writer.drain()
                if record.get("event") == "result":
                    break
        finally:
            if live:
                entry.unsubscribe(forward)
        return 200, None, ()


def run_server(service, host="127.0.0.1", port=0, *, banner=None,
               access_log=None):
    """Serve until SIGTERM/SIGINT, then drain gracefully; blocking.

    ``banner`` is called with the started :class:`ServiceHTTP` (the
    CLI prints the "listening on" line from it — with ``port=0`` the
    real port is only known here). ``access_log`` is forwarded to
    :class:`ServiceHTTP`. The first signal stops admission and drains;
    a second one force-quits with ``KeyboardInterrupt``. Returns the
    drained ``service``.
    """
    asyncio.run(_serve_until_signal(service, host, port, banner,
                                    access_log))
    return service


async def _serve_until_signal(service, host, port, banner, access_log=None):
    http = await ServiceHTTP(service, host, port,
                             access_log=access_log).start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _initiate(signum):
        if stop.is_set():       # second signal: force-quit
            import _thread
            _thread.interrupt_main()
            return
        service.begin_drain()   # reject admissions before drain begins
        stop.set()

    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, _initiate, signum)
            installed.append(signum)
        except (NotImplementedError, ValueError, OSError):
            continue
    try:
        if banner is not None:
            banner(http)
        await stop.wait()
        # Drain off the event loop: streaming handlers keep running and
        # receive their final ``result`` records as jobs finish.
        await loop.run_in_executor(None, service.drain)
    finally:
        for signum in installed:
            with contextlib.suppress(ValueError, OSError):
                loop.remove_signal_handler(signum)
        await http.close()
