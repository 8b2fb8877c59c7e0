"""In-flight request coalescing: one simulation per unique job.

The disk result cache already dedupes *finished* work; this module
dedupes *concurrent* work. When N clients submit the same
content-addressed job id (see :mod:`repro.service.protocol`) while it
is queued or running, all N attach to one :class:`JobEntry`: one
simulation runs, every subscriber receives the same lifecycle events,
and every client reads the same bit-identical result payload. The
concurrent-duplicate property test in ``tests/test_service.py`` pins
exactly that.

State machine per entry::

    queued -> running -> done
                     \\-> failed

Terminal entries stay in the registry as memoized answers — a repeat
submission of a ``done`` job is answered instantly (and would be a
disk-cache hit anyway). A ``failed`` entry, by contrast, is *replaced*
by a fresh entry on resubmission: retrying a failure is the idempotent
recovery path a client's backoff loop relies on, while retrying a
success must never burn another simulation.

Everything is guarded by a per-entry condition variable; subscriber
callbacks are invoked outside the lock (they bridge into the asyncio
loop via ``call_soon_threadsafe``). The terminal transition appends
the final ``result`` record and detaches subscribers under one lock
hold, so a late subscriber either sees the result in its backlog or
receives it live — never neither, never both.
"""

import threading

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States from which an entry never transitions again.
TERMINAL_STATES = (DONE, FAILED)


class JobEntry:
    """One unique job: identity, state, buffered events, subscribers.

    ``index`` is the job's position in the service's server-lifetime
    telemetry stream (the ``job`` field of its events) — distinct from
    the per-dispatch grid index, which the relay remaps away.
    """

    __slots__ = ("request", "index", "state", "result", "failure",
                 "submissions", "cached", "events", "_subscribers", "_cond")

    def __init__(self, request, index):
        self.request = request
        self.index = index
        self.state = QUEUED
        self.result = None      # Runner payload dict once DONE
        self.failure = None     # {"kind", "message", "attempts"} once FAILED
        self.submissions = 1
        self.cached = False     # answered by the disk cache, no simulation
        self.events = []        # buffered event records (plain dicts)
        self._subscribers = []
        self._cond = threading.Condition()

    @property
    def terminal(self):
        return self.state in TERMINAL_STATES

    def job_doc(self):
        """The job's status document (``GET /v1/jobs/<id>`` body)."""
        with self._cond:
            doc = {
                "job_id": self.request.job_id,
                "index": self.index,
                "state": self.state,
                "workload": self.request.workload,
                "config": self.request.fingerprint,
                "sweep_id": self.request.sweep_id,
                "request_id": self.request.request_id,
                "submissions": self.submissions,
                # Dedup visibility: did the disk cache answer this job,
                # and how many clients coalesced onto it after the first?
                "cached": self.cached,
                "coalesced_clients": self.submissions - 1,
            }
            if self.result is not None:
                doc["result"] = self.result
            if self.failure is not None:
                doc["failure"] = self.failure
            return doc

    # -------------------------------------------------------- coalescing

    def coalesce(self):
        with self._cond:
            self.submissions += 1

    # ------------------------------------------------------ event stream

    def publish(self, record):
        """Append one lifecycle record and fan it out to subscribers."""
        with self._cond:
            self.events.append(record)
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(record)

    def subscribe(self, callback):
        """Attach a live subscriber; returns ``(backlog, live)``.

        ``backlog`` is every record so far (ending with the ``result``
        record when the entry is already terminal); ``live`` is False
        in that case and the callback was *not* registered.
        """
        with self._cond:
            backlog = list(self.events)
            live = not self.terminal
            if live:
                self._subscribers.append(callback)
        return backlog, live

    def unsubscribe(self, callback):
        with self._cond:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    # ----------------------------------------------------------- lifecycle

    def mark_running(self):
        with self._cond:
            if self.state == QUEUED:
                self.state = RUNNING

    def finish(self, state, result=None, failure=None, on_transition=None):
        """Terminal transition; returns False if already terminal.

        Publishes the final ``result`` record — the job's status
        document plus ``event`` and ``job`` — to every subscriber and
        detaches them; a per-job event stream always ends with exactly
        one ``result`` record. ``on_transition(state)``, when given,
        runs under the entry lock *before* the terminal state becomes
        observable — accounting updated there (the service's completion
        counters) can never lag a client that already saw the job end.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() needs a terminal state, got {state!r}")
        with self._cond:
            if self.terminal:
                return False
            if on_transition is not None:
                on_transition(state)
            self.state = state
            self.result = result
            self.failure = failure
            # The job document itself, so a client that followed the
            # stream needs no status request after it.
            record = {"event": "result", "job": self.index,
                      **self.job_doc()}
            self.events.append(record)
            subscribers = list(self._subscribers)
            self._subscribers.clear()
            self._cond.notify_all()
        for callback in subscribers:
            callback(record)
        return True

    def wait(self, timeout=None):
        """Block until terminal; returns True unless ``timeout`` expired."""
        with self._cond:
            return self._cond.wait_for(lambda: self.terminal, timeout)

    def __repr__(self):
        return (f"JobEntry(#{self.index} {self.request.workload} "
                f"{self.state}, {self.submissions} submission(s))")


class JobRegistry:
    """Job-id -> :class:`JobEntry` map; the coalescing point."""

    def __init__(self):
        self._entries = {}
        self._order = []        # insertion order, for iteration
        self._next_index = 0
        self._lock = threading.Lock()

    def get_or_create(self, request, admit=None):
        """Find or create the entry for ``request.job_id``.

        Returns ``(entry, created, retry_after)``. A live or ``done``
        entry is reused (``created=False``, submission coalesced) —
        without consulting ``admit``, so a duplicate of an admitted job
        needs no window slot even when the window is full. Creating a
        *new* entry first calls ``admit()`` (the admission controller's
        ``acquire_slot``) inside the registry lock, making
        coalesce-versus-admit atomic; on refusal nothing is registered
        and ``(None, False, retry_after)`` is returned. A ``failed``
        entry is replaced by a fresh entry so resubmission retries it.
        """
        with self._lock:
            entry = self._reuse(request.job_id)
            if entry is not None:
                return entry, False, None
            if admit is not None:
                ok, retry_after = admit()
                if not ok:
                    return None, False, retry_after
            entry = JobEntry(request, self._next_index)
            self._next_index += 1
            self._entries[request.job_id] = entry
            self._order.append(entry)
            return entry, True, None

    def coalesce(self, job_id):
        """Coalesce one submission onto the live or ``done`` entry for
        ``job_id`` and return it; ``None`` (nothing counted) when there
        is no such entry — unknown, or ``failed`` and due a retry."""
        with self._lock:
            return self._reuse(job_id)

    def _reuse(self, job_id):
        # Caller holds the lock.
        entry = self._entries.get(job_id)
        if entry is None or entry.state == FAILED:
            return None
        entry.coalesce()
        return entry

    def get(self, job_id):
        with self._lock:
            return self._entries.get(job_id)

    def entries(self):
        """Every entry ever registered, in admission order (replaced
        ``failed`` entries included — their event history is part of
        the service's accounting)."""
        with self._lock:
            return list(self._order)

    def counts(self):
        """Entry count per state, plus ``total``."""
        with self._lock:
            counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for entry in self._order:
                counts[entry.state] += 1
            counts["total"] = len(self._order)
            return counts

    def __len__(self):
        with self._lock:
            return len(self._order)
