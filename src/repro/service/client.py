"""Client for the job service: ``repro submit`` and the chaos suite.

Stdlib only: :class:`Connection` speaks the server's HTTP/1.1 dialect
(:mod:`repro.service.wire`) over one socket, one ``sendall`` per
request and one buffered ``recv`` loop per response; every request,
the event stream and ``/metrics`` scrapes go through it.

The design centre is *idempotent resubmission*: job ids are
content-addressed (:mod:`repro.service.protocol`), so retrying a
submit — after a connection error, a 429, a 503, or a dropped event
stream — can never start a second simulation; it coalesces onto the
original job server-side. That makes the aggressive retry loop here
safe by construction.

:meth:`ServiceClient.run_job` is the full client story the fault
matrix exercises end to end: optional injected submit delay (slow
client), submit with exponential backoff honouring ``Retry-After``,
follow the job's ndjson event stream, and — when the stream drops
mid-flight, injected or real — fall back to polling the job's status
document until its terminal state. Faults are driven by a
:class:`repro.faults.ServiceFaultPlan`; a ``pool-loss`` rule is
translated into the over-the-wire ``chaos`` field (the server must be
started with ``--allow-chaos``).
"""

import json
import socket
import threading
import time
import uuid
import weakref

from repro.service.wire import (END_OF_HEAD, HEAD_LIMIT, HeadTooLarge,
                                content_length, keeps_open, parse_head)


def new_request_id():
    """A fresh correlation id for ``X-Repro-Request-Id``."""
    return uuid.uuid4().hex[:16]


def _id_header(request_id):
    """The ``X-Repro-Request-Id`` header line for ``request_id`` ("" for
    none); an id that would split its header line is a ValueError."""
    if request_id is None:
        return ""
    if "\r" in request_id or "\n" in request_id:
        raise ValueError(f"request id {request_id!r} contains a line break")
    return f"X-Repro-Request-Id: {request_id}\r\n"


class ServiceError(Exception):
    """A non-retryable HTTP error (4xx other than backpressure)."""

    def __init__(self, status, message):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceUnavailable(Exception):
    """The retry budget ran out without a successful response."""


class ClientDisconnect(Exception):
    """The event stream dropped before its ``result`` record
    (raised for injected disconnects and truncated streams alike)."""


class BadResponse(OSError):
    """A response that does not parse, or ends early. An ``OSError``,
    so the retry policy treats it as the connection error it is."""


#: Ceiling on any single backoff sleep, seconds.
_MAX_BACKOFF = 5.0

#: Bytes asked of one ``recv``.
_RECV_SIZE = 65536


class Connection:
    """One socket to the service, speaking its HTTP/1.1 dialect
    (:mod:`repro.service.wire`).

    A request is one ``sendall`` of its head and body; a response is
    read by one buffered ``recv`` loop: the head up to its blank line,
    then the body by ``Content-Length``, or to the end of the stream
    when there is none. ``sock`` is the open socket, or ``None``
    between connections: a request opens one when there is none, and a
    response that does not keep its connection (``Connection: close``,
    HTTP/1.0 without ``keep-alive``, no length) closes it.
    """

    def __init__(self, host, port, timeout):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.sock = None
        self._buffer = bytearray()      # received, not yet consumed
        self._host = f"Host: {host}:{port}\r\n"

    def close(self):
        sock, self.sock = self.sock, None
        self._buffer.clear()
        if sock is not None:
            sock.close()

    def send(self, method, path, body=b"", extra=""):
        """Send one request; ``extra`` is more header lines, each ending
        in CRLF. Opens the socket when there is none."""
        if self.sock is None:
            self.sock = socket.create_connection((self.host, self.port),
                                                 self.timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if body:
            extra += ("Content-Type: application/json\r\n"
                      f"Content-Length: {len(body)}\r\n")
        head = f"{method} {path} HTTP/1.1\r\n{self._host}{extra}\r\n"
        self.sock.sendall(head.encode("latin-1") + body)

    def _fill(self):
        """Receive more bytes into the buffer; False at end of stream."""
        chunk = self.sock.recv(_RECV_SIZE)
        self._buffer += chunk
        return bool(chunk)

    def read_head(self):
        """The next response's ``(status, version, headers)``.

        Raises ``ConnectionResetError`` when the stream ends before any
        byte of a response (the server closed a kept connection), and
        :class:`BadResponse` for a malformed or truncated head."""
        buffer = self._buffer
        searched = 0
        while (end := buffer.find(END_OF_HEAD, searched)) < 0:
            if len(buffer) > HEAD_LIMIT:
                raise BadResponse(f"response head over {HEAD_LIMIT} bytes")
            searched = max(0, len(buffer) - 3)
            if not self._fill():
                if buffer:
                    raise BadResponse("response ended inside its head")
                raise ConnectionResetError("connection closed before "
                                           "a response")
        end += len(END_OF_HEAD)
        head = bytes(buffer[:end])
        del buffer[:end]
        try:
            start, headers = parse_head(head)
        except HeadTooLarge as error:
            raise BadResponse(str(error)) from None
        if len(start) < 2 or not start[0].startswith("HTTP/") \
                or not (start[1].isascii() and start[1].isdigit()):
            raise BadResponse(f"bad status line {head[:80]!r}")
        return int(start[1]), start[0], headers

    def read_body(self, version, headers):
        """The body of the response whose head was just read; closes
        the connection when the response does not keep it."""
        try:
            length = content_length(headers)
        except ValueError as error:
            raise BadResponse(str(error)) from None
        buffer = self._buffer
        if length is None:
            while self._fill():
                pass
            body = bytes(buffer)
            self.close()        # the stream's end was the body's
            return body
        while len(buffer) < length:
            if not self._fill():
                raise BadResponse(f"response ended {length - len(buffer)} "
                                  f"bytes short of its body")
        body = bytes(buffer[:length])
        del buffer[:length]
        if not keeps_open(version, headers):
            self.close()
        return body

    def readline(self):
        """The next line of a stream body, with its newline; ``b""``
        once the stream ends, even inside a line (a partial line is a
        truncated record)."""
        buffer = self._buffer
        searched = 0
        while (end := buffer.find(b"\n", searched)) < 0:
            searched = len(buffer)
            if not self._fill():
                return b""
        line = bytes(buffer[:end + 1])
        del buffer[:end + 1]
        return line


class ServiceClient:
    """One service endpoint plus a retry policy.

    ``sleep`` and ``clock`` are injectable so the retry/backoff paths
    are deterministic under test (no real waiting).

    Requests reuse one kept :class:`Connection` per calling thread; the
    event stream and ``/metrics`` scrapes open their own. A kept
    connection the server has closed is reopened and the request resent
    at once.

    Every request carries an ``X-Repro-Request-Id`` correlation header
    (caller-supplied or generated); the id echoed by the server's last
    response is kept in ``last_request_id`` — grep it in the server's
    access log, telemetry stream, and ledger.
    """

    def __init__(self, host="127.0.0.1", port=8421, *, retries=5,
                 backoff=0.2, timeout=60.0, sleep=time.sleep,
                 clock=time.monotonic):
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.sleep = sleep
        self.clock = clock
        self.last_request_id = None
        self._local = threading.local()     # one kept connection per thread
        self._kept = weakref.WeakSet()      # every thread's, for close()

    # ------------------------------------------------------------ plumbing

    def _connection(self):
        """This thread's kept connection (opened on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = Connection(self.host, self.port, self.timeout)
            self._local.connection = connection
            self._kept.add(connection)
        return connection

    def close(self):
        """Close every thread's kept connection; a later request from
        a thread opens a new one."""
        for connection in list(self._kept):
            connection.close()

    def _request(self, method, path, payload=None, request_id=None):
        body = json.dumps(payload).encode() if payload is not None \
            else b""
        extra = _id_header(request_id)
        connection = self._connection()
        try:
            reused = connection.sock is not None
            try:
                connection.send(method, path, body, extra)
                status, version, headers = connection.read_head()
            except (BrokenPipeError, ConnectionResetError):
                # The server closed the kept connection between
                # requests: nothing was answered, so resend once on a
                # new one. Every request is idempotent, so this is no
                # retry.
                if not reused:
                    raise
                connection.close()
                connection.send(method, path, body, extra)
                status, version, headers = connection.read_head()
            data = connection.read_body(version, headers)
        except BaseException:
            connection.close()  # never reuse a half-used connection
            raise
        echoed = headers.get("x-repro-request-id")
        if echoed is not None:
            self.last_request_id = echoed
        try:
            doc = json.loads(data.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            doc = None
        return status, headers, doc

    def _with_retries(self, send, what):
        """Run an idempotent request under the retry policy.

        Connection errors, 5xx, and explicit backpressure (429/503)
        retry with exponential backoff, preferring the server's
        ``Retry-After`` hint when it is longer; other 4xx raise
        :class:`ServiceError` immediately.
        """
        delay = self.backoff
        last = "no attempt made"
        for attempt in range(self.retries + 1):
            wait = delay
            try:
                status, headers, doc = send()
            except OSError as error:
                last = f"connection error: {error}"
            else:
                if status < 400:
                    return status, headers, doc
                message = (doc or {}).get("error") or f"HTTP {status}"
                if status not in (429, 503) and status < 500:
                    raise ServiceError(status, message)
                last = message
                retry_after = headers.get("retry-after")
                if retry_after is not None:
                    try:
                        wait = max(wait, float(retry_after))
                    except ValueError:
                        pass
            if attempt < self.retries:
                self.sleep(min(wait, _MAX_BACKOFF))
                delay = min(delay * 2, _MAX_BACKOFF)
        raise ServiceUnavailable(
            f"{what}: gave up after {self.retries + 1} attempt(s): {last}")

    # ------------------------------------------------------------- requests

    def submit(self, payload, request_id=None):
        """Submit one job (idempotent); returns its status document.

        ``request_id`` rides as the ``X-Repro-Request-Id`` header on
        every attempt — content-addressed idempotence means a retried
        submit is the *same* request, so it keeps the same id.
        """
        _, _, doc = self._with_retries(
            lambda: self._request("POST", "/v1/jobs", payload,
                                  request_id=request_id),
            f"submit {payload.get('workload', '?')}")
        return doc

    def status(self, job_id, request_id=None):
        """The job's current status document (404 -> ServiceError)."""
        _, _, doc = self._with_retries(
            lambda: self._request("GET", f"/v1/jobs/{job_id}",
                                  request_id=request_id),
            f"status {job_id[:12]}")
        return doc

    def health(self):
        """The ``/healthz`` snapshot (no retries)."""
        _, _, doc = self._request("GET", "/healthz")
        return doc

    def readiness(self):
        """``(ready, snapshot)`` from ``/readyz`` (no retries)."""
        status, _, doc = self._request("GET", "/readyz")
        return status == 200, doc

    def metrics_text(self):
        """The raw Prometheus text from ``GET /metrics`` (no retries).

        Raises :class:`ServiceError` when the server runs without a
        metrics registry (404).
        """
        connection = Connection(self.host, self.port, self.timeout)
        try:
            connection.send("GET", "/metrics", extra="Connection: close\r\n")
            status, version, headers = connection.read_head()
            data = connection.read_body(version, headers)
        finally:
            connection.close()
        if status != 200:
            raise ServiceError(status, "metrics scrape failed")
        return data.decode()

    def wait(self, job_id, poll=0.1, timeout=300.0, request_id=None):
        """Poll until the job is terminal; returns its final document."""
        deadline = self.clock() + timeout
        while True:
            doc = self.status(job_id, request_id=request_id)
            if doc.get("state") in ("done", "failed"):
                return doc
            if self.clock() >= deadline:
                raise ServiceUnavailable(
                    f"job {job_id[:12]} still {doc.get('state')!r} after "
                    f"{timeout}s")
            self.sleep(poll)

    def stream(self, job_id, *, plan=None, index=0, request_id=None):
        """Yield the job's lifecycle records, ending with ``result``.

        With a :class:`ServiceFaultPlan`, drops the connection after
        the plan's ``after_events`` threshold and raises
        :class:`ClientDisconnect` — also raised when the stream
        genuinely truncates (server died mid-stream).
        """
        connection = Connection(self.host, self.port, self.timeout)
        try:
            connection.send("GET", f"/v1/jobs/{job_id}/events",
                            extra=_id_header(request_id))
            status, _, _ = connection.read_head()
            if status != 200:
                raise ServiceError(status,
                                   f"no event stream for {job_id[:12]}")
            seen = 0
            while True:
                line = connection.readline()
                if not line:
                    raise ClientDisconnect(
                        f"stream for {job_id[:12]} ended after {seen} "
                        f"record(s) without a result")
                record = json.loads(line)
                yield record
                if record.get("event") == "result":
                    return
                seen += 1
                if plan is not None and plan.should_disconnect(index, seen):
                    raise ClientDisconnect(
                        f"injected disconnect after {seen} record(s)")
        finally:
            connection.close()

    def run_job(self, payload, *, plan=None, index=0, request_id=None):
        """The whole client story; returns the job's final document.

        Applies the plan's client-side faults for ``index`` (submit
        delay, pool-loss chaos translation, stream disconnect). A job
        the submit did not find terminal is followed on its event
        stream, whose ``result`` record carries the final document; a
        dropped stream is recovered by polling — the second half of
        idempotent resubmission: reattaching never re-runs the job.

        A correlation id is always sent (generated when not supplied)
        and kept in ``last_request_id``.
        """
        if request_id is None:
            request_id = new_request_id()
        self.last_request_id = request_id
        if plan is not None:
            delay = plan.submit_delay(index)
            if delay:
                self.sleep(delay)
            if "pool-loss" in plan.matches(index):
                payload = dict(payload)
                chaos = dict(payload.get("chaos") or {})
                chaos.setdefault("crash", {"attempts": 1})
                payload["chaos"] = chaos
        doc = self.submit(payload, request_id=request_id)
        if doc.get("state") in ("done", "failed"):
            return doc
        job_id = doc["job_id"]
        try:
            for record in self.stream(job_id, plan=plan, index=index,
                                      request_id=request_id):
                pass
        except ClientDisconnect:
            return self.wait(job_id, request_id=request_id)
        # The stream's last record is the ``result`` record: the job's
        # status document plus its stream framing.
        return {key: value for key, value in record.items()
                if key not in ("event", "job")}
