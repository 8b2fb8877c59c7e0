"""``ServiceClient``'s connection against a scripted socket server.

The server here answers each request head it reads with the next
scripted reply, written in the chunks the test gives, so the client's
parser sees responses split at awkward places, in HTTP/1.0, with
``Connection: close``, malformed, and cut short.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.service.client import ClientDisconnect, ServiceClient


def _reply(status=200, body=b'{"ok": true}\n', head_lines=(),
           version="HTTP/1.1"):
    head = [f"{version} {status} X", f"Content-Length: {len(body)}",
            *head_lines]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


class _ScriptedServer:
    """Answers the n-th request head it reads with ``replies[n]``: a
    list of byte chunks, sent with a short pause between them, or
    ``None`` to close the connection unanswered. A connection is closed
    after a reply whose last chunk is followed by ``"close"``, and reset
    (``SO_LINGER`` 0, so the peer reads ``ECONNRESET``) after one
    followed by ``"reset"``."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.connections = 0
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self.replies:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                self._answer(conn)

    def _answer(self, conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        received = b""
        while self.replies:
            while b"\r\n\r\n" not in received:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                received += chunk
            head, _, received = received.partition(b"\r\n\r\n")
            self.requests.append(head.decode("latin-1"))
            chunks = self.replies.pop(0)
            if chunks is None:
                return
            for chunk in chunks:
                if chunk == "reset":
                    time.sleep(0.05)
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                    return
                if chunk == "close":
                    return
                conn.sendall(chunk)
                time.sleep(0.0005)

    def close(self):
        self._listener.close()
        self._thread.join(10)


@pytest.fixture
def scripted():
    servers = []

    def _start(*replies):
        server = _ScriptedServer(replies)
        servers.append(server)
        client = ServiceClient("127.0.0.1", server.port, retries=2,
                               timeout=10, sleep=lambda seconds: None)
        return server, client

    yield _start
    for server in servers:
        server.close()


def _bytewise(data):
    return [data[i:i + 1] for i in range(len(data))]


def test_a_response_written_one_byte_at_a_time_parses(scripted):
    reply = _reply(body=b'{"status": "ok", "n": 1}\n',
                   head_lines=("X-Repro-Request-Id: abc",))
    server, client = scripted(_bytewise(reply), [_reply()])
    assert client.health() == {"status": "ok", "n": 1}
    assert client.last_request_id == "abc"
    kept = client._local.connection.sock
    assert kept is not None
    assert client.health() == {"ok": True}
    assert client._local.connection.sock is kept
    assert server.connections == 1
    client.close()


@pytest.mark.parametrize("reply", [
    _reply(head_lines=("Connection: close",)),
    _reply(version="HTTP/1.0"),
], ids=["connection-close", "http10"])
def test_a_closing_response_drops_the_kept_socket(scripted, reply):
    server, client = scripted([reply, "close"], [_reply()])
    assert client.readiness()[0]
    assert client._local.connection.sock is None
    assert client.readiness()[0]
    assert server.connections == 2
    client.close()


def test_http10_keep_alive_keeps_the_socket(scripted):
    reply = _reply(version="HTTP/1.0", head_lines=("Connection: keep-alive",))
    server, client = scripted([reply], [reply])
    assert client.readiness()[0] and client.readiness()[0]
    assert server.connections == 1
    client.close()


def test_a_garbage_status_line_is_retried_as_a_connection_error(scripted):
    sleeps = []
    server, client = scripted([b"garbage\r\n\r\n", "close"],
                              [_reply(body=b'{"state": "done"}')])
    client.sleep = sleeps.append
    assert client.status("j" * 16) == {"state": "done"}
    assert len(sleeps) == 1             # one retry, after a backoff
    assert server.connections == 2
    assert server.requests[1].startswith("GET /v1/jobs/" + "j" * 16)
    client.close()


def test_a_reused_socket_closed_unanswered_is_resent_at_once(scripted):
    sleeps = []
    server, client = scripted([_reply()], None, [_reply()])
    client.sleep = sleeps.append
    assert client.health() == {"ok": True}
    assert client.health() == {"ok": True}
    assert sleeps == [] and server.connections == 2
    client.close()


def _records(*events):
    return [(json.dumps({"event": event, "job": 0}) + "\n").encode()
            for event in events]


_STREAM_HEAD = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n")


def test_an_event_stream_split_across_segments_yields_every_record(
        scripted):
    data = _STREAM_HEAD + b"".join(_records("queued", "running", "result"))
    # cut mid-head, mid-record and between records
    cuts = [0, 20, len(_STREAM_HEAD) + 5, len(_STREAM_HEAD) + 40,
            len(data) - 3, len(data)]
    chunks = [data[a:b] for a, b in zip(cuts, cuts[1:])]
    server, client = scripted([*chunks, "close"])
    records = list(client.stream("j" * 16, request_id="rid-1"))
    assert [r["event"] for r in records] == ["queued", "running", "result"]
    assert "X-Repro-Request-Id: rid-1" in server.requests[0]


def test_a_truncated_event_stream_raises_client_disconnect(scripted):
    queued, running = _records("queued", "running")
    server, client = scripted([_STREAM_HEAD, queued, running[:7], "close"])
    seen = []
    with pytest.raises(ClientDisconnect, match="after 1 record"):
        for record in client.stream("j" * 16):
            seen.append(record["event"])
    assert seen == ["queued"]


def test_a_stream_reset_mid_flight_falls_back_to_polling(scripted):
    queued, = _records("queued")
    done = {"job_id": "j" * 16, "state": "done", "result": {"cycles": 7}}
    server, client = scripted(
        [_reply(body=b'{"job_id": "' + b"j" * 16 + b'", "state": "queued"}',
                head_lines=("Connection: close",)), "close"],
        [_STREAM_HEAD + queued, "reset"],
        [_reply(body=json.dumps(done).encode())])
    assert client.run_job({"workload": "LL2"}) == done
    assert server.requests[1].startswith("GET /v1/jobs/" + "j" * 16
                                         + "/events")
    assert server.requests[2].startswith("GET /v1/jobs/" + "j" * 16 + " ")
    client.close()


def test_metrics_text_returns_the_exposition(scripted):
    text = "# TYPE repro_up gauge\nrepro_up 1\n"
    reply = _reply(body=text.encode(), head_lines=(
        "Content-Type: text/plain; version=0.0.4",))
    server, client = scripted(_bytewise(reply))
    assert client.metrics_text() == text
    assert server.requests[0].startswith("GET /metrics HTTP/1.1")
    assert "Connection: close" in server.requests[0]
