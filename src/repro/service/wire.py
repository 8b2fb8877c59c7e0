"""The HTTP/1.1 dialect the job service speaks, shared by both ends.

The server (:class:`repro.service.server.ServiceHTTP`) and the client
(:class:`repro.service.client.Connection`) each read a message head as
one byte string ending at the first blank line (``b"\\r\\n\\r\\n"``)
and hand it to :func:`parse_head`. Lines end in CRLF; a header name is
matched case-insensitively (the parser lower-cases it), and a repeated
header keeps its last value. A body is exactly ``Content-Length``
bytes, except that the event stream has no length and ends with its
connection. :func:`keeps_open` is the one rule both ends apply to
decide whether a connection outlives its message.

This module imports nothing, so the client loads no more than it runs.
"""

#: Largest head either end reads: start line, headers and the blank
#: line. The server answers a longer request head ``431``.
HEAD_LIMIT = 64 * 1024

#: Most header lines one head may carry. The server answers a request
#: with more ``431``; the service's own requests send at most four.
HEADER_LINES = 100

#: What ends a head.
END_OF_HEAD = b"\r\n\r\n"


class HeadTooLarge(ValueError):
    """A head with more than :data:`HEADER_LINES` header lines."""


def parse_head(head):
    """Split ``head`` (bytes up to and including the blank line) into
    ``(start, headers)``: the start line split on whitespace into at
    most three fields, and a dict from lower-cased header name to its
    stripped value.

    Raises :class:`HeadTooLarge` past :data:`HEADER_LINES` header
    lines. A line without a colon is a header with an empty value.
    """
    lines = head.decode("latin-1").split("\r\n")
    if len(lines) > HEADER_LINES + 3:   # start line, headers, "", ""
        raise HeadTooLarge(f"more than {HEADER_LINES} header lines")
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return lines[0].split(None, 2), headers


def content_length(headers):
    """The ``Content-Length`` of a parsed head, or ``None`` when it has
    none. Raises :class:`ValueError` when it is not a non-negative
    decimal integer."""
    length = headers.get("content-length")
    if length is None:
        return None
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"Content-Length {length!r} is not a "
                         f"non-negative integer")
    return int(length)


def keeps_open(version, headers):
    """Whether a message of HTTP ``version`` with ``headers`` leaves
    its connection open: HTTP/1.1 unless it says ``Connection: close``,
    HTTP/1.0 only when it says ``Connection: keep-alive``."""
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return "close" not in connection
