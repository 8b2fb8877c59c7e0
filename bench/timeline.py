"""Percentiles and wall-time attribution over recorded spans.

A span is a dict with ``id``, ``name``, ``start`` and ``end`` (integer
nanoseconds on the host's monotonic clock) and ``parents``, the ids of
the spans it runs on behalf of. Within one thread a span's parent is
the span open around it; across processes the benchmark links spans
explicitly (a child process's root span to the bench span that spawned
it, a server's handler to the client call that sent the request).
"""

import math

#: Candidate tail percentiles, in basis points, lowest first.
TAIL_LADDER_BP = (5000, 7500, 9000, 9900, 9990, 9999)

#: Samples a reported percentile must have beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count):
    """Highest percentile of the ladder with at least ``MIN_BEYOND``
    of ``count`` samples beyond it, or ``None`` when even the median
    has fewer."""
    best = None
    for bp in TAIL_LADDER_BP:
        if count * (10000 - bp) >= MIN_BEYOND * 10000:
            best = bp / 100
    return best


def self_times(spans, windows):
    """Charge every nanosecond inside ``windows`` to the spans active then.

    At each instant the time is split equally among the *innermost*
    active spans: those with no active child. Instants with no active
    span are residual. Arithmetic is in integer nanoseconds and the
    remainder of an uneven split goes to the smallest ids, so
    ``sum(self_ns.values()) + residual_ns`` equals the total window
    length exactly.

    Returns ``(self_ns, residual_ns)`` with ``self_ns`` keyed by span id.
    """
    spans = list(spans)
    known = {span["id"] for span in spans}
    parents = {span["id"]: [p for p in span.get("parents", ())
                            if p in known and p != span["id"]]
               for span in spans}
    events = []
    for seq, span in enumerate(spans):
        events.append((span["start"], 0, seq, span["id"]))
        events.append((span["end"], 1, seq, span["id"]))
    for seq, (start, end) in enumerate(windows):
        events.append((start, 0, -1 - seq, None))
        events.append((end, 1, -1 - seq, None))
    # Starts before ends at the same instant, so a zero-length span
    # never leaves a negative child count behind.
    events.sort(key=lambda event: event[:3])

    self_ns = dict.fromkeys(known, 0)
    residual = 0
    children = dict.fromkeys(known, 0)
    active = set()
    innermost = set()
    open_windows = 0
    last = None
    for t, is_end, _, span_id in events:
        if open_windows and last is not None and t > last:
            elapsed = t - last
            if innermost:
                share, extra = divmod(elapsed, len(innermost))
                for rank, owner in enumerate(sorted(innermost)):
                    self_ns[owner] += share + (rank < extra)
            else:
                residual += elapsed
        last = t
        if span_id is None:
            open_windows += -1 if is_end else 1
            continue
        if not is_end:
            active.add(span_id)
            if children[span_id] == 0:
                innermost.add(span_id)
            for parent in parents[span_id]:
                children[parent] += 1
                innermost.discard(parent)
        else:
            active.discard(span_id)
            innermost.discard(span_id)
            for parent in parents[span_id]:
                children[parent] -= 1
                if children[parent] == 0 and parent in active:
                    innermost.add(parent)
    return self_ns, residual


#: Per-request latency components, in reconciliation order.
REQUEST_PARTS = ("http", "handler", "queue_wait", "run", "residual")


def reconcile_request(request, calls, handlers, queue=None, run=None):
    """Split one served request's latency into :data:`REQUEST_PARTS`.

    ``request`` is the client's whole ``run_job`` span, ``calls`` its
    HTTP calls (children of ``request``), ``handlers`` the server's
    handler spans (each naming its call in ``parents``), and ``queue``
    and ``run`` the ``(start, end)`` phases of the job it waited on.
    Uses the same equal split as :func:`self_times`, so the parts sum
    to the request's latency exactly:

    * ``http`` — call time not covered by a handler or a job phase;
    * ``handler`` — server handler self time;
    * ``queue_wait`` / ``run`` — the job's phases while the client waits;
    * ``residual`` — client time outside every call and phase.
    """
    root = {"id": "request", "start": request["start"],
            "end": request["end"]}
    spans = [root]
    call_ids = []
    for call in calls:
        spans.append({"id": call["id"], "parents": ["request"],
                      "start": call["start"], "end": call["end"]})
        call_ids.append(call["id"])
    for handler in handlers:
        spans.append({"id": handler["id"], "parents": handler["parents"],
                      "start": handler["start"], "end": handler["end"]})
    # A job phase runs on behalf of every call open around it (the
    # client's event stream or status poll), and of the request itself.
    for part, phase in (("queue_wait", queue), ("run", run)):
        if phase is not None and phase[1] > phase[0]:
            spans.append({"id": part, "parents": ["request"] + call_ids,
                          "start": phase[0], "end": phase[1]})
    owned, _ = self_times(spans, [(request["start"], request["end"])])
    parts = dict.fromkeys(REQUEST_PARTS, 0)
    parts["residual"] = owned.pop("request")
    parts["queue_wait"] = owned.pop("queue_wait", 0)
    parts["run"] = owned.pop("run", 0)
    for span_id, value in owned.items():
        parts["http" if span_id in call_ids else "handler"] += value
    return parts
