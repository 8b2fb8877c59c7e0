"""Per-layer metrics from the spans of traced benchmark units.

Every value is per unit of the workload (one figure pass, or one server
lifetime) unless it is a ratio, a percentile or a profile number. Self
times come from :func:`timeline.self_times` over the unit's wall time,
so the ``*.self_s`` and ``*startup_s``/``*load_s`` layers plus the
residual add up to it exactly.
"""

import collections
import json
import statistics

import timeline

SHARES = ("fetch", "decode", "issue", "writeback", "commit", "ff", "loop",
          "scheduler", "mem", "other")

PER_LAYER = (
    ("cli.startup_s", "s"), ("cli.main.self_s", "s"),
    ("lang.compile.calls", "count"), ("lang.compile.self_s", "s"),
    ("asm.assemble.calls", "count"), ("asm.assemble.self_s", "s"),
    ("core.run.calls", "count"), ("core.run.self_s", "s"),
    ("core.sim_cycles", "cycles"), ("core.cycles_per_s", "cycles/s"),
    ("core.calls_per_cycle", "calls/cycle"),
    *((("mem.share" if stage == "mem" else f"core.{stage}.share"), "ratio")
      for stage in SHARES),
    ("workloads.verify.calls", "count"), ("workloads.verify.self_s", "s"),
    ("harness.decode.self_s", "s"), ("harness.runner.self_s", "s"),
    ("harness.run_grid.self_s", "s"), ("harness.worker_busy_frac", "ratio"),
    ("harness.diskcache.load_s", "s"), ("harness.diskcache.get.self_s", "s"),
    ("harness.diskcache.hit_frac", "ratio"),
    ("harness.diskcache.save.calls", "count"),
    ("harness.diskcache.save.self_s", "s"),
    ("harness.diskcache.bytes_written", "bytes"),
    ("obs.ledger.append.self_s", "s"), ("obs.ledger.bytes_appended", "bytes"),
    ("obs.ledger.read.self_s", "s"), ("obs.ledger.bytes_read", "bytes"),
    ("obs.report.self_s", "s"),
    ("service.client.self_s", "s"), ("service.handler.self_s", "s"),
    ("service.http_ms.p50", "ms"), ("service.handler_ms.p50", "ms"),
    ("service.queue_wait_ms.p50", "ms"), ("service.queue_wait_ms.p90", "ms"),
    ("service.run_ms.p50", "ms"), ("service.dispatches", "count"),
    ("service.jobs_per_dispatch", "count"),
    ("service.coalesced_frac", "ratio"), ("service.residual_frac", "ratio"),
    ("residual_frac", "ratio"), ("trace.overhead_frac", "ratio"),
)

#: Span name -> the per-layer metric its self time is charged to.
#: ``bench.spawn`` is the bench's span around a whole CLI process: its
#: self time is interpreter start-up and teardown.
SELF_METRIC = {
    "bench.spawn": "cli.startup_s", "cli.startup": "cli.startup_s",
    "cli.import": "cli.startup_s", "cli.main": "cli.main.self_s",
    "obs.report": "obs.report.self_s",
    "lang.compile": "lang.compile.self_s",
    "asm.assemble": "asm.assemble.self_s",
    "core.run": "core.run.self_s",
    "workloads.verify": "workloads.verify.self_s",
    "harness.decode": "harness.decode.self_s",
    "harness.runner": "harness.runner.self_s",
    "harness.run_grid": "harness.run_grid.self_s",
    "harness.diskcache.load": "harness.diskcache.load_s",
    "harness.diskcache.get": "harness.diskcache.get.self_s",
    "harness.diskcache.save": "harness.diskcache.save.self_s",
    "obs.ledger.append": "obs.ledger.append.self_s",
    "obs.ledger.read": "obs.ledger.read.self_s",
    "service.submit": "service.handler.self_s",
    "service.status": "service.handler.self_s",
    "service.request": "service.client.self_s",
    "service.call.submit": "service.client.self_s",
    "service.call.events": "service.client.self_s",
    "service.call.status": "service.client.self_s",
}

#: Span name -> the per-layer call counter it increments.
CALL_METRIC = {"lang.compile": "lang.compile.calls",
               "asm.assemble": "asm.assemble.calls",
               "core.run": "core.run.calls",
               "workloads.verify": "workloads.verify.calls",
               "harness.diskcache.save": "harness.diskcache.save.calls"}

#: Span name -> the per-layer byte counter its ``bytes`` attribute feeds.
BYTES_METRIC = {"harness.diskcache.save": "harness.diskcache.bytes_written",
                "obs.ledger.append": "obs.ledger.bytes_appended",
                "obs.ledger.read": "obs.ledger.bytes_read"}

HANDLERS = ("service.submit", "service.status")


def load_spans(unit):
    """The unit's bench-side spans plus every program process's."""
    spans = [dict(span) for span in unit.bench_spans]
    for path in sorted(unit.trace_dir.glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle)
    for span in spans:
        span["parents"] = [span["parent"]] if span.get("parent") else []
    return spans


def link_served(spans):
    """Parent server spans to the client spans they ran on behalf of:
    a handler to the HTTP call that sent it (same request or job id,
    open when it started); a dispatch to each request it serves and to
    that request's event streams overlapping it (the client may open
    its stream only after the dispatch started)."""
    calls = collections.defaultdict(list)
    requests = {}
    for span in spans:
        if span["name"] == "service.request":
            requests[span["request_id"]] = span
        elif span["name"].startswith("service.call."):
            kind = span["name"].rsplit(".", 1)[-1]
            key = span["request_id"] if kind == "submit" else span["job_id"]
            calls[(kind, key)].append(span)

    def overlapping(kind, key, start, end):
        return [call for call in calls.get((kind, key), ())
                if call["start"] <= end and start <= call["end"]]

    for span in spans:
        name = span["name"]
        if name in HANDLERS:
            kind = name.rsplit(".", 1)[-1]
            key = span["request_id"] if kind == "submit" else span["job_id"]
            found = overlapping(kind, key, span["start"], span["start"])
            if found:
                latest = max(found, key=lambda call: call["start"])
                span["parents"] = [latest["id"]]
        elif name == "harness.run_grid" and span.get("request_ids"):
            owners = []
            for request_id in span["request_ids"]:
                request = requests.get(request_id)
                if request is None:
                    continue
                owners.append(request["id"])
                owners += [stream["id"] for stream in overlapping(
                    "events", request.get("job_id"), span["start"],
                    span["end"])]
            if owners:
                span["parents"] = owners


def request_parts(spans):
    """Per served request: its latency split (timeline.REQUEST_PARTS),
    plus ``latency`` and whether it waited while its job was queued."""
    by_parent = collections.defaultdict(list)
    phases = collections.defaultdict(dict)
    for span in spans:
        for parent in span["parents"]:
            by_parent[parent].append(span)
        name = span["name"]
        if name == "service.submit" and span.get("coalesced") is False:
            phases[span["job_id"]]["queued"] = span["end"]
        elif name == "job.running":
            phases[span["job_id"]].setdefault("running", span["start"])
        elif name == "job.finish":
            phases[span["job_id"]].setdefault("finished", span["start"])
    out = []
    for request in spans:
        if request["name"] != "service.request":
            continue
        calls = by_parent[request["id"]]
        handlers = [handler for call in calls
                    for handler in by_parent[call["id"]]
                    if handler["name"] in HANDLERS]
        job = phases.get(request.get("job_id"), {})
        queue = run = None
        if "queued" in job and "running" in job:
            queue = (job["queued"], job["running"])
        if "running" in job and "finished" in job:
            run = (job["running"], job["finished"])
        parts = timeline.reconcile_request(request, calls, handlers,
                                           queue, run)
        parts["latency"] = request["end"] - request["start"]
        # Requests coalesced onto a finished job never saw it queue.
        parts["queued"] = (queue is not None and queue[1] > request["start"]
                           and queue[0] < request["end"])
        out.append(parts)
    return out


def _p50(values):
    return timeline.percentile(values, 50) if values else 0


def layer_metrics(units, profile, served, workers):
    """Per-layer metrics of the traced ``units``; returns ``(metrics,
    reconciliation)``. ``profile`` is bench/profile_engine.py's output;
    ``workers`` the pool width the program was given."""
    traced_units = [unit for unit in units if unit.traced]
    plain = [unit for unit in units if not unit.traced]
    sums = collections.Counter()
    window = residual = 0
    busy = grid_time = engine_time = 0
    gets = hits = submits = coalesced = jobs = dispatches = 0
    parts = []
    for unit in traced_units:
        spans = load_spans(unit)
        if served:
            link_served(spans)
            parts += request_parts(spans)
        timed = [span for span in spans if not span["name"].startswith("job.")]
        owned, unowned = timeline.self_times(timed, [(unit.start, unit.end)])
        window += unit.end - unit.start
        residual += unowned
        for span in timed:
            name = span["name"]
            sums[SELF_METRIC[name]] += owned[span["id"]] / 1e9
            if name in CALL_METRIC:
                sums[CALL_METRIC[name]] += 1
            if name in BYTES_METRIC:
                sums[BYTES_METRIC[name]] += span["bytes"]
            duration = span["end"] - span["start"]
            if name == "core.run":
                sums["core.sim_cycles"] += span["cycles"]
                engine_time += duration
            elif name == "harness.runner":
                busy += duration
            elif name == "harness.run_grid":
                grid_time += duration
                jobs += span["jobs"]
                dispatches += 1
            elif name == "harness.diskcache.get":
                gets += 1
                hits += span["hit"]
            elif name == "service.submit":
                submits += 1
                coalesced += bool(span.get("coalesced"))
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    for name, value in sums.items():
        metrics[name] = value / len(traced_units)
    if engine_time:
        metrics["core.cycles_per_s"] = sums["core.sim_cycles"] / (
            engine_time / 1e9)
    if grid_time:
        metrics["harness.worker_busy_frac"] = busy / (workers * grid_time)
    if gets:
        metrics["harness.diskcache.hit_frac"] = hits / gets
    metrics["core.calls_per_cycle"] = profile["calls_per_cycle"]
    for stage, share in profile["shares"].items():
        metrics["mem.share" if stage == "mem"
                else f"core.{stage}.share"] = share
    if served:
        metrics["service.dispatches"] = dispatches / len(traced_units)
        metrics["service.jobs_per_dispatch"] = (jobs / dispatches
                                                if dispatches else 0)
        metrics["service.coalesced_frac"] = (coalesced / submits
                                             if submits else 0)
        metrics["service.http_ms.p50"] = _p50([p["http"] / 1e6
                                               for p in parts])
        metrics["service.handler_ms.p50"] = _p50([p["handler"] / 1e6
                                                  for p in parts])
        metrics["service.run_ms.p50"] = _p50([p["run"] / 1e6 for p in parts])
        waits = [p["queue_wait"] / 1e6 for p in parts if p["queued"]]
        metrics["service.queue_wait_ms.p50"] = _p50(waits)
        if waits:
            metrics["service.queue_wait_ms.p90"] = timeline.percentile(
                waits, 90)
        latency = sum(p["latency"] for p in parts)
        if latency:
            metrics["service.residual_frac"] = sum(
                p["residual"] for p in parts) / latency
    metrics["residual_frac"] = residual / window
    metrics["trace.overhead_frac"] = (
        statistics.median(u.wall for u in traced_units)
        / statistics.median(u.wall for u in plain) - 1)
    reconcile = {"window_s": window / 1e9, "residual_s": residual / 1e9,
                 "layers_s": sum(sums[name]
                                 for name in set(SELF_METRIC.values())),
                 "requests": len(parts)}
    if parts:
        reconcile["request_ms"] = {
            part: sum(p[part] for p in parts) / len(parts) / 1e6
            for part in timeline.REQUEST_PARTS + ("latency",)}
    return metrics, reconcile
