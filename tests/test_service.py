"""Fault matrix for the simulation job service (docs/SERVICE.md).

Every recovery path of ``repro serve`` is driven deterministically —
worker crash between accept and execute, transient failure, client
disconnect mid-stream, queue-overflow burst, duplicate storm, drain
mid-sweep — and each test pins the acceptance criterion: every
admitted job reaches exactly one terminal state, N identical
concurrent submissions execute at most one simulation, and served
results are bit-identical to a direct :func:`run_grid` call.

Uses the cheapest workloads (LL11/LL5/LL2 at one thread) so the whole
matrix stays fast; the HTTP layer is exercised in-process with a real
asyncio server on an ephemeral port.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import asyncio

from repro.faults import FaultPlan, ServiceFaultPlan
from repro.harness import Runner, run_grid
from repro.obs.ledger import RunLedger
from repro.obs.telemetry import summarize
from repro.service import (AdmissionController, ClientDisconnect,
                           JobService, ProtocolError, ServiceClient,
                           ServiceHTTP, TokenBucket, parse_job_request)

#: Result-payload fields that must be bit-identical however a job ran.
_SIM_FIELDS = ("nthreads", "stats", "checksum", "verified")


def _payload(workload="LL11", nthreads=1, **extra):
    doc = {"workload": workload, "config": {"nthreads": nthreads}}
    doc.update(extra)
    return doc


def _sim_view(result_payload):
    return {field: result_payload[field] for field in _SIM_FIELDS}


def _collecting_service(**kwargs):
    events = []
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("sinks", [lambda e: events.append(e.to_dict())])
    return JobService(**kwargs), events


# ------------------------------------------------------------- protocol


def test_protocol_rejects_malformed_submissions():
    with pytest.raises(ProtocolError, match="unknown workload"):
        parse_job_request({"workload": "nope"})
    with pytest.raises(ProtocolError, match="required field 'workload'"):
        parse_job_request({})
    with pytest.raises(ProtocolError, match="unknown request field"):
        parse_job_request({"workload": "LL11", "wrokload": "LL11"})
    with pytest.raises(ProtocolError, match="unknown config field"):
        parse_job_request({"workload": "LL11",
                          "config": {"nthread": 2}})
    with pytest.raises(ProtocolError, match="invalid configuration"):
        parse_job_request({"workload": "LL11",
                          "config": {"nthreads": 0}})
    with pytest.raises(ProtocolError, match="must be a JSON object"):
        parse_job_request(["LL11"])


def test_protocol_chaos_gated_and_validated():
    payload = _payload(chaos={"crash": {"attempts": 1}})
    with pytest.raises(ProtocolError) as refused:
        parse_job_request(payload, allow_chaos=False)
    assert refused.value.status == 403
    request = parse_job_request(payload, allow_chaos=True)
    assert request.chaos == {"crash": {"attempts": 1}}
    with pytest.raises(ProtocolError, match="unknown chaos rule"):
        parse_job_request(_payload(chaos={"explode": {}}), allow_chaos=True)
    with pytest.raises(ProtocolError, match="invalid chaos rule"):
        parse_job_request(_payload(chaos={"crash": {"volume": 11}}),
                          allow_chaos=True)


def test_submission_that_does_not_compile_is_a_400():
    # LL7 runs out of registers at 8 threads: a client error naming the
    # point, not a 500 from an escaped CompileError.
    service, _ = _collecting_service()
    status, doc, _ = service.submit(_payload("LL7", nthreads=8))
    service.drain()
    assert status == 400
    assert "LL7 does not compile for 8 threads" in doc["error"]


def test_job_id_is_content_addressed_cache_key():
    one = parse_job_request(_payload())
    two = parse_job_request(_payload())
    other = parse_job_request(_payload(nthreads=2))
    assert one.job_id == two.job_id
    assert one.job_id != other.job_id
    # chaos is excluded: a chaos run and a clean run are the same job
    chaotic = parse_job_request(_payload(chaos={"fail": {}}),
                                allow_chaos=True)
    assert chaotic.job_id == one.job_id
    # ... and the id IS the disk-cache key run_grid persists under
    from repro.harness.parallel import _job_key
    from repro.workloads import by_name

    workload = by_name("LL11")
    assert one.job_id == _job_key(workload, one.config, False, False)


# ------------------------------------------------------ admission control


def test_token_bucket_refuses_with_exact_wait():
    clock = [0.0]
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: clock[0])
    assert bucket.acquire() == (True, 0.0)
    assert bucket.acquire() == (True, 0.0)
    ok, wait = bucket.acquire()
    assert not ok and wait == pytest.approx(0.5)
    clock[0] += 0.5     # one token regenerates
    assert bucket.acquire()[0]
    assert not bucket.acquire()[0]


def test_admission_window_and_rate_and_drain():
    clock = [0.0]
    admission = AdmissionController(depth=2, rate=10.0, burst=1.0,
                                    clock=lambda: clock[0])
    assert admission.precheck("a") == (True, None, None)
    ok, reason, wait = admission.precheck("a")
    assert (ok, reason) == (False, "rate-limited") and wait > 0
    # a different client has its own bucket
    assert admission.precheck("b")[0]
    assert admission.acquire_slot() == (True, None)
    assert admission.acquire_slot() == (True, None)
    ok, retry_after = admission.acquire_slot()
    assert not ok and retry_after == admission.retry_after
    admission.release_slot()
    assert admission.acquire_slot()[0]
    admission.drain()
    assert admission.precheck("c") == (False, "draining", None)
    snapshot = admission.snapshot()
    assert snapshot["rejected"] == {"draining": 1, "rate-limited": 1,
                                    "queue-full": 1}
    assert snapshot["inflight"] == 2


# -------------------------------------------------------- fault injectors


def test_service_fault_plan_is_deterministic_and_seedable():
    probe = list(range(50))
    one = ServiceFaultPlan(seed=3).disconnect(probability=0.4)
    two = ServiceFaultPlan(seed=3).disconnect(probability=0.4)
    other = ServiceFaultPlan(seed=4).disconnect(probability=0.4)
    hits = [i for i in probe if one.matches(i)]
    assert hits == [i for i in probe if two.matches(i)]
    assert hits != [i for i in probe if other.matches(i)]
    assert 0 < len(hits) < len(probe)


def test_service_fault_plan_rules():
    plan = (ServiceFaultPlan(seed=7)
            .slow_client(indices=[1], seconds=0.25)
            .disconnect(indices=[0], after_events=2)
            .burst(indices=[2], copies=16)
            .pool_loss(indices=[3], attempts=2))
    assert plan.submit_delay(1) == 0.25
    assert plan.submit_delay(0) == 0.0
    assert not plan.should_disconnect(0, events_seen=1)
    assert plan.should_disconnect(0, events_seen=2)
    assert not plan.should_disconnect(1, events_seen=99)
    assert plan.burst_copies(2) == 16
    assert plan.burst_copies(0) == 1
    assert plan.matches(3) == ["pool-loss"]
    # pool-loss maps request indices onto grid indices as crash rules
    grid = plan.grid_plan({3: 0, 1: 1})
    assert isinstance(grid, FaultPlan)
    assert grid.matches(0, attempt=0) == ["crash"]
    assert grid.matches(0, attempt=1) == ["crash"]   # attempts=2
    assert grid.matches(1, attempt=0) == []
    assert plan.grid_plan({1: 0}) is None


# --------------------------------------------------------- dedup/coalesce


def test_duplicate_storm_runs_exactly_one_simulation():
    service, events = _collecting_service()
    docs = [service.submit(_payload())[1] for _ in range(8)]
    entry = service.registry.get(docs[0]["job_id"])
    assert entry.wait(120)
    service.drain()
    assert all(doc["job_id"] == docs[0]["job_id"] for doc in docs)
    assert sum(1 for doc in docs if not doc["coalesced"]) == 1
    # exactly one simulation: one started event, one terminal event
    kinds = [e["event"] for e in events if e.get("job") == entry.index]
    assert kinds.count("started") == 1
    assert kinds.count("done") == 1
    # all clients read the same bit-identical result payload
    finals = [service.job_status(docs[0]["job_id"])["result"]
              for _ in range(4)]
    assert len({json.dumps(p, sort_keys=True) for p in finals}) == 1
    assert service.admission.snapshot()["coalesced"] == 7
    assert summarize(events)["violations"] == []


def test_served_result_bit_identical_to_direct_run_grid(tmp_path):
    service, _ = _collecting_service()
    status, doc, _ = service.submit(_payload("LL5"))
    assert status == 202
    entry = service.registry.get(doc["job_id"])
    assert entry.wait(120)
    service.drain()
    served = service.job_status(doc["job_id"])["result"]
    direct = run_grid([(
        "LL5", parse_job_request(_payload("LL5")).config)], workers=1)
    assert _sim_view(served) == _sim_view(Runner._to_payload(direct[0]))


def test_failed_job_resubmission_retries_it():
    service, events = _collecting_service(allow_chaos=True, retries=0)
    # crash on every attempt with no retry budget -> failed
    status, doc, _ = service.submit(
        _payload(chaos={"crash": {"attempts": 99}}))
    assert status == 202
    entry = service.registry.get(doc["job_id"])
    assert entry.wait(120)
    assert entry.state == "failed"
    assert entry.failure["kind"] in ("crash", "exception")
    # resubmitting a failure creates a fresh attempt (no chaos now)...
    status, doc2, _ = service.submit(_payload())
    assert status == 202 and not doc2["coalesced"]
    entry2 = service.registry.get(doc2["job_id"])
    assert entry2 is not entry
    assert entry2.wait(120)
    assert entry2.state == "done"
    # ...while resubmitting a success is answered without simulating
    status, doc3, _ = service.submit(_payload())
    assert status == 200 and doc3["coalesced"]
    service.drain()
    assert summarize(events)["violations"] == []


# ----------------------------------------------------------- backpressure


def test_queue_overflow_burst_sheds_load_explicitly(monkeypatch):
    service, _ = _collecting_service(queue_depth=2)
    monkeypatch.setattr(service, "start", lambda: service)  # hold dispatch
    statuses = []
    for nthreads in (1, 2, 3, 4):
        status, doc, headers = service.submit(_payload(nthreads=nthreads))
        statuses.append(status)
        if status == 429:
            assert doc["error"] == "queue-full"
            assert float(headers["Retry-After"]) > 0
    assert statuses == [202, 202, 429, 429]
    # a duplicate of an admitted job needs no window slot: the storm
    # coalesces instead of exhausting the queue for distinct work
    status, doc, _ = service.submit(_payload(nthreads=1))
    assert status == 202 and doc["coalesced"]
    snapshot = service.admission.snapshot()
    assert snapshot["rejected"]["queue-full"] == 2
    assert snapshot["coalesced"] == 1


def test_rate_limited_client_gets_retry_after():
    clock = [0.0]
    service, _ = _collecting_service(rate=1.0, burst=1.0,
                                     clock=lambda: clock[0])
    assert service.submit(_payload(), client="a")[0] == 202
    status, doc, headers = service.submit(_payload(), client="a")
    assert status == 429
    assert doc["error"] == "rate-limited"
    assert float(headers["Retry-After"]) == pytest.approx(1.0, abs=0.01)
    # rate limiting is per client identity
    assert service.submit(_payload(), client="b")[0] in (200, 202)
    service.drain()


def test_drain_stops_admission_and_reaches_sweep_end():
    service, events = _collecting_service()
    assert service.submit(_payload())[0] == 202
    service.drain()
    status, doc, _ = service.submit(_payload(nthreads=2))
    assert (status, doc["error"]) == (503, "draining")
    kinds = [e["event"] for e in events]
    assert kinds[0] == "sweep-start" and kinds[-1] == "sweep-end"
    summary = summarize(events)
    assert summary["violations"] == []
    assert summary["metrics"].done == 1
    # drained means every admitted job is terminal
    assert all(entry.terminal for entry in service.registry.entries())
    assert not service.ready()[0]


# -------------------------------------------------------- worker recovery


def test_pool_loss_between_accept_and_execute_recovers():
    service, events = _collecting_service(allow_chaos=True)
    plan = ServiceFaultPlan(seed=1).pool_loss(indices=[0], attempts=1)
    payload = _payload()
    if "pool-loss" in plan.matches(0):     # injector drives the chaos field
        payload["chaos"] = {"crash": {"attempts": 1}}
    status, doc, _ = service.submit(payload)
    assert status == 202
    entry = service.registry.get(doc["job_id"])
    assert entry.wait(120)
    service.drain()
    assert entry.state == "done"           # crashed once, retried, finished
    kinds = [e["event"] for e in events if e.get("job") == entry.index]
    assert "retry" in kinds
    assert kinds.count("done") == 1
    assert summarize(events)["violations"] == []


def test_transient_fault_is_retried_transparently():
    service, events = _collecting_service(allow_chaos=True)
    status, doc, _ = service.submit(
        _payload(chaos={"fail": {"attempts": 1}}))
    assert status == 202
    entry = service.registry.get(doc["job_id"])
    assert entry.wait(120)
    service.drain()
    assert entry.state == "done"
    assert any(e["event"] == "retry" and e.get("job") == entry.index
               for e in events)
    assert summarize(events)["violations"] == []


def _wait_for(predicate, seconds=60):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_jobs_run_concurrently_and_timeout_is_enforced():
    """With two workers a hung job neither blocks its neighbour nor
    escapes ``timeout``: B finishes while A hangs, then A is timed out
    in its own worker process, retried, and finishes."""
    service, events = _collecting_service(workers=2, timeout=3,
                                          allow_chaos=True)
    _, doc_a, _ = service.submit(
        _payload("LL11", chaos={"hang": {"attempts": 1}}))
    entry_a = service.registry.get(doc_a["job_id"])
    _wait_for(lambda: any(e["event"] == "started"
                          and e.get("job") == entry_a.index
                          for e in list(events)))
    _, doc_b, _ = service.submit(_payload("LL5"))
    entry_b = service.registry.get(doc_b["job_id"])
    assert entry_b.wait(120) and entry_a.wait(120)
    service.drain()
    assert (entry_a.state, entry_b.state) == ("done", "done")

    def position(kind, entry):
        return next(n for n, e in enumerate(events)
                    if e["event"] == kind and e.get("job") == entry.index)

    assert position("done", entry_b) < position("timeout", entry_a)
    assert any(e["event"] == "retry" and e.get("job") == entry_a.index
               and e["kind"] == "timeout" for e in events)
    assert summarize(events)["violations"] == []


def test_workers_busy_gauge_counts_running_jobs():
    from repro.obs.runtime import MetricsRegistry, parse_promtext

    service, _ = _collecting_service(workers=2, allow_chaos=True,
                                     metrics=MetricsRegistry())

    def gauges():
        samples = parse_promtext(service.render_metrics())
        return {name: samples[name][0][1]
                for name in ("repro_workers", "repro_workers_busy",
                             "repro_jobs_running")}

    # Two jobs that sleep in their workers, one much longer.
    _, short, _ = service.submit(
        _payload("LL11", chaos={"hang": {"attempts": 1, "seconds": 0.5}}))
    _, long, _ = service.submit(
        _payload("LL5", chaos={"hang": {"attempts": 1, "seconds": 3}}))
    short = service.registry.get(short["job_id"])
    long = service.registry.get(long["job_id"])
    _wait_for(lambda: service.registry.counts()["running"] == 2)
    assert gauges() == {"repro_workers": 2, "repro_workers_busy": 2,
                        "repro_jobs_running": 2}
    # One dispatch ending must not zero the gauge while another runs.
    assert short.wait(120) and long.state == "running"
    assert gauges() == {"repro_workers": 2, "repro_workers_busy": 1,
                        "repro_jobs_running": 1}
    assert long.wait(120)
    service.drain()
    assert gauges()["repro_workers_busy"] == 0


# ------------------------------------------------------------ HTTP layer


class _HttpHarness:
    """A real asyncio HTTP server on an ephemeral port, in a thread."""

    def __init__(self, service, access_log=None):
        self.service = service
        self.access_log = access_log
        self.clients = []
        self.http = None
        self._loop = None
        self._stopped = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "HTTP server failed to start"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self.http = await ServiceHTTP(self.service, "127.0.0.1", 0,
                                      access_log=self.access_log).start()
        self._ready.set()
        await self._stopped.wait()
        await self.http.close()

    def client(self, **kwargs):
        kwargs.setdefault("retries", 3)
        kwargs.setdefault("backoff", 0.05)
        client = ServiceClient("127.0.0.1", self.http.port, **kwargs)
        self.clients.append(client)
        return client

    def stop(self):
        for client in self.clients:
            client.close()
        if not self._thread.is_alive():
            return
        self.service.drain()
        self._loop.call_soon_threadsafe(self._stopped.set)
        self._thread.join(10)


@pytest.fixture
def http_harness():
    harnesses = []

    def _start(service, **kwargs):
        harness = _HttpHarness(service, **kwargs)
        harnesses.append(harness)
        return harness

    yield _start
    for harness in harnesses:
        harness.stop()


def test_http_submit_status_events_health(http_harness):
    service, _ = _collecting_service()
    harness = http_harness(service)
    client = harness.client()
    ok, snapshot = client.readiness()
    assert ok and snapshot["dispatcher_alive"]
    doc = client.run_job(_payload())
    assert doc["state"] == "done"
    assert doc["result"]["checksum"] is not None
    # the event stream replays the full lifecycle, ending with result
    records = list(client.stream(doc["job_id"]))
    kinds = [record["event"] for record in records]
    assert kinds[0] == "queued" and kinds[-1] == "result"
    assert "started" in kinds and "done" in kinds
    assert records[-1]["state"] == "done"
    health = client.health()
    assert health["jobs"]["done"] == 1
    # unknown job ids are a clean 404, not a hang
    from repro.service.client import ServiceError
    with pytest.raises(ServiceError):
        client.status("not-a-job")


def test_mid_stream_disconnect_leaves_job_unharmed(http_harness):
    service, events = _collecting_service()
    harness = http_harness(service)
    plan = ServiceFaultPlan(seed=5).disconnect(indices=[0], after_events=1)
    client = harness.client()
    # run_job recovers from its own injected disconnect by re-polling
    doc = client.run_job(_payload(), plan=plan, index=0)
    assert doc["state"] == "done"
    # the stream really did drop: prove the injector fires on this plan
    with pytest.raises(ClientDisconnect):
        for n, _ in enumerate(client.stream(doc["job_id"], plan=plan,
                                            index=0)):
            assert n < 10
    harness.stop()
    assert summarize(events)["violations"] == []


def test_concurrent_duplicate_clients_same_result(http_harness):
    service, events = _collecting_service()
    harness = http_harness(service)
    results, errors = [], []
    barrier = threading.Barrier(6)

    def _one_client():
        try:
            barrier.wait(10)
            client = harness.client()
            doc = client.run_job(_payload("LL2"))
            client.close()      # this thread's connection
            results.append(doc)
        except Exception as error:  # noqa: BLE001 — surfaced below
            errors.append(error)

    threads = [threading.Thread(target=_one_client) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    harness.stop()
    assert not errors
    assert len(results) == 6
    # at most one simulation ran...
    index = results[0]["index"]
    started = [e for e in events
               if e["event"] == "started" and e.get("job") == index]
    assert len(started) == 1
    # ...and every client received the same bit-identical payload
    payloads = {json.dumps(doc["result"], sort_keys=True)
                for doc in results}
    assert len(payloads) == 1
    assert summarize(events)["violations"] == []


def test_served_sweep_threads_ledger_and_renders_report():
    from repro.obs.report import run_report

    ledger = RunLedger(None)    # REPRO_LEDGER, isolated per test
    service, events = _collecting_service(ledger=ledger)
    for nthreads in (1, 2):
        status, _, _ = service.submit(
            _payload("LL11", nthreads=nthreads, sweep_id="served-1"))
        assert status == 202
    for entry in service.registry.entries():
        assert entry.wait(120)
    service.drain()
    records = [r for r in ledger.records()
               if r.get("sweep_id") == "served-1"]
    assert len(records) == 2
    text = run_report("threads", ledger=ledger, workloads=["LL11"],
                      threads=(1, 2), sweep="served-1")
    assert "LL11" in text and "1T" in text and "2T" in text
    assert "sweep served-1" in text


# ----------------------------------------- request tracing & /metrics


def _load_validator():
    import importlib.util
    import pathlib

    path = (pathlib.Path(__file__).resolve().parent.parent
            / "tools" / "validate_promtext.py")
    spec = importlib.util.spec_from_file_location("validate_promtext", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_request_id_threads_doc_events_ledger_and_access_log(http_harness):
    """One correlation id, four sinks: the echoed response header, the
    job's status document, the telemetry event stream, the ledger
    record, and the ndjson access log all carry the same id."""
    import io

    from repro.service import AccessLog

    ledger = RunLedger(None)    # REPRO_LEDGER, isolated per test
    service, events = _collecting_service(ledger=ledger)
    log_stream = io.StringIO()
    harness = http_harness(service, access_log=AccessLog(log_stream))
    client = harness.client()
    doc = client.run_job(_payload(), request_id="cafe-feed-0001")
    assert doc["state"] == "done"
    assert doc["request_id"] == "cafe-feed-0001"
    assert client.last_request_id == "cafe-feed-0001"
    # a client that sends no id still gets a server-generated one back
    client2 = harness.client()
    assert client2.last_request_id is None
    client2.health()
    assert client2.last_request_id
    harness.stop()
    # the ledger record is greppable by the id
    assert any(r.get("request_id") == "cafe-feed-0001"
               for r in ledger.records())
    # the telemetry stream tags the job's lifecycle with it
    tagged = [e["event"] for e in events
              if e.get("request_id") == "cafe-feed-0001"]
    assert "queued" in tagged and "done" in tagged
    # every access-log line is one intact JSON record with the id
    lines = [json.loads(line)
             for line in log_stream.getvalue().splitlines() if line]
    assert lines, "access log is empty"
    assert all({"method", "path", "status", "seconds", "request_id"}
               <= set(line) for line in lines)
    assert any(line["request_id"] == "cafe-feed-0001" for line in lines)


def test_coalesced_clients_and_first_request_id_win(monkeypatch):
    service, _ = _collecting_service()
    monkeypatch.setattr(service, "start", lambda: service)  # hold dispatch
    _, first, _ = service.submit(_payload(), request_id="first-id")
    _, second, _ = service.submit(_payload(), request_id="second-id")
    assert first["coalesced_clients"] == 0
    assert second["coalesced_clients"] == 1
    # like sweep_id, the entry keeps the FIRST submission's identity
    assert second["request_id"] == "first-id"


def test_cached_field_reflects_disk_cache_answer(tmp_path):
    from repro.harness.diskcache import DiskResultCache

    cache = DiskResultCache(tmp_path / "results.json",
                            schema=Runner.RESULT_SCHEMA)
    first, _ = _collecting_service(disk_cache=cache)
    status, doc, _ = first.submit(_payload("LL5"))
    entry = first.registry.get(doc["job_id"])
    assert entry.wait(120)
    first.drain()
    assert first.job_status(doc["job_id"])["cached"] is False
    # a fresh service sharing the cache answers without simulating
    second, events = _collecting_service(disk_cache=cache)
    status, doc2, _ = second.submit(_payload("LL5"))
    entry2 = second.registry.get(doc2["job_id"])
    assert entry2.wait(120)
    second.drain()
    final = second.job_status(doc2["job_id"])
    assert final["state"] == "done" and final["cached"] is True
    assert any(e["event"] == "cache-hit" for e in events)


def test_http_metrics_endpoint_validates_and_reconciles(http_harness):
    from repro.obs.runtime import MetricsRegistry, parse_promtext

    service, _ = _collecting_service(metrics=MetricsRegistry())
    harness = http_harness(service)
    client = harness.client()
    doc = client.run_job(_payload("LL5"))
    assert doc["state"] == "done"
    text = client.metrics_text()
    harness.stop()
    assert _load_validator().validate_text(text) == []
    samples = parse_promtext(text)

    def total(name, **match):
        return sum(value for labels, value in samples.get(name, ())
                   if all(labels.get(k) == v for k, v in match.items()))

    assert total("repro_jobs_admitted_total") == 1
    assert total("repro_jobs_executed_total") == 1
    assert total("repro_jobs_completed_total", state="done") == 1
    assert total("repro_requests_total",
                 route="/v1/jobs", method="POST") >= 1
    assert total("repro_request_seconds_count") == total(
        "repro_requests_total")
    # instrumentation changed nothing: the served result is still
    # bit-identical to a direct run_grid of the same job
    direct = run_grid([(
        "LL5", parse_job_request(_payload("LL5")).config)], workers=1)
    assert _sim_view(doc["result"]) == \
        _sim_view(Runner._to_payload(direct[0]))


def test_metrics_disabled_is_an_explicit_404(http_harness):
    from repro.service.client import ServiceError

    service, _ = _collecting_service()      # no metrics registry
    harness = http_harness(service)
    with pytest.raises(ServiceError) as refused:
        harness.client().metrics_text()
    assert refused.value.status == 404


def test_report_via_service_renders_byte_identical_table(http_harness):
    from repro.obs.report import run_report

    ledger = RunLedger(None)    # shared file: server and report side
    service, _ = _collecting_service(ledger=ledger)
    harness = http_harness(service)
    served = run_report("threads", ledger=ledger, workloads=["LL11"],
                        threads=(1, 2), client=harness.client())
    harness.stop()
    local = run_report("threads", ledger=ledger, workloads=["LL11"],
                       threads=(1, 2))
    assert served == local


def test_access_log_never_interleaves_with_live_progress():
    """The PR-9 interleaving fix: an access log sharing a tty with a
    LiveProgress routes through ``println`` — each log line lands
    intact on its own row and the status line survives underneath."""
    import io

    from repro.obs.telemetry import LiveProgress, SweepEvent
    from repro.service import AccessLog

    stream = io.StringIO()
    live = LiveProgress(stream, min_interval=0.0, clock=lambda: 0.0)
    live(SweepEvent("sweep-start", 0.0, "s-1", data={"total": 2}))
    log = AccessLog(stream, live=live)
    log({"method": "GET", "path": "/healthz", "status": 200})
    log({"method": "POST", "path": "/v1/jobs", "status": 202})
    text = stream.getvalue()
    # On a terminal each "\r"-refresh overwrites the row, so what a
    # reader sees on a finished row is the text after its last "\r".
    visible = [line.split("\r")[-1].rstrip()
               for line in text.split("\n")]
    json_lines = [line for line in visible if line.startswith("{")]
    assert len(json_lines) == 2
    for line in json_lines:
        json.loads(line)        # intact: no status fragments mixed in
    # and the live status line is redrawn after the last log line
    assert visible[-1].startswith("[sweep s-1]")
    assert log.count == 2


# ------------------------------------------------- persistent connections


def _send(sock, request):
    sock.sendall(request.encode("latin-1"))


def _read_response(stream):
    """``(status, headers, body)`` of one response read off ``stream``
    (a socket's binary file), or ``None`` at end of stream."""
    status_line = stream.readline()
    if not status_line:
        return None
    headers = {}
    while True:
        line = stream.readline().decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def _raw_connection(harness):
    import socket

    sock = socket.create_connection(("127.0.0.1", harness.http.port),
                                    timeout=10)
    return sock, sock.makefile("rb")


def test_two_requests_on_one_connection_get_two_responses(http_harness):
    service, _ = _collecting_service()
    harness = http_harness(service)
    sock, stream = _raw_connection(harness)
    with sock, stream:
        for _ in range(2):
            _send(sock, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            status, headers, body = _read_response(stream)
            assert status == 200 and "connection" not in headers
            assert json.loads(body)["status"] == "ok"


@pytest.mark.parametrize("request_head", [
    "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    "GET /healthz HTTP/1.0\r\n\r\n",
])
def test_close_and_http10_requests_are_answered_then_closed(
        http_harness, request_head):
    service, _ = _collecting_service()
    harness = http_harness(service)
    sock, stream = _raw_connection(harness)
    with sock, stream:
        _send(sock, request_head)
        status, headers, _ = _read_response(stream)
        assert status == 200 and headers["connection"] == "close"
        assert stream.read() == b""


def test_http10_keep_alive_is_honoured(http_harness):
    service, _ = _collecting_service()
    harness = http_harness(service)
    sock, stream = _raw_connection(harness)
    with sock, stream:
        for _ in range(2):
            _send(sock, "GET /readyz HTTP/1.0\r\n"
                        "Connection: keep-alive\r\n\r\n")
            status, headers, _ = _read_response(stream)
            assert status == 200
            assert headers["connection"] == "keep-alive"


def test_idle_connection_is_closed_after_the_deadline(http_harness,
                                                      monkeypatch):
    from repro.service import server

    monkeypatch.setattr(server, "IDLE_TIMEOUT", 0.2)
    service, _ = _collecting_service()
    harness = http_harness(service)
    sock, stream = _raw_connection(harness)
    with sock, stream:
        _send(sock, "GET /healthz HTTP/1.1\r\n\r\n")
        assert _read_response(stream)[0] == 200
        start = time.monotonic()
        # A request that never finishes its headers counts as idle too.
        _send(sock, "GET /healthz HTTP/1.1\r\n")
        assert _read_response(stream) is None
        assert 0.15 < time.monotonic() - start < 5


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_is_a_400_and_closes(http_harness, length):
    service, _ = _collecting_service()
    harness = http_harness(service)
    sock, stream = _raw_connection(harness)
    with sock, stream:
        _send(sock, f"POST /v1/jobs HTTP/1.1\r\n"
                    f"Content-Length: {length}\r\n\r\n{{}}")
        status, headers, body = _read_response(stream)
        assert status == 400 and headers["connection"] == "close"
        assert "Content-Length" in json.loads(body)["error"]
        assert stream.read() == b""


def _head_lines(count):
    """``count`` distinct, short header lines."""
    return "".join(f"x{n}:\r\n" for n in range(count))


@pytest.mark.parametrize("request_head, status, reason", [
    # one header line longer than the reader's limit
    ("GET /healthz HTTP/1.1\r\nX-Big: " + "x" * 70_000 + "\r\n\r\n", 431,
     "request head over"),
    # a short head, but more header lines than HEADER_LINES
    ("GET /healthz HTTP/1.1\r\n" + _head_lines(5_000) + "\r\n", 431,
     "header lines"),
    # a body claim over BODY_LIMIT: answered before any body byte
    ("POST /v1/jobs HTTP/1.1\r\nContent-Length: 10000000000\r\n\r\n", 413,
     "request body over"),
], ids=["long-line", "many-lines", "large-body"])
def test_oversized_request_is_refused_and_closed(http_harness, request_head,
                                                 status, reason):
    from repro.obs.runtime import MetricsRegistry, parse_promtext
    from repro.service import server

    service, _ = _collecting_service(metrics=MetricsRegistry())
    harness = http_harness(service)
    sock, stream = _raw_connection(harness)
    with sock, stream:
        start = time.monotonic()
        _send(sock, request_head)
        got, headers, body = _read_response(stream)
        assert got == status and headers["connection"] == "close"
        assert reason in json.loads(body)["error"]
        assert stream.read() == b""
        assert time.monotonic() - start < server.IDLE_TIMEOUT
    client = harness.client()
    assert client.readiness()[0]
    samples = parse_promtext(client.metrics_text())
    counted = [labels for labels, _ in samples["repro_requests_total"]
               if labels["status"] == str(status)]
    assert [labels["method"] for labels in counted] == (
        ["POST"] if status == 413 else ["other"])


def test_metrics_method_label_is_bounded(http_harness):
    from repro.obs.runtime import MetricsRegistry, parse_promtext

    service, _ = _collecting_service(metrics=MetricsRegistry())
    harness = http_harness(service)
    sock, stream = _raw_connection(harness)
    with sock, stream:
        _send(sock, "BREW /pot HTTP/1.1\r\n\r\n")
        assert _read_response(stream)[0] == 404
    samples = parse_promtext(harness.client().metrics_text())
    methods = {labels["method"]
               for labels, _ in samples["repro_requests_total"]}
    assert methods == {"other"}


def test_dropped_kept_connection_is_resent_without_backoff(http_harness,
                                                           monkeypatch):
    from repro.service import server

    monkeypatch.setattr(server, "IDLE_TIMEOUT", 0.1)
    service, _ = _collecting_service()
    harness = http_harness(service)
    sleeps = []
    client = harness.client(sleep=sleeps.append)
    assert client.readiness()[0]
    first = client._local.connection.sock
    time.sleep(0.5)         # the server drops the idle connection
    assert client.readiness()[0]
    assert client._local.connection.sock is not first
    assert sleeps == []


def test_run_job_makes_one_round_trip_per_request(http_harness):
    service, _ = _collecting_service()
    harness = http_harness(service)
    calls = []

    class CountingClient(ServiceClient):
        def _request(self, method, path, payload=None, request_id=None):
            calls.append((method, path))
            return super()._request(method, path, payload, request_id)

        def stream(self, job_id, **kwargs):
            calls.append(("GET", "events"))
            yield from super().stream(job_id, **kwargs)

    client = CountingClient("127.0.0.1", harness.http.port)
    doc = client.run_job(_payload())
    # first sight: one submit and the event stream, no status re-fetch
    assert calls == [("POST", "/v1/jobs"), ("GET", "events")]
    assert doc["state"] == "done"
    assert set(doc) == set(client.status(doc["job_id"]))
    # a coalesced repeat is one request on the connection already open
    calls.clear()
    kept = client._local.connection.sock
    again = client.run_job(_payload())
    assert calls == [("POST", "/v1/jobs")]
    assert client._local.connection.sock is kept
    assert again["result"] == doc["result"]
    client.close()


def test_cached_point_is_not_compiled_on_submission(tmp_path, monkeypatch):
    from repro.harness.diskcache import DiskResultCache
    from repro.lang import compiler
    from repro.workloads import by_name

    cache = DiskResultCache(tmp_path / "results.json",
                            schema=Runner.RESULT_SCHEMA)
    warm, _ = _collecting_service(disk_cache=cache)
    _, doc, _ = warm.submit(_payload("LL5"))
    assert warm.registry.get(doc["job_id"]).wait(120)
    warm.drain()

    def no_compile(*args, **kwargs):
        raise AssertionError("a cached point was compiled")

    monkeypatch.setattr(compiler, "compile_source", no_compile)
    monkeypatch.setattr(by_name("LL5"), "_programs", {})
    hits = cache.hits
    service, _ = _collecting_service(disk_cache=cache)
    status, doc, _ = service.submit(_payload("LL5"))
    assert status == 200 and doc["state"] == "done" and doc["cached"]
    assert service.registry.get(doc["job_id"]).wait(120)
    status, doc, _ = service.submit(_payload("LL5"))
    assert status == 200 and doc["state"] == "done" and doc["cached"]
    assert cache.hits == hits + 1      # the membership test counts nothing
    monkeypatch.undo()
    # a point the cache does not hold still compiles, and still fails
    status, doc, _ = service.submit(_payload("LL7", nthreads=8))
    service.drain()
    assert status == 400
    assert "LL7 does not compile for 8 threads" in doc["error"]


def test_close_with_an_idle_kept_connection_is_prompt(http_harness):
    service, _ = _collecting_service()
    harness = http_harness(service)
    # Not the harness's client: stop() would close its connection first.
    client = ServiceClient("127.0.0.1", harness.http.port)
    assert client.readiness()[0]        # leaves its connection open
    start = time.monotonic()
    harness.stop()
    assert time.monotonic() - start < 1.0
    assert not harness._thread.is_alive()
    client.close()


def _count_slow_path(monkeypatch):
    """Count ``parse_job_request`` calls and event-loop executor hops
    from now on (the executor is patched on the loop class, so the
    harness's running loop sees it)."""
    from repro.service import server

    counts = {"parse": 0, "executor": 0}
    real_parse = server.parse_job_request
    real_executor = asyncio.base_events.BaseEventLoop.run_in_executor

    def parse(*args, **kwargs):
        counts["parse"] += 1
        return real_parse(*args, **kwargs)

    def executor(self, *args, **kwargs):
        counts["executor"] += 1
        return real_executor(self, *args, **kwargs)

    monkeypatch.setattr(server, "parse_job_request", parse)
    monkeypatch.setattr(asyncio.base_events.BaseEventLoop,
                        "run_in_executor", executor)
    return counts


def test_replay_of_a_done_job_is_answered_on_the_loop(http_harness,
                                                      monkeypatch):
    service, events = _collecting_service(rate=0.001, burst=3)
    harness = http_harness(service)
    client = harness.client()
    doc = client.run_job(_payload())
    assert doc["state"] == "done"
    counts = _count_slow_path(monkeypatch)
    again = client.run_job(_payload())
    assert counts == {"parse": 0, "executor": 0}
    assert again["state"] == "done" and again["coalesced"]
    assert again["result"] == doc["result"]
    assert again["submissions"] == 2
    assert service.admission.snapshot()["coalesced"] == 1
    # burst 3: the first submit and the replay took one token each (the
    # replay exactly one), so one more replay passes and the next is
    # refused
    status, _, doc = client._request("POST", "/v1/jobs", _payload(),
                                     request_id="third")
    assert status == 200 and doc["coalesced"]
    status, _, doc = client._request("POST", "/v1/jobs", _payload())
    assert status == 429 and doc["error"] == "rate-limited"
    assert service.admission.snapshot()["rejected"]["rate-limited"] == 1
    assert counts == {"parse": 0, "executor": 0}
    # a body that differs by one byte is parsed, off the loop
    service.admission.rate = None
    other = client.run_job(_payload(sweep_id="other"))
    assert other["job_id"] == again["job_id"] and other["coalesced"]
    assert counts == {"parse": 1, "executor": 1}
    harness.stop()
    assert summarize(events)["violations"] == []


def test_replay_of_a_failed_job_takes_the_parse_path(http_harness,
                                                     monkeypatch):
    service, events = _collecting_service(allow_chaos=True, retries=0)
    harness = http_harness(service)
    client = harness.client()
    payload = _payload(chaos={"crash": {"attempts": 99}})
    first = client.run_job(payload)
    assert first["state"] == "failed"
    counts = _count_slow_path(monkeypatch)
    again = client.run_job(payload)
    assert counts == {"parse": 1, "executor": 1}
    assert again["state"] == "failed"
    assert again["job_id"] == first["job_id"]
    assert again["index"] != first["index"]     # a fresh run
    harness.stop()
    audit = summarize(events)
    assert audit["violations"] == []
    assert audit["metrics"].failed == 2


def _warm_cache(tmp_path, *payloads):
    """A disk cache holding the result of every payload."""
    from repro.harness.diskcache import DiskResultCache

    cache = DiskResultCache(tmp_path / "results.json",
                            schema=Runner.RESULT_SCHEMA)
    warm, _ = _collecting_service(disk_cache=cache)
    for payload in payloads:
        _, doc, _ = warm.submit(payload)
        assert warm.registry.get(doc["job_id"]).wait(120)
    warm.drain()
    return cache


def test_cached_point_is_answered_in_the_submit(tmp_path, http_harness,
                                                monkeypatch):
    cache = _warm_cache(tmp_path, _payload("LL5"))
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    service, events = _collecting_service(disk_cache=cache, ledger=ledger)
    queued = []
    monkeypatch.setattr(service._queue, "put", queued.append)
    harness = http_harness(service)

    class NoStreamClient(ServiceClient):
        def stream(self, job_id, **kwargs):
            raise AssertionError("a cached point opened an event stream")

    client = NoStreamClient("127.0.0.1", harness.http.port)
    doc = client.run_job(_payload("LL5"), request_id="warm-0001")
    client.close()
    assert doc["state"] == "done" and doc["cached"]
    assert not doc["coalesced"]
    assert queued == []
    harness.stop()
    record, = ledger.records()
    assert record["cached"] and record["request_id"] == "warm-0001"
    kinds = [e["event"] for e in events if e.get("job") == doc["index"]]
    assert kinds == ["queued", "cache-hit"]
    audit = summarize(events)
    assert audit["violations"] == [] and audit["metrics"].cache_hits == 1


def test_concurrent_submits_settle_each_cached_point_once(tmp_path):
    points = [_payload("LL11", nthreads=n) for n in (1, 2)]
    cache = _warm_cache(tmp_path, *points)
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    service, events = _collecting_service(disk_cache=cache, ledger=ledger,
                                          workers=2)
    answers = []
    threads = [threading.Thread(
        target=lambda payload=points[n % 2]: answers.append(
            service.submit(payload)))
        for n in range(16)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    service.drain(timeout=60)
    assert len(answers) == 16
    assert {status for status, _, _ in answers} <= {200, 202}
    assert sum(not doc["coalesced"] for _, doc, _ in answers) == 2
    assert len(service.registry) == 2
    assert all(entry.state == "done" and entry.cached
               for entry in service.registry.entries())
    admission = service.admission.snapshot()
    assert (admission["admitted"], admission["coalesced"],
            admission["inflight"]) == (2, 14, 0)
    assert [r["cached"] for r in ledger.records()] == [True, True]
    audit = summarize(events)
    assert audit["violations"] == [] and audit["metrics"].cache_hits == 2


def test_drain_waits_for_a_cached_point_being_settled(tmp_path,
                                                      monkeypatch):
    from repro.service import server

    payload = _payload("LL5")
    cache = _warm_cache(tmp_path, payload)
    service, events = _collecting_service(disk_cache=cache)
    entered, release = threading.Event(), threading.Event()
    real_run_grid = server.run_grid

    def held_run_grid(*args, **kwargs):
        entered.set()
        assert release.wait(30)
        return real_run_grid(*args, **kwargs)

    monkeypatch.setattr(server, "run_grid", held_run_grid)
    answers = []
    submitter = threading.Thread(
        target=lambda: answers.append(service.submit(payload)))
    submitter.start()
    assert entered.wait(30)
    drainer = threading.Thread(target=service.drain)
    drainer.start()
    time.sleep(0.3)         # long enough for the idle dispatchers to stop
    assert drainer.is_alive()
    release.set()
    drainer.join(30)
    submitter.join(30)
    assert not drainer.is_alive() and not submitter.is_alive()
    status, doc, _ = answers[0]
    assert status == 200 and doc["state"] == "done"
    assert summarize(events)["violations"] == []


@pytest.mark.parametrize("bad_id", ["x" * 1024, "ab\rcd"],
                         ids=["1KiB", "carriage-return"])
def test_unsafe_request_id_header_is_replaced(http_harness, bad_id):
    from repro.service.protocol import REQUEST_ID

    ledger = RunLedger(None)    # REPRO_LEDGER, isolated per test
    service, _ = _collecting_service(ledger=ledger)
    harness = http_harness(service)
    body = json.dumps(_payload())
    sock, stream = _raw_connection(harness)
    with sock, stream:
        _send(sock, f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                    f"X-Repro-Request-Id: {bad_id}\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n{body}")
        status, headers, raw = _read_response(stream)
    minted = headers["x-repro-request-id"]
    assert status == 202 and minted != bad_id
    assert REQUEST_ID.fullmatch(minted)
    doc = json.loads(raw)
    assert doc["request_id"] == minted
    assert service.registry.get(doc["job_id"]).wait(120)
    harness.stop()
    assert [r["request_id"] for r in ledger.records()] == [minted]


@pytest.mark.parametrize("bad_id", ["x" * 65, "ab\ncd", "abc\n", "a b", ""],
                         ids=["65-chars", "newline", "trailing-newline",
                              "space", "empty"])
def test_unsafe_request_id_field_is_refused(bad_id):
    from repro.service.protocol import REQUEST_ID

    assert not REQUEST_ID.fullmatch(bad_id)
    with pytest.raises(ProtocolError, match="request_id must be") as error:
        parse_job_request(_payload(request_id=bad_id))
    assert error.value.status == 400
    assert parse_job_request(
        _payload(request_id="Ab9._-" * 10 + "abcd")).request_id


# --------------------------------------------------- process-level drain


def test_sigterm_drains_server_and_accounting_reconciles(tmp_path):
    events_log = tmp_path / "serve-events.jsonl"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--events", str(events_log)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": "src"}, cwd=os.getcwd())
    try:
        banner = server.stdout.readline()
        port = int(re.search(r"http://127\.0\.0\.1:(\d+)", banner).group(1))
        client = ServiceClient("127.0.0.1", port, retries=3, backoff=0.1)
        doc = client.run_job(_payload())
        assert doc["state"] == "done"
        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=60)
        client.close()
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate(timeout=10)
    assert server.returncode == 0
    assert "drained" in out and "1 done" in out
    from repro.obs.telemetry import load_events, render_summary

    text, ok = render_summary(load_events(events_log))
    assert ok, text
    assert "accounting: ok" in text
