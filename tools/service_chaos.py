#!/usr/bin/env python
"""End-to-end chaos drill for the simulation job service.

Boots a real ``repro serve`` process on an ephemeral port, then fires
a fleet of concurrent clients at it under a deterministic
:class:`repro.faults.ServiceFaultPlan`:

* a **duplicate storm** — several clients submit the same job at once;
* a **pool-loss** victim — the worker that accepts one job is killed
  between accept and execute (over-the-wire ``chaos`` crash rule);
* a **mid-stream disconnect** — one client drops its event stream
  partway and must recover by polling;
* a **slow client** — one submission dawdles before sending.

Every client must come back with a ``done`` job, the duplicate storm
must run **exactly one simulation** and hand every client the same
bit-identical payload, and after a SIGTERM drain the server's event
log must pass the ``repro sweep`` accounting audit (exactly one
``queued`` and one terminal event per job). CI runs this drill on
every push and uploads the event log as an artifact.

The drill also audits the PR-9 observability layer: ``GET /metrics``
is scraped *mid-drill* (while clients are in flight) and again after
every client drains; both scrapes must pass
``tools/validate_promtext.py``, and the final counters must reconcile
exactly with the event-log audit (executed == queued events,
completions match terminal events, admissions match HTTP submissions).
The final scrape is written to ``--metrics-out`` and uploaded as a CI
artifact next to the event log.

Two clients send requests the server must refuse without reading
them: a head over the reader's limit (``431``) and a body claim over
its body limit (``413``). Each must be answered and closed at once,
``/readyz`` must stay ``200``, and the final scrape must count each
under its bounded ``status`` and ``method`` labels.

Shutdown is audited too: one client holds an idle kept connection
open through the SIGTERM drain, and the server must still exit within
:data:`EXIT_LIMIT` seconds without printing ``Exception in callback``.

A **warm replay** phase follows: a second server on the cache the
drill just filled. The first submission of each cached point must be
answered ``200`` ``done`` and ``cached`` in the submit itself, with no
event stream; a storm of byte-identical replays must all coalesce;
and the second server's metrics and event log must reconcile and pass
the same accounting audit.

Usage::

    PYTHONPATH=src python tools/service_chaos.py --events serve_events.jsonl
"""

import argparse
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time

try:
    import validate_promtext          # sys.path[0] == tools/ as a script
except ImportError:                   # imported from elsewhere
    import importlib.util
    import pathlib

    _spec = importlib.util.spec_from_file_location(
        "validate_promtext",
        pathlib.Path(__file__).resolve().parent / "validate_promtext.py")
    validate_promtext = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(validate_promtext)

from repro.faults import ServiceFaultPlan
from repro.obs.runtime import parse_promtext
from repro.obs.telemetry import load_events, summarize
from repro.service import ServiceClient
from repro.service.server import BODY_LIMIT
from repro.service.wire import HEAD_LIMIT

#: Request indices of the chaos plan (the driver's submission order).
STORM = (0, 1, 2, 3)           # duplicate storm: one job, four clients
POOL_LOSS = 4                  # worker dies after accepting this job
DISCONNECT = 5                 # this client drops its event stream
SLOW = 6                       # this client dawdles before submitting

SUBMISSIONS = (
    # (index, payload) — the storm shares one payload verbatim
    *((i, {"workload": "LL11", "config": {"nthreads": 1}}) for i in STORM),
    (POOL_LOSS, {"workload": "LL5", "config": {"nthreads": 1},
                 "sweep_id": "chaos-drill"}),
    (DISCONNECT, {"workload": "LL2", "config": {"nthreads": 1},
                  "sweep_id": "chaos-drill"}),
    (SLOW, {"workload": "LL11", "config": {"nthreads": 2},
            "sweep_id": "chaos-drill"}),
)

#: Seconds the server may take to exit after SIGTERM once every client
#: is done, with one idle kept connection still open.
EXIT_LIMIT = 2.0

#: Clients replaying one cached point at once in the warm phase.
WARM_STORM = 8

#: Requests the server refuses unread: (what, request, status, the
#: ``method`` label the refusal is counted under).
OVERSIZED = (
    ("oversized head",
     b"GET /healthz HTTP/1.1\r\nX-Big: " + b"x" * HEAD_LIMIT + b"\r\n\r\n",
     431, "other"),
    ("oversized body",
     b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
     % (BODY_LIMIT + 1), 413, "POST"),
)

#: Seconds a refusal may take to be answered and closed.
REFUSE_LIMIT = 2.0


def _plan():
    return (ServiceFaultPlan(seed=20260808)
            .pool_loss(indices=[POOL_LOSS])
            .disconnect(indices=[DISCONNECT], after_events=1)
            .slow_client(indices=[SLOW], seconds=0.2))


def _start_server(events_path, workers):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--allow-chaos",
         "--events", events_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    banner = server.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", banner)
    if match is None:
        server.kill()
        raise SystemExit(f"error: no port in server banner: {banner!r}")
    return server, int(match.group(1))


def _drill(port, plan):
    """Run every submission concurrently; returns
    ``(index -> final doc, errors, mid-drill scrape text)``."""
    docs, errors = {}, []
    barrier = threading.Barrier(len(SUBMISSIONS) + 1)  # +1: the scraper

    def _one(index, payload):
        client = ServiceClient("127.0.0.1", port, retries=6, backoff=0.1)
        try:
            barrier.wait(30)
            docs[index] = client.run_job(payload, plan=plan, index=index)
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(f"client {index}: {error!r}")
        finally:
            client.close()

    threads = [threading.Thread(target=_one, args=spec)
               for spec in SUBMISSIONS]
    for thread in threads:
        thread.start()
    # Scrape /metrics while the fleet is in flight: exposition must be
    # valid at any instant, not only at rest.
    barrier.wait(30)
    time.sleep(0.2)
    mid_scrape = None
    try:
        mid_scrape = ServiceClient("127.0.0.1", port).metrics_text()
    except Exception as error:  # noqa: BLE001 — reported below
        errors.append(f"mid-drill scrape: {error!r}")
    for thread in threads:
        thread.join(300)
    for index, error in ((i, "client thread wedged")
                         for i, t in zip(range(len(threads)), threads)
                         if t.is_alive()):
        errors.append(f"client {index}: {error}")
    return docs, errors, mid_scrape


def _oversized(port):
    """Send each :data:`OVERSIZED` request on its own connection; each
    must be answered with its status and closed within
    :data:`REFUSE_LIMIT`, and the server must stay ready."""
    problems = []
    for what, request, status, _ in OVERSIZED:
        reply = b""
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                start = time.monotonic()
                sock.sendall(request)
                while chunk := sock.recv(65536):
                    reply += chunk
                seconds = time.monotonic() - start
        except OSError as error:
            problems.append(f"{what}: {error!r} after {reply[:40]!r}")
            continue
        if reply.split(None, 2)[1:2] != [str(status).encode()]:
            problems.append(f"{what}: answered {reply[:60]!r}, not {status}")
        elif seconds > REFUSE_LIMIT:
            problems.append(f"{what}: took {seconds:.1f} s to be refused")
    client = ServiceClient("127.0.0.1", port)
    if not client.readiness()[0]:
        problems.append("/readyz is not 200 after the oversized requests")
    client.close()
    return problems


def _check(docs, errors, health):
    problems = list(errors)
    for index, _ in SUBMISSIONS:
        doc = docs.get(index)
        if doc is None:
            continue        # already reported as a client error
        if doc.get("state") != "done":
            problems.append(f"client {index}: terminal state "
                            f"{doc.get('state')!r}, failure "
                            f"{doc.get('failure')!r}")
    # the duplicate storm coalesced onto one job, one result
    storm = [docs[i] for i in STORM if i in docs]
    if storm:
        ids = {doc["job_id"] for doc in storm}
        payloads = {json.dumps(doc.get("result"), sort_keys=True)
                    for doc in storm}
        if len(ids) != 1:
            problems.append(f"storm split across {len(ids)} job ids")
        if len(payloads) != 1:
            problems.append("storm clients saw differing result payloads")
        if storm[0].get("submissions", 0) < len(STORM):
            problems.append(
                f"storm submissions={storm[0].get('submissions')} < "
                f"{len(STORM)} — duplicates were not coalesced")
    if health is not None:
        if health["jobs"]["done"] != health["jobs"]["total"]:
            problems.append(f"not every job finished: {health['jobs']}")
        if health["admission"]["coalesced"] < len(STORM) - 1:
            problems.append("admission counters show no coalescing")
    return problems


def _check_pool_loss(docs, events_path):
    """The pool-loss job really lost its worker process and was retried:
    a ``worker-crash`` naming it and a ``retry`` of kind ``crash``."""
    doc = docs.get(POOL_LOSS)
    if doc is None:
        return []       # already reported as a client error
    index = doc["index"]
    events = load_events(events_path)
    problems = []
    if not any(e["event"] == "worker-crash" and index in e.get("victims", ())
               for e in events):
        problems.append(f"pool-loss job {index}: no worker-crash event")
    if not any(e["event"] == "retry" and e.get("job") == index
               and e.get("kind") == "crash" for e in events):
        problems.append(f"pool-loss job {index}: no retry of kind crash")
    return problems


def _sum(samples, name, **match):
    return sum(value for labels, value in samples.get(name, ())
               if all(labels.get(k) == v for k, v in match.items()))


def _check_metrics(mid_scrape, final_scrape, health, events_path,
                   refused=()):
    """Validate both scrapes and reconcile the final counters against
    the event-log audit — the metrics must tell the same story as the
    telemetry stream and the admission snapshot, exactly. ``refused``
    lists the :data:`OVERSIZED` requests the server was sent."""
    problems = []
    for label, text in (("mid-drill", mid_scrape),
                        ("post-drain", final_scrape)):
        if text is None:
            problems.append(f"{label} /metrics scrape missing")
            continue
        for issue in validate_promtext.validate_text(text):
            problems.append(f"{label} scrape invalid: {issue}")
    if final_scrape is None:
        return problems

    samples = parse_promtext(final_scrape)
    audit = summarize(load_events(events_path))["metrics"]
    checks = (
        ("repro_jobs_executed_total == queued events",
         _sum(samples, "repro_jobs_executed_total"), audit.queued_events),
        ("repro_jobs_completed_total{done} == done + cache hits",
         _sum(samples, "repro_jobs_completed_total", state="done"),
         audit.done + audit.cache_hits),
        ("repro_jobs_completed_total{failed} == failed",
         _sum(samples, "repro_jobs_completed_total", state="failed"),
         audit.failed),
    )
    for status in ("413", "431"):
        want = [method for _, _, code, method in refused
                if str(code) == status]
        got = [labels["method"] for labels, value
               in samples.get("repro_requests_total", ())
               for _ in range(int(value)) if labels["status"] == status]
        checks += ((f"requests_total{{status={status}}} methods",
                    got, want),)
    for label, got, want in checks:
        if got != want:
            problems.append(f"metrics mismatch: {label}: {got} != {want}")
    if health is not None:
        admission = health["admission"]
        # A refused body never reaches admission.
        submissions = (_sum(samples, "repro_requests_total",
                            route="/v1/jobs", method="POST")
                       - _sum(samples, "repro_requests_total",
                              route="/v1/jobs", method="POST",
                              status="413"))
        accounted = (admission["admitted"] + admission["coalesced"]
                     + sum(admission["rejected"].values()))
        if submissions != accounted:
            problems.append(
                f"metrics mismatch: requests_total{{/v1/jobs,POST}} "
                f"{submissions:g} != admitted + coalesced + rejected "
                f"{accounted}")
        if _sum(samples, "repro_jobs_admitted_total") \
                != admission["admitted"]:
            problems.append("metrics mismatch: jobs_admitted_total "
                            "disagrees with admission snapshot")
    return problems


class _StreamCountingClient(ServiceClient):
    """A client that counts the event streams it opens."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.streams = 0

    def stream(self, job_id, **kwargs):
        self.streams += 1
        return super().stream(job_id, **kwargs)


def _warm_replay(events_path, workers):
    """Serve the drill's points again from a second server on the now
    warm cache; returns a list of problems."""
    points = {}
    for _, payload in SUBMISSIONS:
        point = {"workload": payload["workload"], "config": payload["config"]}
        points.setdefault(json.dumps(point, sort_keys=True), point)
    problems = []
    server, port = _start_server(events_path, workers)
    try:
        client = _StreamCountingClient("127.0.0.1", port, retries=6,
                                       backoff=0.1)
        for point in points.values():
            doc = client.run_job(point)
            if not (doc.get("state") == "done" and doc.get("cached")
                    and doc.get("coalesced") is False):
                problems.append(f"{point['workload']}: first submission "
                                f"answered {doc!r:.200}")
        if client.streams:
            problems.append(f"{client.streams} event stream(s) opened "
                            f"for cached points")
        replay = next(iter(points.values()))
        docs = []

        def _replay():
            one = ServiceClient("127.0.0.1", port, retries=6, backoff=0.1)
            try:
                docs.append(one.submit(replay))
            except Exception as error:  # noqa: BLE001 — reported below
                problems.append(f"replay: {error!r}")
            finally:
                one.close()

        threads = [threading.Thread(target=_replay)
                   for _ in range(WARM_STORM)]
        for thread in threads:
            thread.start()
        mid_scrape = client.metrics_text()
        for thread in threads:
            thread.join(60)
        if len(docs) != WARM_STORM or not all(
                doc.get("state") == "done" and doc.get("coalesced")
                for doc in docs):
            problems.append(f"replay storm: {len(docs)}/{WARM_STORM} "
                            f"answers, not all coalesced onto a done job")
        final_scrape = client.metrics_text()
        health = client.health()
        client.close()
        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=120)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate(timeout=30)
    jobs = health["jobs"]
    if jobs["done"] != jobs["total"] or jobs["total"] != len(points):
        problems.append(f"jobs {jobs}, expected {len(points)} done")
    if health["admission"]["coalesced"] != WARM_STORM:
        problems.append(f"{health['admission']['coalesced']} of "
                        f"{WARM_STORM} replays coalesced")
    problems += _check_metrics(mid_scrape, final_scrape, health,
                               events_path)
    problems += [f"audit: {violation}" for violation in
                 summarize(load_events(events_path))["violations"]]
    if server.returncode != 0 or "drained" not in out:
        problems.append(f"server exited {server.returncode} without a "
                        f"graceful drain")
    return [f"warm replay: {problem}" for problem in problems]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", default="serve_events.jsonl",
                        help="server event log (audited, CI artifact)")
    parser.add_argument("--metrics-out", default="serve_metrics.prom",
                        help="write the final /metrics scrape here "
                             "(validated, CI artifact)")
    parser.add_argument("--warm-events", default="serve_warm_events.jsonl",
                        help="event log of the warm-replay server "
                             "(audited)")
    parser.add_argument("--workers", type=int, default=2,
                        help="server worker processes (default 2)")
    args = parser.parse_args(argv)

    plan = _plan()
    print(f"chaos drill: {len(SUBMISSIONS)} concurrent clients, {plan}")
    server, port = _start_server(args.events, args.workers)
    final_scrape = None
    try:
        docs, errors, mid_scrape = _drill(port, plan)
        errors += _oversized(port)
        # Final scrape while the server still lives: after every client
        # drained, before the SIGTERM that ends the process.
        try:
            final_scrape = ServiceClient("127.0.0.1", port).metrics_text()
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(f"post-drain scrape: {error!r}")
        # This client's kept connection stays open, idle, through the
        # drain: shutdown must close it rather than wait on it.
        keeper = ServiceClient("127.0.0.1", port)
        health = keeper.health()
        server.send_signal(signal.SIGTERM)
        signalled = time.monotonic()
        out, _ = server.communicate(timeout=120)
        exit_seconds = time.monotonic() - signalled
        keeper.close()
    finally:
        if server.poll() is None:
            server.kill()
            out, _ = server.communicate(timeout=30)
    print(out, end="")
    if final_scrape is not None:
        with open(args.metrics_out, "w") as handle:
            handle.write(final_scrape)
        print(f"chaos drill: final /metrics scrape -> {args.metrics_out}")

    problems = _check(docs, errors, health)
    problems += _check_pool_loss(docs, args.events)
    problems += _check_metrics(mid_scrape, final_scrape, health,
                               args.events, refused=OVERSIZED)
    if server.returncode != 0:
        problems.append(f"server exited {server.returncode} after SIGTERM")
    if "drained" not in out:
        problems.append("server did not report a graceful drain")
    if exit_seconds > EXIT_LIMIT:
        problems.append(f"server took {exit_seconds:.1f} s to exit after "
                        f"SIGTERM with an idle kept connection open "
                        f"(limit {EXIT_LIMIT:g} s)")
    if "Exception in callback" in out:
        problems.append("server shutdown printed 'Exception in callback'")
    if not problems:
        problems += _warm_replay(args.warm_events, args.workers)
    if problems:
        print(f"chaos drill: FAILED ({len(problems)} problems)",
              file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    done = sum(1 for doc in docs.values() if doc.get("state") == "done")
    print(f"chaos drill: ok — {done}/{len(SUBMISSIONS)} clients done, "
          f"storm coalesced, pool loss and disconnect recovered, "
          f"oversized requests refused, metrics reconciled, warm replay "
          f"answered in the submit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
