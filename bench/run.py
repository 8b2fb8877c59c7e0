#!/usr/bin/env python3
"""End-to-end and per-layer benchmark: paper-figure grids and served jobs.

Run from the root of a checkout. The program is imported and launched
from ``./src``; everything a run writes goes under ``./.bench_build``::

    python3 bench/run.py --workload figures_cold --seed 1 --seconds 25 --trace 0

Workloads (bench/README.md says why each was chosen):

``figures_cold``
    ``repro report`` for the four paper experiments on a three-workload
    slice of the grid, starting every pass from empty caches.
``figures_warm``
    The same four commands over the full grid (286 points) against a
    warm result cache and a ledger of ten prior passes; nothing
    simulates.
``serve_fresh``
    Two closed-loop clients run 22 unique points (every paper workload
    at 1 and 4 threads) through a fresh ``repro serve`` with empty
    caches.
``serve_dedup``
    Two closed-loop clients replay the 198 unique figure points ten
    times against a fresh server whose cache already holds them; the
    server and the clients share one CPU.

Each run repeats its workload's unit (one pass, or one server lifetime)
until ``--seconds`` have elapsed and reports medians. ``--seed`` only
permutes the served request order. ``--trace 1`` alternates untraced
and traced units (bench/traced.py), adds the engine profile
(bench/profile_engine.py), and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status
is 0 when every output was correct, 1 when one was not (the differing
point is named on standard error), and 2 when the checkout holds no
program to measure.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import timeline
import traced

BENCH_DIR = Path(__file__).resolve().parent
PINNED = BENCH_DIR / "pinned.json"

WORKLOADS = ("figures_cold", "figures_warm", "serve_fresh", "serve_dedup")

#: The host has two cores: two pool workers, two client threads.
WORKERS = 2
CLIENTS = 2
SETUP_SPAWNS = 5
DEDUP_REPLAYS = 10

#: ``repro report`` commands of a figure pass: (experiment, --threads).
#: The thread sweep stops at 6, the paper's Figures 5-6 range: LL7 at
#: 8 threads does not compile (out of registers).
EXPERIMENTS = (("threads", (1, 2, 3, 4, 5, 6)), ("fetch", None),
               ("su", None), ("cache", None))

#: Figure grids: name -> (report commands, paper workloads or None for
#: all). "cold" is the slice a cold pass covers, sized so a pass takes
#: seconds; "smoke" is two workloads x two configs, for the tests.
GRIDS = {"full": (EXPERIMENTS, None),
         "cold": (EXPERIMENTS, ("LL5", "MPD", "Water")),
         "smoke": ((("threads", (1, 2)),), ("LL5", "MPD"))}

#: The served fresh set: every paper workload at its single-thread
#: base case and at four threads (fetch-experiment columns).
FRESH_COLUMNS = ("fetch/BaseCase", "fetch/TrueRR")

E2E = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("latency_p50_ms", "ms"),
       ("peak_rss_mb", "MB"))

#: Seconds any one program process may take before it is killed, and
#: that ``repro serve`` may take to print its listening banner and
#: answer ``/readyz`` with 200.
PROCESS_LIMIT = 150.0
START_LIMIT = 30.0


class ProgramError(Exception):
    """A program process failed to start, hung, or exited non-zero."""


def table_digest(stdout):
    """sha256 of a ``repro report`` table body (lines not starting
    with ``#``, which name the run's temporary paths)."""
    body = "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("#")).strip()
    return hashlib.sha256(body.encode()).hexdigest()


def source_digest(src, *extra):
    """Content digest of the program's source tree and ``extra``."""
    digest = hashlib.sha256(repr(extra).encode())
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Grid:
    """One figure pass (see :data:`GRIDS`): its report commands and the
    points they cover, each with a pin label
    ``workload/experiment/column``."""

    def __init__(self, name):
        from repro.obs.ledger import config_fingerprint
        from repro.obs.report import build_experiment

        self.name = name
        self.experiments, self.workloads = GRIDS[name]
        self.points = []        # (pin label, workload, MachineConfig)
        self.labels = {}        # (workload, fingerprint) -> pin label
        for experiment, threads in self.experiments:
            _, _, _, jobs = build_experiment(experiment, self.workloads,
                                             threads)
            for wname, config, column in jobs:
                label = f"{wname}/{experiment}/{column}"
                self.points.append((label, wname, config))
                self.labels.setdefault(
                    (wname, config_fingerprint(config)), label)

    def commands(self):
        for experiment, threads in self.experiments:
            args = ["report", "--workers", str(WORKERS),
                    "--experiment", experiment]
            if threads:
                args += ["--threads", *map(str, threads)]
            if self.workloads:
                args += ["--workloads", *self.workloads]
            yield experiment, args

    def unique_points(self):
        """First occurrence of each distinct (workload, config)."""
        first = set(self.labels.values())
        return [point for point in self.points if point[0] in first]


class Unit:
    """Outcome of one repetition of a workload's unit of work."""

    def __init__(self, traced_unit):
        self.traced = traced_unit
        self.start = self.end = 0       # perf_counter_ns
        self.points = 0                 # grid points or requests answered
        self.latencies = []             # seconds, one per operation
        self.sim_cycles = 0             # cycles of points executed
        self.rss_kb = 0                 # peak RSS of the unit's processes
        self.trace_dir = None
        self.bench_spans = []

    @property
    def wall(self):
        return (self.end - self.start) / 1e9


class Spawner:
    """Client of bench/spawner.py, which starts and reaps every program
    process: the kernel would carry this process's own peak RSS into
    any child it spawned itself."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, **request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise ProgramError("the process spawner exited")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Bench:
    """State of one benchmark run in one checkout."""

    def __init__(self, root, seed, seconds, trace, smoke, spawner):
        self.src = root / "src"
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.spawner = spawner
        self.build = root / ".bench_build"
        self.work = self.build / f"run-{os.getpid()}"
        with open(PINNED) as handle:
            self.pins = json.load(handle)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rss_kb = 0                 # peak RSS since the unit started
        self.recorder = traced.Recorder()
        self._dirs = 0
        self._spawns = 0

    # --------------------------------------------------------- processes

    def fail(self, message):
        self.errors.append(message)

    def fresh_dir(self, name):
        self._dirs += 1
        directory = self.work / f"{self._dirs:03d}-{name}"
        directory.mkdir(parents=True)
        return directory

    def env(self, directory, trace_dir=None):
        """Environment of a program process: its caches and ledger in
        ``directory``, nothing inherited that would redirect them."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("REPRO_", "BENCH_TRACE_"))}
        env.update(PYTHONPATH=str(self.src),
                   REPRO_CACHE=str(directory / "results.json"),
                   REPRO_LEDGER=str(directory / "ledger.jsonl"),
                   REPRO_CODEGEN_CACHE=str(directory / "codegen"),
                   REPRO_GIT_SHA="bench")
        if trace_dir is not None:
            env["BENCH_TRACE_DIR"] = str(trace_dir)
        return env

    def spawn(self, args, directory, env, traced_process, cpus=None):
        """Start ``repro args`` (under the tracing shim when
        ``traced_process``, on the CPUs ``cpus`` when given); returns
        ``(pid, stdout path, stderr path)``."""
        self._spawns += 1
        out = directory / f"{self._spawns:04d}.out"
        err = directory / f"{self._spawns:04d}.err"
        if traced_process:
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        reply = self.spawner.call(op="spawn", argv=argv, env=env,
                                  cwd=str(directory), stdout=str(out),
                                  stderr=str(err), cpus=cpus)
        return reply["pid"], out, err

    def reap(self, pid, limit=PROCESS_LIMIT):
        """Wait for a program process; returns its exit code and folds
        its peak RSS — which includes every descendant it reaped, pool
        workers too — into the unit's."""
        reply = self.spawner.call(op="wait", pid=pid, timeout=limit)
        self.rss_kb = max(self.rss_kb, reply["maxrss_kb"])
        return reply["code"]

    def run_program(self, args, directory, trace_dir=None):
        """Run one ``repro`` command to completion; returns stdout.
        In a traced unit the process runs under the tracing shim, as a
        child of a ``bench.spawn`` span."""
        env = self.env(directory, trace_dir)
        span = None
        if trace_dir is not None:
            span = self.recorder.begin("bench.spawn")
            env["BENCH_TRACE_PARENT"] = span["id"]
            env["BENCH_TRACE_SPAWN_NS"] = str(time.perf_counter_ns())
        pid, out, err = self.spawn(args, directory, env, span is not None)
        code = self.reap(pid)
        if span is not None:
            self.recorder.end(span)
        if code != 0:
            tail = err.read_text(errors="replace")[-400:]
            raise ProgramError(f"'repro {' '.join(args)}' exited {code}: "
                               f"{tail.strip()}")
        return out.read_text()

    # ------------------------------------------------------------ server

    def start_server(self, directory, trace_dir=None, cpus=None):
        """Spawn ``repro serve`` (on the CPUs ``cpus`` when given) and
        wait for ``/readyz``; returns ``(pid, port, seconds to ready)``."""
        from repro.service.client import ServiceClient

        args = ["serve", "--port", "0", "--workers", str(WORKERS)]
        start = time.perf_counter()
        pid, out, _ = self.spawn(args, directory,
                                 self.env(directory, trace_dir),
                                 trace_dir is not None, cpus)
        try:
            deadline = start + START_LIMIT
            banner = ""
            while "\n" not in banner and time.perf_counter() < deadline:
                time.sleep(0.0005)
                banner = out.read_text()
            match = re.search(r"http://[^:/]+:(\d+)", banner)
            if match is None:
                raise ProgramError(f"repro serve printed no port: "
                                   f"{banner!r}")
            port = int(match.group(1))
            client = ServiceClient("127.0.0.1", port, timeout=10.0)
            while not client.readiness()[0]:
                if time.perf_counter() >= deadline:
                    raise ProgramError(f"repro serve was not ready within "
                                       f"{START_LIMIT:g} s")
                time.sleep(0.002)
        except BaseException:
            self.spawner.call(op="signal", pid=pid, signum=signal.SIGKILL)
            self.reap(pid)
            raise
        return pid, port, time.perf_counter() - start

    def stop_server(self, pid):
        """SIGTERM (graceful drain), then reap; a non-zero exit fails."""
        self.spawner.call(op="signal", pid=pid, signum=signal.SIGTERM)
        code = self.reap(pid, limit=60.0)
        if code != 0:
            raise ProgramError(f"repro serve exited {code}")

    # ------------------------------------------------------------- setup

    def setup_cli(self):
        """Interpreter start plus CLI import, which every ``repro``
        command pays: the median of ``python -m repro workloads``."""
        directory = self.fresh_dir("setup")
        self.run_program(["workloads"], directory)  # warm the bytecode cache
        samples = []
        for _ in range(SETUP_SPAWNS):
            start = time.perf_counter()
            self.run_program(["workloads"], directory)
            samples.append(time.perf_counter() - start)
        return samples

    def setup_server(self, cache=None):
        """Time from spawning ``repro serve`` until ``/readyz`` is 200,
        with the cache the workload's servers start from."""
        samples = []
        for _ in range(SETUP_SPAWNS):
            directory = self.fresh_dir("setup")
            if cache is not None:
                shutil.copy(cache, directory / "results.json")
            pid, _, seconds = self.start_server(directory)
            self.stop_server(pid)
            samples.append(seconds)
        return samples

    # ------------------------------------------------------------- units

    def repeat(self, unit):
        """Run ``unit(index, traced)`` until ``--seconds`` have passed.
        Traced runs alternate untraced and traced units (the untraced
        ones give the tracing overhead) and need at least one of each.
        Each unit records the peak RSS of its own processes."""
        units = []
        minimum = 2 if self.trace else 1
        start = time.monotonic()
        while len(units) < minimum or time.monotonic() - start < self.seconds:
            index = len(units)
            self.rss_kb = 0
            units.append(unit(index, self.trace and index % 2 == 1))
            units[-1].rss_kb = self.rss_kb
            if self.errors:
                break
        return units

    def check_cycles(self, where, label, cycles):
        expected = self.pins["cycles"].get(label)
        if cycles != expected:
            self.fail(f"{where}: {label} simulated {cycles} cycles, "
                      f"pinned {expected}")

    def figure_pass(self, grid, directory, trace_dir=None):
        """Run the grid's report commands; check every table."""
        tables = self.pins["tables"][grid.name]
        for experiment, args in grid.commands():
            self.attempted += 1
            try:
                stdout = self.run_program(args, directory, trace_dir)
            except ProgramError as error:
                self.failed += 1
                self.fail(f"{grid.name}: {error}")
                return
            digest = table_digest(stdout)
            if digest != tables[experiment]:
                self.fail(f"{grid.name}: the {experiment} table differs "
                          f"from the pinned one (sha256 {digest[:16]}):\n"
                          f"{stdout}")

    def check_ledger(self, grid, ledger_path, expect_executed):
        """Every record of the pass carries its pinned cycle count and
        the points it executed are exactly ``expect_executed``;
        returns the executed points' simulated cycles."""
        from repro.obs.ledger import RunLedger

        executed = set()
        cycles = 0
        for record in RunLedger(ledger_path).records():
            key = (record["workload"], record["config_fingerprint"])
            label = grid.labels.get(key)
            if label is None or not record["verified"]:
                self.fail(f"{grid.name}: unexpected or unverified ledger "
                          f"record {key}")
                continue
            self.check_cycles(grid.name, label, record["stats"]["cycles"])
            if not record["cached"]:
                executed.add(label)
                cycles += record["stats"]["cycles"]
        if executed != expect_executed:
            missing = sorted(expect_executed - executed)[:3]
            extra = sorted(executed - expect_executed)[:3]
            self.fail(f"{grid.name}: executed points differ from the grid's "
                      f"unique points (missing {missing}, extra {extra})")
        return cycles

    def new_trace_dir(self, directory):
        trace_dir = directory / "spans"
        trace_dir.mkdir()
        return trace_dir

    # ------------------------------------------------------- warm state

    def warm_state(self, grid):
        """Result cache and ten-pass ledger from one cold pass over
        ``grid``, built once per source tree and kept in .bench_build."""
        key = source_digest(self.src, list(grid.commands()))[:16]
        final = self.build / f"warm-{grid.name}-{key}"
        if (final / "ledger10.jsonl").is_file():
            return final
        for stale in self.build.glob(f"warm-{grid.name}-*"):
            shutil.rmtree(stale, ignore_errors=True)
        directory = self.fresh_dir("warm-build")
        self.figure_pass(grid, directory)
        self.check_ledger(grid, directory / "ledger.jsonl",
                          {label for label, _, _ in grid.unique_points()})
        if self.errors:
            return None
        ledger = (directory / "ledger.jsonl").read_bytes()
        (directory / "ledger10.jsonl").write_bytes(ledger * 10)
        os.replace(directory, final)
        return final


# ------------------------------------------------------------------ figures

def figures(bench, cold):
    from repro.obs.ledger import RunLedger

    grid = Grid("smoke" if bench.smoke else "cold" if cold else "full")
    state = None
    if not cold:
        state = bench.warm_state(grid)
        if state is None:
            return None
        prior = (state / "ledger10.jsonl").read_bytes().count(b"\n")
    executed = {label for label, _, _ in grid.unique_points()}
    setup = bench.setup_cli()

    def unit(index, traced_unit):
        result = Unit(traced_unit)
        directory = bench.fresh_dir("pass")
        if state is not None:
            shutil.copy(state / "results.json", directory / "results.json")
            shutil.copy(state / "ledger10.jsonl", directory / "ledger.jsonl")
        if traced_unit:
            result.trace_dir = bench.new_trace_dir(directory)
        spans_before = len(bench.recorder.spans)
        result.start = time.perf_counter_ns()
        bench.figure_pass(grid, directory, result.trace_dir)
        result.end = time.perf_counter_ns()
        result.bench_spans = bench.recorder.spans[spans_before:]
        result.points = len(grid.points)
        result.latencies = [result.wall]
        ledger = directory / "ledger.jsonl"
        if cold:
            result.sim_cycles = bench.check_ledger(grid, ledger, executed)
        elif any(not record["cached"]
                 for record in RunLedger(ledger).records()[prior:]):
            bench.fail(f"{grid.name}: a warm pass simulated a point")
        return result

    return setup, bench.repeat(unit)


# ------------------------------------------------------------------ serving

def traced_client(port, recorder):
    """A ``ServiceClient`` that records a span around each HTTP call."""
    from repro.service.client import ServiceClient

    class TracedClient(ServiceClient):
        def _request(self, method, path, payload=None, request_id=None):
            if method == "POST":
                span = recorder.begin("service.call.submit",
                                      request_id=request_id)
            else:
                span = recorder.begin("service.call.status",
                                      request_id=request_id,
                                      job_id=path.rsplit("/", 1)[-1])
            try:
                reply = super()._request(method, path, payload, request_id)
                if method == "POST" and isinstance(reply[2], dict):
                    span["job_id"] = reply[2].get("job_id")
                return reply
            finally:
                recorder.end(span)

        def stream(self, job_id, **kwargs):
            span = recorder.begin("service.call.events", job_id=job_id,
                                  request_id=kwargs.get("request_id"))
            try:
                yield from super().stream(job_id, **kwargs)
            finally:
                recorder.end(span)

    return TracedClient("127.0.0.1", port)


def serve_clients(port, requests, recorder=None, cpus=None):
    """Two closed-loop clients drain ``requests`` (label, payload),
    recording spans when given a ``recorder`` and running on the CPUs
    ``cpus`` when given; returns
    ``[(label, latency seconds, doc or None, error or None)]``."""
    from repro.service.client import (ServiceClient, ServiceError,
                                      ServiceUnavailable, new_request_id)

    pending = collections.deque(requests)
    lock = threading.Lock()
    outcomes = []

    def client_loop():
        if cpus:
            os.sched_setaffinity(0, cpus)   # this thread only, on Linux
        client = (traced_client(port, recorder) if recorder is not None
                  else ServiceClient("127.0.0.1", port))
        while True:
            with lock:
                if not pending:
                    return
                label, payload = pending.popleft()
            request_id = new_request_id()
            span = (recorder.begin("service.request", request_id=request_id)
                    if recorder is not None else None)
            start = time.perf_counter()
            doc = error = None
            try:
                doc = client.run_job(payload, request_id=request_id)
            except (ServiceError, ServiceUnavailable, OSError) as exc:
                error = exc
            latency = time.perf_counter() - start
            if span is not None:
                span["job_id"] = (doc or {}).get("job_id")
                recorder.end(span)
            with lock:
                outcomes.append((label, latency, doc, error))

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def serving(bench, fresh):
    grid = Grid("smoke" if bench.smoke else "full")
    cache = cpus = None
    if fresh:
        points = (grid.unique_points() if bench.smoke else
                  [point for point in grid.points
                   if point[0].split("/", 1)[1] in FRESH_COLUMNS])
        rounds = 1
    else:
        state = bench.warm_state(grid)
        if state is None:
            return None
        cache = state / "results.json"
        points = grid.unique_points()
        rounds = DEDUP_REPLAYS
        # Nothing simulates, so the server and both clients share one
        # CPU: each ~1 ms round trip then runs on a CPU that stays
        # busy, instead of waiting on a cross-CPU wake-up whose cost
        # follows the load of the shared host (see bench/README.md).
        cpus = [min(os.sched_getaffinity(0))]
    payloads = [(label, {"workload": wname, "config": config.to_spec()})
                for label, wname, config in points]
    setup = bench.setup_server(cache)

    def unit(index, traced_unit):
        result = Unit(traced_unit)
        directory = bench.fresh_dir("serve")
        if cache is not None:
            shutil.copy(cache, directory / "results.json")
        if traced_unit:
            result.trace_dir = bench.new_trace_dir(directory)
        requests = []
        for replay in range(rounds):
            order = list(payloads)
            random.Random(f"{bench.seed}:{index}:{replay}").shuffle(order)
            requests += order
        pid, port, _ = bench.start_server(directory, result.trace_dir, cpus)
        spans_before = len(bench.recorder.spans)
        try:
            result.start = time.perf_counter_ns()
            outcomes = serve_clients(
                port, requests, bench.recorder if traced_unit else None,
                cpus)
            result.end = time.perf_counter_ns()
        finally:
            bench.stop_server(pid)
        result.bench_spans = bench.recorder.spans[spans_before:]
        for label, latency, doc, error in outcomes:
            bench.attempted += 1
            result.latencies.append(latency)
            if error is not None or (doc or {}).get("state") != "done":
                bench.failed += 1
                bench.fail(f"serve: {label} was not answered: "
                           f"{error or (doc or {}).get('failure')}")
                continue
            payload = doc["result"]
            if not payload["verified"]:
                bench.fail(f"serve: {label} is not verified")
            cycles = payload["stats"]["cycles"]
            bench.check_cycles("serve", label, cycles)
            result.points += 1
            if fresh:
                result.sim_cycles += cycles
        return result

    return setup, bench.repeat(unit)


# ----------------------------------------------------------------- metrics

def e2e_metrics(setup, units):
    """End-to-end metrics of the untraced units as ``{name: (value, unit,
    samples)}``: first every metric of :data:`E2E`, then the ones only
    printed — the tail latency (the highest percentile with ten samples
    beyond it) and the simulated cycles per second of the points
    executed, where they exist."""
    plain = [unit for unit in units if not unit.traced]
    latencies = [value for unit in plain for value in unit.latencies]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "jobs_per_s": (statistics.median(u.points / u.wall for u in plain),
                       "1/s", len(plain)),
        "latency_p50_ms": (timeline.percentile(latencies, 50) * 1e3, "ms",
                           len(latencies)),
        "peak_rss_mb": (statistics.median(u.rss_kb for u in plain) / 1024,
                        "MB", len(plain)),
    }
    tail = timeline.tail_percentile(len(latencies))
    if tail is not None and tail > 50:
        metrics[f"latency_p{tail:g}_ms"] = (
            timeline.percentile(latencies, tail) * 1e3, "ms", len(latencies))
    cycles = sum(unit.sim_cycles for unit in plain)
    if cycles:
        metrics["sim_cycles_per_s"] = (
            cycles / sum(unit.wall for unit in plain), "cycles/s",
            len(plain))
    return metrics


def run_profile(bench):
    """The engine profile in a fresh interpreter with a fixed hash seed."""
    args = ["LL5:1"] if bench.smoke else []
    env = bench.env(bench.fresh_dir("profile"))
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "profile_engine.py"), *args],
        env=env, capture_output=True, text=True, timeout=PROCESS_LIMIT)
    if proc.returncode != 0:
        raise ProgramError(f"profile_engine exited {proc.returncode}: "
                           f"{proc.stderr[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# -------------------------------------------------------------------- main

def measure(bench, workload):
    """Run one workload; returns ``(setup samples, units)`` or ``None``."""
    if workload.startswith("figures_"):
        return figures(bench, cold=workload == "figures_cold")
    return serving(bench, fresh=workload == "serve_fresh")


def report(bench, workload, setup, units):
    """Print the human-readable lines; returns the result metrics."""
    served = workload.startswith("serve_")
    print(f"{workload}: seed {bench.seed}, {len(units)} unit(s) in "
          f"{sum(u.wall for u in units):.1f} s"
          f"{' (smoke)' if bench.smoke else ''}")
    if not bench.trace:
        metrics = e2e_metrics(setup, units)
        for name, (value, unit, samples) in metrics.items():
            print(f"  {name:18s} {value:14.4f} {unit:9s} n={samples}")
        return {name: {"value": metrics[name][0], "unit": unit}
                for name, unit in E2E}
    profile = run_profile(bench)
    metrics, reconcile = layers.layer_metrics(units, profile, served,
                                              WORKERS)
    for name, unit in layers.PER_LAYER:
        print(f"  {name:34s} {metrics[name]:16.6f} {unit}")
    print(f"  traced wall {reconcile['window_s']:.4f} s = layers "
          f"{reconcile['layers_s']:.4f} s + residual "
          f"{reconcile['residual_s']:.4f} s")
    if "request_ms" in reconcile:
        mean = reconcile["request_ms"]
        print(f"  mean request {mean['latency']:.3f} ms = " + " + ".join(
            f"{part} {mean[part]:.3f}" for part in timeline.REQUEST_PARTS)
            + f" (n={reconcile['requests']})")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in layers.PER_LAYER}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two workloads x two configs, for the tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"bench: no program at {src / 'repro'}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    # Start the spawner while this process is still small: its peak
    # RSS is the floor of every program process's.
    spawner = Spawner()
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"bench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        spawner.close()
        return 2
    bench = Bench(root, args.seed, args.seconds, bool(args.trace), args.smoke,
                  spawner)
    try:
        measured = measure(bench, args.workload)
        metrics = {}
        if measured is not None and not bench.errors:
            metrics = report(bench, args.workload, *measured)
    except (ProgramError, OSError) as error:
        bench.fail(str(error))
        metrics = {}
    finally:
        spawner.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    for error in bench.errors:
        print(f"bench: {error}", file=sys.stderr)
    correct = not bench.errors
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
