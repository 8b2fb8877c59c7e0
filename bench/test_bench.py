"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q

The smoke passes write under ``.bench_build/`` like any benchmark run.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ab
import layers
import run
import timeline

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# -------------------------------------------------------------- percentiles

def test_percentile_is_nearest_rank():
    assert timeline.percentile([3, 1, 2], 50) == 2
    assert timeline.percentile(range(1, 101), 90) == 90
    assert timeline.percentile(range(1, 101), 100) == 100
    assert timeline.percentile([7], 99) == 7


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50), (40, 75), (99, 75), (100, 90), (999, 90),
    (1000, 99), (5940, 99), (10000, 99.9), (100000, 99.99)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert timeline.tail_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= timeline.MIN_BEYOND - 1e-9


# ------------------------------------------------------------- attribution

def span(span_id, start, end, *parents):
    return {"id": span_id, "start": start, "end": end,
            "parents": list(parents)}


def test_equal_split_among_innermost_spans():
    # p (one process) runs a and b (say, two pool workers); c is an
    # unrelated root in a third process.
    spans = [span("p", 0, 100), span("a", 10, 60, "p"),
             span("b", 40, 90, "p"), span("c", 50, 70)]
    owned, residual = timeline.self_times(spans, [(0, 100)])
    # [50, 60) splits three ways: 10 = 4 + 3 + 3, remainder to "a".
    assert owned == {"p": 20, "a": 30 + 5 + 4, "b": 5 + 3 + 5 + 20,
                     "c": 3 + 5}
    assert residual == 0


def test_time_outside_spans_is_residual_and_outside_windows_is_ignored():
    spans = [span("a", 0, 100), span("b", 300, 400)]
    owned, residual = timeline.self_times(spans, [(50, 200), (350, 360)])
    assert owned == {"a": 50, "b": 10}
    assert residual == 100


def test_a_span_with_two_parents_hides_both():
    # One dispatch (g) serves two clients' event streams (s1, s2).
    spans = [span("s1", 0, 100), span("s2", 0, 100),
             span("g", 20, 80, "s1", "s2")]
    owned, _ = timeline.self_times(spans, [(0, 100)])
    assert owned == {"s1": 20, "s2": 20, "g": 60}


def test_self_times_sum_exactly_to_the_windows():
    rng = random.Random(7)
    for _ in range(50):
        spans = []
        for index in range(rng.randint(1, 40)):
            start = rng.randint(0, 10_000)
            parents = ([f"s{rng.randrange(index)}"]
                       if index and rng.random() < 0.6 else [])
            spans.append(span(f"s{index}", start,
                              start + rng.randint(0, 3_000), *parents))
        windows = sorted(rng.randint(0, 14_000) for _ in range(4))
        windows = [(windows[0], windows[1]), (windows[2], windows[3])]
        owned, residual = timeline.self_times(spans, windows)
        assert sum(owned.values()) + residual == sum(
            end - start for start, end in windows)
        for item in spans:
            covered = sum(max(0, min(item["end"], end)
                              - max(item["start"], start))
                          for start, end in windows)
            assert 0 <= owned[item["id"]] <= covered


def test_request_reconciliation_sums_to_latency():
    request = {"start": 0, "end": 100}
    calls = [{"id": "submit", "start": 0, "end": 10},
             {"id": "events", "start": 10, "end": 90},
             {"id": "status", "start": 90, "end": 98}]
    handlers = [span("h1", 2, 8, "submit"), span("h2", 92, 96, "status")]
    parts = timeline.reconcile_request(request, calls, handlers,
                                       queue=(8, 30), run=(30, 85))
    assert parts == {"http": 2 + 5 + 2 + 2, "handler": 6 + 4,
                     "queue_wait": 22, "run": 55, "residual": 2}
    assert sum(parts.values()) == 100


def test_request_answered_by_submit_alone():
    parts = timeline.reconcile_request(
        {"start": 0, "end": 10}, [{"id": "submit", "start": 1, "end": 9}],
        [span("h", 3, 6, "submit")])
    assert parts == {"http": 5, "handler": 3, "queue_wait": 0, "run": 0,
                     "residual": 2}


# -------------------------------------------------------------------- A/B

REF = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
WIDE = [60, 140, 80, 120, 70, 130, 90, 110, 100, 100]


@pytest.mark.parametrize("ref, cur, lower_is_better, expected", [
    (REF, [value + 10 for value in REF], False, "better"),
    (REF, [value * 1.2 for value in REF], True, "worse"),
    (REF, WIDE, False, "unresolved"),
    (WIDE, [value + 200 for value in WIDE], False, "better"),
    (REF, REF[::-1], False, "same"),
    # Wins most pairs, but by less than the reference's own spread.
    (REF, [value + 1 for value in REF], False, "same"),
    # Worse in every pair, but by less than the bound.
    (REF, [value - 5 for value in REF], False, "same"),
])
def test_ab_verdict(ref, cur, lower_is_better, expected):
    wins, verdict = ab.verdict(ref, cur, 0.1, lower_is_better)
    assert verdict == expected
    assert 0 <= wins <= 1


# ------------------------------------------------------------ the contract

def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


NEVER_READY = """
import http.server

class Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        self.send_response(503)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
print(f"listening on http://127.0.0.1:{server.server_port}", flush=True)
server.serve_forever()
"""


def test_a_server_that_never_becomes_ready_is_killed(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(NEVER_READY)
    monkeypatch.setattr(run, "START_LIMIT", 1.0)
    spawner = run.Spawner()
    try:
        bench = run.Bench(tmp_path, 0, 0, False, False, spawner)
        with pytest.raises(run.ProgramError, match="not ready"):
            bench.start_server(bench.fresh_dir("serve"))
    finally:
        spawner.close()


def test_spawner_confines_a_process_to_the_given_cpus(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    out = tmp_path / "out"
    spawner = run.Spawner()
    try:
        reply = spawner.call(
            op="spawn", argv=[sys.executable, "-c", "import os; "
                              "print(sorted(os.sched_getaffinity(0)))"],
            env=dict(os.environ), cwd=str(tmp_path), stdout=str(out),
            stderr=str(tmp_path / "err"), cpus=[cpu])
        assert spawner.call(op="wait", pid=reply["pid"],
                            timeout=30)["code"] == 0
    finally:
        spawner.close()
    assert out.read_text().strip() == str([cpu])


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(workload):
    result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.E2E}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    result = smoke(workload, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"]
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    # Warm passes and deduplicated requests must never reach the engine.
    simulates = workload in ("figures_cold", "serve_fresh")
    assert (metrics["core.run.calls"] > 0) is simulates
    assert (metrics["core.sim_cycles"] > 0) is simulates
    assert metrics["residual_frac"] <= 0.05
    shares = [value for name, value in metrics.items()
              if name.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)


# ------------------------------------------------------------ engine proxy

def test_calls_per_cycle_repeats_exactly():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "profile_engine.py"), "LL5:1"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append(json.loads(proc.stdout))
    first, second = outputs
    assert first["cycles"] == second["cycles"] > 0
    assert first["calls"] == second["calls"]
    assert first["calls_per_cycle"] == second["calls_per_cycle"]
