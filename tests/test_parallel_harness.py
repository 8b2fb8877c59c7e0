"""Parallel grid fan-out: results must match the serial runner exactly."""

import pytest

from repro.core.config import MachineConfig
from repro.harness import (GridError, JobFailure, Runner, cross,
                           default_workers, run_grid)
from repro.harness.parallel import ENV_WORKERS
from repro.workloads import by_name


def _jobs():
    ll2 = by_name("LL2")
    sieve = by_name("Sieve")
    return [
        (ll2, MachineConfig(nthreads=1)),
        (ll2, MachineConfig(nthreads=4)),
        ("Sieve", MachineConfig(nthreads=2)),
        (sieve, MachineConfig(nthreads=2, su_entries=32)),
    ]


def _assert_matches_serial(results, jobs):
    serial = Runner()
    assert len(results) == len(jobs)
    for result, (workload, config) in zip(results, jobs):
        if isinstance(workload, str):
            workload = by_name(workload)
        expected = serial.run(workload, config)
        assert result.workload.name == workload.name
        assert result.cycles == expected.cycles
        assert result.verified
        assert result.stats.to_dict() == expected.stats.to_dict()


def test_run_grid_inline_matches_serial():
    jobs = _jobs()
    _assert_matches_serial(run_grid(jobs, workers=1), jobs)


def test_run_grid_processes_match_serial():
    jobs = _jobs()
    _assert_matches_serial(run_grid(jobs, workers=2), jobs)


def test_run_grid_uses_disk_cache(tmp_path, monkeypatch):
    jobs = _jobs()
    cache_path = tmp_path / "cache.json"
    first = run_grid(jobs, workers=2, disk_cache=cache_path)
    # Second pass: all jobs answered from disk, no pool and no simulation.
    monkeypatch.setattr(
        "concurrent.futures.process.ProcessPoolExecutor",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("spawned pool")))
    monkeypatch.setattr(
        "repro.core.pipeline.PipelineSim",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("simulated")))
    second = run_grid(jobs, workers=2, disk_cache=cache_path)
    for one, two in zip(first, second):
        assert one.cycles == two.cycles
        assert one.stats.to_dict() == two.stats.to_dict()


def test_cross_builds_full_grid():
    grid = cross(["LL2", "Sieve"],
                 [MachineConfig(nthreads=1), MachineConfig(nthreads=2)])
    assert len(grid) == 4
    assert grid[0][0] == "LL2" and grid[0][1].nthreads == 1
    assert grid[3][0] == "Sieve" and grid[3][1].nthreads == 2


def test_run_grid_reports_failure_without_sinking_grid():
    # One job that cannot finish (deadlocks at max_cycles) among good
    # ones: the grid completes, the bad slot holds a JobFailure, and the
    # good slots hold verified results.
    ll2 = by_name("LL2")
    good = MachineConfig(nthreads=1)
    bad = MachineConfig(nthreads=1, max_cycles=200)  # cannot finish
    results = run_grid([(ll2, good), (ll2, bad)], workers=1)
    assert results[0].ok and results[0].verified
    failure = results[1]
    assert isinstance(failure, JobFailure)
    assert not failure.ok
    assert failure.index == 1
    assert failure.workload == "LL2"
    assert failure.kind == "exception"
    assert failure.attempts == 1  # deterministic error: never retried
    assert failure.to_dict()["kind"] == "exception"


def test_run_grid_strict_raises_grid_error():
    ll2 = by_name("LL2")
    bad = MachineConfig(nthreads=1, max_cycles=200)
    with pytest.raises(GridError) as excinfo:
        run_grid([(ll2, MachineConfig(nthreads=1)), (ll2, bad)],
                 workers=1, strict=True)
    error = excinfo.value
    assert len(error.failures) == 1
    assert error.failures[0].index == 1
    assert error.results[0].ok  # completed work still reachable


def test_run_grid_rejects_invalid_config_up_front():
    with pytest.raises(ValueError, match="invalid MachineConfig"):
        run_grid([(by_name("LL2"), MachineConfig(nthreads=0))], workers=1)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS, "3")
    assert default_workers() == 3
    monkeypatch.setenv(ENV_WORKERS, "0")
    assert default_workers() == 1  # clamped
    monkeypatch.delenv(ENV_WORKERS)
    assert default_workers() >= 1


def test_default_workers_ignores_junk(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS, "lots")
    with pytest.warns(RuntimeWarning):
        assert default_workers() >= 1


def test_run_grid_runs_a_repeated_point_once(tmp_path, monkeypatch):
    from repro.core.pipeline import PipelineSim
    from repro.obs.ledger import RunLedger
    from repro.obs.report import build_experiment
    from repro.obs.telemetry import SweepTelemetry, summarize

    _, _, columns, grid = build_experiment("fetch", ["LL2"], (1,))
    jobs = [(wname, config) for wname, config, _ in grid]
    assert len(jobs) == 4           # TrueRR at 1 thread is the BaseCase
    runs = []
    real_run = PipelineSim.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(PipelineSim, "run", counting_run)
    events = []
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    results = run_grid(jobs, workers=1, ledger=ledger,
                       disk_cache=tmp_path / "cache.json",
                       telemetry=SweepTelemetry(
                           sinks=[lambda e: events.append(e.to_dict())]))
    assert len(runs) == 3
    assert len(ledger.records()) == 3
    by_label = dict(zip(columns, results))
    assert by_label["TrueRR"] is by_label["BaseCase"]
    _assert_matches_serial(results, jobs)
    audit = summarize(events)
    assert audit["violations"] == []
    assert audit["metrics"].total == 3
