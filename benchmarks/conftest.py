"""Shared fixtures for the per-figure benchmark suite.

Before any figure test runs, the session simulates the union of every
experiment's points (:data:`repro.harness.experiments.EXPERIMENTS`)
once, in parallel, through :func:`~repro.harness.parallel.run_grid`
into the session's result cache. The figure tests then share one
memoizing Runner over that cache, so they only read results. Results
accumulate in ``benchmarks/results.json`` for EXPERIMENTS.md.

The cache is persistent (``benchmarks/.result_cache.json``), so a
repeated session replays finished simulations from JSON — set
``REPRO_NO_DISK_CACHE=1`` to force everything to re-simulate into a
temporary cache instead. Entries key on the engine version, workload
program content, and full configuration, so simulator or kernel changes
invalidate them automatically.
"""

import json
import os
import pathlib

import pytest

from repro.harness import DiskResultCache, Runner, run_grid
from repro.harness.experiments import EXPERIMENTS
from repro.obs.ledger import config_fingerprint
from repro.workloads import GROUP_I, GROUP_II

RESULTS_PATH = pathlib.Path(__file__).parent / "results.json"
CACHE_PATH = pathlib.Path(__file__).parent / ".result_cache.json"

_results = {}
_disk_cache = None


def _prefill(cache):
    """Simulate every declared experiment's points into ``cache``."""
    grids = {False: {}, True: {}}
    for experiment in EXPERIMENTS.values():
        for label, config in experiment.columns():
            grid = grids[label in experiment.aligned]
            for name in experiment.workload_names():
                grid.setdefault((name, config_fingerprint(config)),
                                (name, config))
    for aligned, grid in grids.items():
        run_grid(list(grid.values()), workers=os.cpu_count(),
                 disk_cache=cache, aligned=aligned, strict=True)


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    global _disk_cache
    if os.environ.get("REPRO_NO_DISK_CACHE") == "1":
        cache = DiskResultCache(
            tmp_path_factory.mktemp("cache") / "results.json",
            autosave=False)
    else:
        cache = _disk_cache = DiskResultCache(CACHE_PATH, autosave=False)
    _prefill(cache)
    return Runner(disk_cache=cache)


@pytest.fixture(scope="session")
def group1():
    return GROUP_I


@pytest.fixture(scope="session")
def group2():
    return GROUP_II


def record(experiment, data):
    """Store one experiment's data for the results file."""
    _results[experiment] = data


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def geomean_speedup(cycles_a, cycles_b, names):
    """Average of per-benchmark speedups of a over b."""
    speedups = [cycles_b[n] / cycles_a[n] - 1 for n in names]
    return sum(speedups) / len(speedups)


def pytest_terminal_summary(terminalreporter):
    if _disk_cache is not None:
        terminalreporter.write_line(_disk_cache.stats_line())


@pytest.fixture(scope="session", autouse=True)
def _write_results():
    yield
    if _disk_cache is not None:
        _disk_cache.save()
    if _results:
        existing = {}
        if RESULTS_PATH.exists():
            try:
                existing = json.loads(RESULTS_PATH.read_text())
            except json.JSONDecodeError:
                existing = {}
        existing.update(_results)
        RESULTS_PATH.write_text(json.dumps(existing, indent=2, default=str))
