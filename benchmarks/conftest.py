"""Session set-up of the paper-claim suite.

Before any claim is judged, the session simulates the union of every
experiment's points (:data:`repro.harness.experiments.EXPERIMENTS`)
once, in parallel, through :func:`~repro.harness.parallel.run_grid`
into the session's result cache. It then writes
``benchmarks/results.json`` straight from those points — one layout,
keyed by experiment, column and workload
(:func:`repro.harness.claims.results_document`) — which
``tools/generate_experiments.py`` renders into EXPERIMENTS.md.

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
from repro.harness.claims import results_document
from repro.harness.experiments import EXPERIMENTS
from repro.obs.ledger import config_fingerprint

RESULTS_PATH = pathlib.Path(__file__).parent / "results.json"
CACHE_PATH = pathlib.Path(__file__).parent / ".result_cache.json"

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
def results(tmp_path_factory):
    """The results document, as written to ``benchmarks/results.json``."""
    global _disk_cache
    if os.environ.get("REPRO_NO_DISK_CACHE") == "1":
        cache = DiskResultCache(
            tmp_path_factory.mktemp("cache") / "results.json",
            autosave=False)
    else:
        cache = _disk_cache = DiskResultCache(CACHE_PATH, autosave=False)
    _prefill(cache)
    cache.save()
    text = json.dumps(results_document(Runner(disk_cache=cache)), indent=2)
    RESULTS_PATH.write_text(text + "\n")
    return json.loads(text)


def pytest_terminal_summary(terminalreporter):
    if _disk_cache is not None:
        terminalreporter.write_line(_disk_cache.stats_line())
