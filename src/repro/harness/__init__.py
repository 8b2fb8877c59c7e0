"""Experiment harness: declared experiments, runner and tables.

:mod:`repro.harness.experiments` declares every experiment once, as
data — the paper's Figures 3-14, Tables 2-3 and Section 5.2 summary,
plus the beyond-paper ablations — and :func:`experiment_results` reads
one experiment's runs; :mod:`repro.harness.claims` declares what the
paper says about them; :mod:`repro.harness.tables` renders tables and
series the way the paper reports them. Runs are memoized per
(workload, configuration) so experiments that share a configuration
(e.g. the single-threaded base case) reuse results, and
:func:`run_grid` simulates a whole grid in parallel.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "runner": ("Runner", "RunResult"),
    "diskcache": ("CacheCorruptionWarning", "DiskResultCache"),
    "parallel": ("GridError", "GridInterrupted", "JobFailure", "cross",
                 "default_workers", "run_grid"),
    "experiments": ("experiment_results",),
    "tables": ("format_table", "series_table"),
})

__all__ = [
    "CacheCorruptionWarning",
    "DiskResultCache",
    "GridError",
    "GridInterrupted",
    "JobFailure",
    "RunResult",
    "Runner",
    "cross",
    "default_workers",
    "experiment_results",
    "format_table",
    "run_grid",
    "series_table",
]
