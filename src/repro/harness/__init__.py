"""Experiment harness: declared experiments, drivers, runner and tables.

:mod:`repro.harness.experiments` declares every experiment once, as
data — the paper's Figures 3-14, Tables 2-3 and Section 5.2 summary,
plus the beyond-paper ablations — and its drivers return plain data
structures keyed the way the paper's figures are organized;
:mod:`repro.harness.tables` renders them as the tables/series the paper
reports. Runs are memoized per (workload, configuration) so experiments
that share a configuration (e.g. the single-threaded base case) reuse
results, and :func:`run_grid` simulates a whole grid in parallel.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "runner": ("Runner", "RunResult"),
    "diskcache": ("CacheCorruptionWarning", "DiskResultCache"),
    "parallel": ("GridError", "GridInterrupted", "JobFailure", "cross",
                 "default_workers", "run_grid"),
    "experiments": ("cache_study", "commit_study", "experiment_cycles",
                    "fetch_policy_study", "fu_study", "fu_usage_study",
                    "speedup_summary", "su_depth_study", "thread_sweep"),
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
    "cache_study",
    "commit_study",
    "cross",
    "default_workers",
    "experiment_cycles",
    "fetch_policy_study",
    "format_table",
    "fu_study",
    "fu_usage_study",
    "run_grid",
    "series_table",
    "speedup_summary",
    "su_depth_study",
    "thread_sweep",
]
