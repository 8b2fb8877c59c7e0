"""Experiment harness: drivers that regenerate every table and figure.

Each function in :mod:`repro.harness.experiments` corresponds to one
section of the paper's evaluation and returns plain data structures;
:mod:`repro.harness.tables` renders them as the tables/series the paper
reports. Runs are memoized per (workload, configuration) so experiments
that share a configuration (e.g. the single-threaded base case) reuse
results.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "runner": ("Runner", "RunResult"),
    "diskcache": ("CacheCorruptionWarning", "DiskResultCache"),
    "parallel": ("GridError", "GridInterrupted", "JobFailure", "cross",
                 "default_workers", "run_grid"),
    "experiments": ("cache_study", "commit_study", "fetch_policy_study",
                    "fu_study", "fu_usage_study", "speedup_summary",
                    "su_depth_study", "thread_sweep"),
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
