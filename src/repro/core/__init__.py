"""The multithreaded superscalar pipeline simulator — the paper's contribution.

:class:`~repro.core.pipeline.PipelineSim` models the SDSP pipeline
extended for simultaneous multithreading: N program counters with a
configurable fetch policy, a shared scheduling unit (combined reorder
buffer + instruction window) with thread-ID fields, TID-qualified
register renaming, selective misprediction squash, Flexible Result
Commit, a shared data cache and store buffer, and a configurable
functional-unit pool.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("CommitPolicy", "FetchPolicy", "FU_DEFAULT", "FU_ENHANCED",
               "FU_LATENCY", "MachineConfig"),
    "branch": ("BranchPredictor",),
    "pipeline": ("PipelineSim",),
    "stats": ("SimStats",),
})

__all__ = [
    "BranchPredictor",
    "CommitPolicy",
    "FetchPolicy",
    "FU_DEFAULT",
    "FU_ENHANCED",
    "FU_LATENCY",
    "MachineConfig",
    "PipelineSim",
    "SimStats",
]
