"""The multithreaded superscalar pipeline simulator — the paper's contribution.

:class:`~repro.core.pipeline.PipelineSim` models the SDSP pipeline
extended for simultaneous multithreading: N program counters with a
configurable fetch policy, a shared scheduling unit (combined reorder
buffer + instruction window) with thread-ID fields, TID-qualified
register renaming, selective misprediction squash, Flexible Result
Commit, a shared data cache and store buffer, and a configurable
functional-unit pool.
"""

from repro.core.config import (
    CommitPolicy,
    FetchPolicy,
    FU_DEFAULT,
    FU_ENHANCED,
    FU_LATENCY,
    MachineConfig,
)
from repro.core.branch import BranchPredictor
from repro.core.pipeline import PipelineSim
from repro.core.stats import SimStats

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
