"""Deterministic fault injection for the experiment harness.

The evaluation is thousands of independent ``(workload, config)``
simulations fanned out over worker processes, and every infrastructure
failure mode — a worker that dies, a worker that wedges, a cache file
that rots on disk, a transient exception — must be *injectable* so the
recovery paths in :mod:`repro.harness.parallel` and
:mod:`repro.harness.diskcache` can be proven by tests instead of
trusted. This package provides those injectors.

Everything here is deterministic and seedable: a :class:`FaultPlan`
decides purely from ``(seed, job index, attempt)`` whether a fault
fires, so a failing fault-matrix test replays bit-identically. Plans
are plain picklable data and travel to worker processes inside the job
tuple; no global state, no environment variables.

:mod:`repro.faults.service` extends the same discipline across the
client/server boundary of the job service (:mod:`repro.service`):
slow clients, mid-stream disconnects, queue-overflow bursts, and
worker-pool loss between accept and execute, all seedable the same way.

See ``docs/ROBUSTNESS.md`` for the failure-mode catalogue,
``docs/SERVICE.md`` for the service failure modes, and
``tests/test_faults.py`` / ``tests/test_service.py`` for the matrices
that exercise every recovery path.
"""

from repro.faults.inject import (
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    corrupt_file,
    inflate_calls,
    perturb_cycles,
)
from repro.faults.service import ServiceFaultPlan

__all__ = [
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "InjectedHang",
    "ServiceFaultPlan",
    "corrupt_file",
    "inflate_calls",
    "perturb_cycles",
]
