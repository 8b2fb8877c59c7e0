"""Architectural (functional) reference simulator.

Executes programs instruction-at-a-time with round-robin thread
interleaving. It has no notion of pipelines or caches; it defines the
*architectural* meaning of a program and serves as the correctness
oracle for the cycle-accurate pipeline simulator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "machine": ("FunctionalSim", "SimFault", "ThreadState"),
})

__all__ = ["FunctionalSim", "SimFault", "ThreadState"]
