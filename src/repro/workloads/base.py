"""Workload abstraction shared by tests, examples, and the harness."""

from repro.asm.errors import AsmError
from repro.lang.errors import CompileError


class Workload:
    """One benchmark: MiniC source plus a pure-Python mirror.

    Parameters
    ----------
    name:
        Benchmark name as the paper uses it (e.g. ``"LL7"``, ``"Water"``).
    group:
        1 for the Livermore loops, 2 for the application benchmarks.
    source:
        MiniC source text. The program must leave its result in the
        global ``checksum`` (float) after a final barrier.
    mirror:
        ``mirror(nthreads) -> float`` computing the expected checksum by
        replaying the same arithmetic (and reduction order) in Python.
    tolerance:
        Allowed absolute checksum error (0 for integer checksums).
    """

    def __init__(self, name, group, source, mirror, tolerance=1e-9):
        self.name = name
        self.group = group
        self.source = source
        self.mirror = mirror
        self.tolerance = tolerance
        self._programs = {}

    def program(self, nthreads, aligned=False):
        """Program compiled for an N-way register partition (cached).

        ``aligned`` applies the branch-target alignment optimization
        (paper Section 6.1, improvement 2). A build error is re-raised
        as the same type with the workload and thread count prepended.
        """
        key = (nthreads, aligned)
        if key not in self._programs:
            # Imported at the first miss: a process that only replays
            # cached results never loads the compiler.
            from repro.lang.compiler import compile_source
            try:
                self._programs[key] = compile_source(
                    self.source, nthreads=nthreads,
                    align_branch_targets=aligned)
            except (CompileError, AsmError) as error:
                raise type(error)(f"{self.name} does not compile for "
                                  f"{nthreads} threads: {error}") from error
        return self._programs[key]

    def expected(self, nthreads):
        """The mirror's checksum for an N-thread run."""
        return self.mirror(nthreads)

    def checksum_address(self, nthreads):
        """Word address of the ``checksum`` global."""
        return self.program(nthreads).symbol("g_checksum")

    def verify(self, value, nthreads):
        """True when ``value`` matches the mirror within tolerance."""
        return abs(value - self.expected(nthreads)) <= self.tolerance

    def __repr__(self):
        return f"Workload({self.name}, group {self.group})"


def cyclic(start, stop, tid, nthreads):
    """Python mirror of the MiniC cyclic loop ``for (i = start + tid(); ...)``."""
    return range(start + tid, stop, nthreads)
