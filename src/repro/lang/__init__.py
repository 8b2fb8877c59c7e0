"""MiniC: the C-subset compiler used to build the benchmark programs.

The paper compiles its eleven C benchmarks with an SDSP compiler that
was "modified to produce code for a register set of different sizes" so
the 128 registers can be statically partitioned among N threads. MiniC
reproduces that: :func:`compile_source` takes the number of registers
available to each thread and emits a complete program (runtime + user
code) targeting exactly that many registers.

Language summary::

    int n = 64;              // global scalars (int/float), with initializers
    float a[64];             // global 1-D arrays
    int fib(int k) { ... }   // functions with parameters and return values

    void main() {            // every thread executes main()
        int i;
        for (i = tid(); i < n; i = i + nthreads()) {
            a[i] = a[i] * 2.0;
        }
        barrier();
    }

Intrinsics: ``tid()``, ``nthreads()``, ``barrier()``, ``lock(g)``,
``unlock(g)`` (``g`` a global int scalar). The parallel-programming
model is the paper's *homogeneous multitasking*: all threads run the
same code on different data.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "compiler": ("compile_source", "compile_to_asm"),
    "errors": ("CompileError",),
})

__all__ = ["CompileError", "compile_source", "compile_to_asm"]
