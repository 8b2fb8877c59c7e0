"""Every experiment of the evaluation, declared once as data.

:data:`EXPERIMENTS` holds the paper's figures and tables plus the
beyond-paper ablations and extensions. Each :class:`Experiment` names
its grid — machine variants crossed with thread points — its report
title and value kind, and the EXPERIMENTS.md section it regenerates.
Everything that runs an experiment derives its grid from that one
table: ``repro report`` (:func:`repro.obs.report.build_experiment`),
the benchmark suite's parallel prefill (``benchmarks/conftest.py``)
and :func:`experiment_results`, which reads one experiment's runs
through a :class:`~repro.harness.runner.Runner`. The paper's claims
about these experiments are declared in :mod:`repro.harness.claims`.
"""

from repro.core.config import (FU_DEFAULT, FU_ENHANCED, CommitPolicy,
                               FetchPolicy, MachineConfig)
from repro.mem.cache import CacheConfig

DEFAULT_THREADS = 4
THREAD_RANGE = (1, 2, 3, 4, 5, 6)
SU_DEPTHS = (32, 64, 128, 256)

#: The workload slice every ablation runs on.
ABLATION_WORKLOADS = ("LL1", "LL7", "Water", "Laplace")


class Experiment:
    """One experiment grid.

    ``variants`` are ``(label, MachineConfig overrides)`` pairs; every
    point of ``threads`` crosses them into the grid's columns. An
    ``nthreads`` override pins a variant's thread count (the fetch
    study's single-threaded base case). An experiment declared at one
    thread point studies one machine size: its columns carry the bare
    variant label, and it accepts exactly one thread count. Columns
    named in ``aligned`` compile with branch-target alignment, which
    ledger records do not key on, so ``repro report`` leaves such an
    experiment out. ``workloads`` is a name slice (``None``: all eleven
    paper benchmarks).
    """

    def __init__(self, name, section, title, kind, threads, variants,
                 workloads=None, aligned=()):
        self.name = name
        self.section = section
        self.title = title
        self.kind = kind
        self.threads = threads
        self.variants = variants
        self.workloads = workloads
        self.aligned = aligned

    def columns(self, threads=None):
        """``[(label, MachineConfig)]`` in table order, thread-major."""
        threads = tuple(threads or self.threads)
        single = len(self.threads) == 1
        if single and len(threads) != 1:
            raise ValueError(
                f"experiment {self.name!r} runs one machine size; give "
                f"one thread count, not {len(threads)}")
        out = []
        for n in threads:
            for label, overrides in self.variants:
                if not single:
                    label = f"{n}T/{label}" if label else f"{n}T"
                out.append((label,
                            MachineConfig(**{"nthreads": n, **overrides})))
        return out

    def workload_names(self):
        from repro.workloads import ALL_WORKLOADS

        return self.workloads or tuple(w.name for w in ALL_WORKLOADS)


def _sweep(field, values, label="{}"):
    return tuple((label.format(value), {field: value}) for value in values)


def _ablation(name, title, variants):
    return Experiment(name, "beyond-paper ablations and extensions",
                      title + " ({n} threads, cycles)", "cycles",
                      (DEFAULT_THREADS,), variants, ABLATION_WORKLOADS)


_EXPERIMENTS = (
    # Figures 3-4 (E1/E2)
    Experiment("fetch", "Figures 3-4, fetch policies",
               "fetch-policy comparison ({n} threads, cycles)", "cycles",
               (DEFAULT_THREADS,),
               (("TrueRR", {"fetch_policy": FetchPolicy.TRUE_RR}),
                ("MaskedRR", {"fetch_policy": FetchPolicy.MASKED_RR}),
                ("CSwitch", {"fetch_policy": FetchPolicy.COND_SWITCH}),
                ("BaseCase", {"nthreads": 1}))),
    # Figures 5-6 (E3/E4) and the Section 5.2 summary (E16)
    Experiment("threads", "Figures 5-6, cycles/IPC vs number of threads",
               "IPC vs thread count", "ipc", THREAD_RANGE, (("", {}),)),
    # Figures 7-8 and Table 2 (E5-E7); thread points trimmed from the
    # paper's 1-6, the trend is unchanged
    Experiment("cache", "Figures 7-8 and Table 2, cache study",
               "direct-mapped vs associative cache (cycles)", "cycles",
               (1, 2, 4, 6),
               (("direct", {"cache": CacheConfig(assoc=1)}),
                ("assoc", {"cache": CacheConfig(assoc=4)}))),
    # Figures 9-10 (E8/E9)
    Experiment("su", "Figures 9-10, scheduling-unit depth",
               "scheduling-unit depth sweep (cycles)", "cycles",
               (1, DEFAULT_THREADS),
               _sweep("su_entries", SU_DEPTHS, "su{}")),
    # Figures 11-12 and Table 3 (E10-E12)
    Experiment("fu", "Figures 11-12 and Table 3, functional units",
               "default vs enhanced functional units (cycles)", "cycles",
               (1, DEFAULT_THREADS),
               (("default", {"fu_counts": FU_DEFAULT}),
                ("enhanced", {"fu_counts": FU_ENHANCED}))),
    # Figures 13-14 (E13/E14)
    Experiment("commit", "Figures 13-14, Flexible Result Commit",
               "multiple- vs lowest-block commit ({n} threads, cycles)",
               "cycles", (DEFAULT_THREADS,),
               (("Multiple", {"commit_policy": CommitPolicy.FLEXIBLE}),
                ("Lowest", {"commit_policy": CommitPolicy.LOWEST_ONLY}))),
    # Beyond the paper (DESIGN.md Section 6)
    _ablation("commit_depth", "flexible-commit window depth",
              _sweep("commit_blocks", (1, 2, 4, 8))),
    _ablation("predictor", "shared vs per-thread predictor/BTB",
              (("shared", {"shared_predictor": True}),
               ("private", {"shared_predictor": False}))),
    _ablation("store_buffer", "store-buffer depth",
              _sweep("store_buffer_depth", (4, 8, 16))),
    _ablation("cache_ports", "cache ports",
              tuple((str(ports), {"cache": CacheConfig(ports=ports)})
                    for ports in (1, 2, 4))),
    _ablation("masked_criterion", "Masked-RR masking criterion",
              tuple((criterion, {"fetch_policy": FetchPolicy.MASKED_RR,
                                 "masked_criterion": criterion})
                    for criterion in ("commit_stall", "long_latency"))),
    _ablation("icache", "instruction cache (the paper assumes perfect)",
              (("perfect", {}),)
              + tuple((f"{size}B", {"icache": CacheConfig(size_bytes=size)})
                      for size in (512, 2048))),
    Experiment("icount", "beyond-paper ablations and extensions",
               "ICOUNT vs True RR ({n} threads, cycles)", "cycles",
               (DEFAULT_THREADS,),
               tuple((policy.value, {"fetch_policy": policy})
                     for policy in (FetchPolicy.TRUE_RR,
                                    FetchPolicy.ICOUNT))),
    Experiment("alignment", "beyond-paper ablations and extensions",
               "branch-target alignment ({n} threads, cycles)", "cycles",
               (DEFAULT_THREADS,), (("plain", {}), ("aligned", {})),
               aligned=("aligned",)),
)

#: Experiment name -> declaration, in the paper's order.
EXPERIMENTS = {experiment.name: experiment for experiment in _EXPERIMENTS}

#: What ``repro report --experiment`` accepts.
REPORT_EXPERIMENTS = tuple(name for name, experiment in EXPERIMENTS.items()
                           if not experiment.aligned)


def experiment_results(runner, name, workloads=None, threads=None):
    """Runs of one declared experiment.

    Returns ``{column label: {workload_name: RunResult}}``, so cycles,
    hit rates and functional-unit usage are all reachable;
    ``workloads`` defaults to the experiment's own slice.
    """
    from repro.workloads import by_name

    experiment = EXPERIMENTS[name]
    if workloads is None:
        workloads = [by_name(n) for n in experiment.workload_names()]
    return {label: {w.name: runner.run(
                        w, config, aligned=label in experiment.aligned)
                    for w in workloads}
            for label, config in experiment.columns(threads)}


def speedup(multi_cycles, single_cycles):
    """The paper's speedup formula: (Mt - St)/St on performances.

    Performance is 1/cycles, so this equals ``single/multi - 1``.
    """
    return single_cycles / multi_cycles - 1.0
