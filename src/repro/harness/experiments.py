"""Every experiment of the evaluation, declared once as data.

:data:`EXPERIMENTS` holds the paper's figures and tables plus the
beyond-paper ablations and extensions. Each :class:`Experiment` names
its grid — machine variants crossed with thread points — its report
title and value kind, and the EXPERIMENTS.md section it regenerates.
Everything that runs an experiment derives its grid from that one
table: ``repro report`` (:func:`repro.obs.report.build_experiment`),
the benchmark suite's parallel prefill (``benchmarks/conftest.py``)
and the drivers below, which take a
:class:`~repro.harness.runner.Runner` plus a workload list and return
plain dictionaries keyed the way the paper's figures are organized.
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


def experiment_cycles(runner, name, workloads=None, threads=None):
    """Cycles of one declared experiment.

    Returns ``{column label: {workload_name: cycles}}``; ``workloads``
    defaults to the experiment's own slice.
    """
    from repro.workloads import by_name

    experiment = EXPERIMENTS[name]
    if workloads is None:
        workloads = [by_name(n) for n in experiment.workload_names()]
    return {label: {w.name: runner.run(
                        w, config, aligned=label in experiment.aligned).cycles
                    for w in workloads}
            for label, config in experiment.columns(threads)}


# ------------------------------------------------- Figures 3 & 4 (E1/E2)

def fetch_policy_study(runner, workloads, nthreads=DEFAULT_THREADS):
    """Cycles under TrueRR / MaskedRR / CSwitch, plus the base case.

    Returns ``{policy_label: {workload_name: cycles}}`` with an extra
    ``"BaseCase"`` series.
    """
    return experiment_cycles(runner, "fetch", workloads, (nthreads,))


# ------------------------------------------------- Figures 5 & 6 (E3/E4)

def thread_sweep(runner, workloads, threads=THREAD_RANGE):
    """Cycles for 1..6 threads (True RR, default hardware).

    Returns ``{nthreads: {workload_name: cycles}}``.
    """
    return {int(label[:-1]): cycles for label, cycles in
            experiment_cycles(runner, "threads", workloads, threads).items()}


# --------------------------------------- Figures 7 & 8, Table 2 (E5-E7)

def cache_study(runner, workloads, threads=THREAD_RANGE):
    """Direct-mapped vs set-associative cache across thread counts.

    Returns ``{assoc_label: {nthreads: {"cycles": {name: cycles},
    "hit_rates": {name: rate}}}}`` where ``assoc_label`` is ``"direct"``
    or ``"assoc"``.
    """
    out = {}
    for label, config in EXPERIMENTS["cache"].columns(threads):
        results = [runner.run(w, config) for w in workloads]
        out.setdefault(label.partition("/")[2], {})[config.nthreads] = {
            "cycles": {r.workload.name: r.cycles for r in results},
            "hit_rates": {r.workload.name: r.stats.cache_hit_rate
                          for r in results}}
    return out


# ------------------------------------------------ Figures 9 & 10 (E8/E9)

def su_depth_study(runner, workloads, depths=SU_DEPTHS,
                   threads=(1, DEFAULT_THREADS)):
    """Cycles for scheduling units of 32/64/128/256 entries.

    ``depths`` selects among :data:`SU_DEPTHS`. Returns ``{(nthreads,
    depth): {workload_name: cycles}}``.
    """
    if not set(depths) <= set(SU_DEPTHS):
        raise ValueError(f"SU depths are drawn from {SU_DEPTHS}")
    return {(config.nthreads, config.su_entries):
            {w.name: runner.run(w, config).cycles for w in workloads}
            for _, config in EXPERIMENTS["su"].columns(threads)
            if config.su_entries in depths}


# --------------------------------------- Figures 11 & 12 (E10/E11)

def fu_study(runner, workloads, threads=(1, DEFAULT_THREADS)):
    """Default vs enhanced functional-unit configurations.

    Returns ``{(nthreads, fu_label): {workload_name: cycles}}`` with
    ``fu_label`` in ``("default", "enhanced")``.
    """
    return {(config.nthreads, label.partition("/")[2]):
            {w.name: runner.run(w, config).cycles for w in workloads}
            for label, config in EXPERIMENTS["fu"].columns(threads)}


# ----------------------------------------------------- Table 3 (E12)

def fu_usage_study(runner, workloads, nthreads=DEFAULT_THREADS):
    """Average utilization of the enhanced configuration's extra units.

    Runs the ``enhanced`` column of the ``fu`` experiment. Returns
    ``{FuClass: [avg fraction per extra unit]}`` averaged over
    ``workloads`` (the paper averages over each benchmark group).
    """
    config = dict(EXPERIMENTS["fu"].columns((nthreads,)))[
        f"{nthreads}T/enhanced"]
    sums = {}
    for w in workloads:
        stats = runner.run(w, config).stats
        for cls, fractions in stats.extra_fu_usage(FU_DEFAULT).items():
            bucket = sums.setdefault(cls, [0.0] * len(fractions))
            for index, fraction in enumerate(fractions):
                bucket[index] += fraction
    count = len(workloads)
    return {cls: [total / count for total in totals]
            for cls, totals in sums.items()}


# -------------------------------------------- Figures 13 & 14 (E13/E14)

def commit_study(runner, workloads, nthreads=DEFAULT_THREADS):
    """Flexible Result Commit vs lowest-block-only commit.

    Returns ``{commit_label: {workload_name: cycles}}``.
    """
    return experiment_cycles(runner, "commit", workloads, (nthreads,))


# -------------------------------------------- Section 5.2 summary (E16)

def speedup(multi_cycles, single_cycles):
    """The paper's speedup formula: (Mt - St)/St on performances.

    Performance is 1/cycles, so this equals ``single/multi - 1``.
    """
    return single_cycles / multi_cycles - 1.0


def speedup_summary(runner, workloads, threads=THREAD_RANGE):
    """Peak improvement per benchmark and group averages.

    Returns ``{workload_name: {"peak": fraction, "best_threads": n,
    "per_thread": {n: fraction}}}``.
    """
    sweep = thread_sweep(runner, workloads,
                         threads=(1,) + tuple(n for n in threads if n != 1))
    out = {}
    for w in workloads:
        per_thread = {n: speedup(sweep[n][w.name], sweep[1][w.name])
                      for n in threads if n != 1}
        best_n = max(per_thread, key=per_thread.get)
        out[w.name] = {"peak": per_thread[best_n],
                       "best_threads": best_n,
                       "per_thread": per_thread}
    return out
