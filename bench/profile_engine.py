"""Deterministic engine cost proxy: cProfile over a fixed slice of points.

Usage (``PYTHONPATH`` must reach the program's ``src``)::

    python bench/profile_engine.py [WORKLOAD:THREADS ...]

Default slice: every paper workload at 1 and 4 threads on the default
machine. Each point's program is compiled and decoded before profiling
starts; only ``PipelineSim.run`` runs under the profiler, so the
numbers describe the engine alone. Prints one JSON object:

* ``calls_per_cycle`` — profiled Python calls (builtins included) per
  simulated cycle. The simulation is deterministic, so this repeats
  exactly from run to run and across hosts.
* ``shares`` — engine ``tottime`` grouped by pipeline stage
  (:data:`STAGES`), summing to 1. A builtin's time is charged to the
  stage of the function that called it.
"""

import cProfile
import json
import pstats
import sys

#: ``(stage, module path under repro/, function names or None for
#: every function in the module)``; the first matching row wins.
STAGES = (
    ("ff", "core/pipeline.py", {"_skip_inert_cycles", "_issue_horizon",
                                "_load_blocked", "_span_reason"}),
    ("ff", "core/fetch.py", {"fetch_horizon"}),
    ("ff", "core/execute.py", {"next_free"}),
    ("ff", "mem/storebuffer.py", {"next_drain_cycle"}),
    ("ff", "mem/cache.py", {"refill_horizon"}),
    ("loop", "core/pipeline.py", {"run", "step", "done", "_finalize_stats",
                                  "_hang_error", "_hang_report"}),
    ("commit", "core/pipeline.py", {"_commit", "_commit_block"}),
    ("writeback", "core/pipeline.py", {"_writeback", "_resolve_control"}),
    ("issue", "core/pipeline.py", {"_issue", "_issue_load", "_forward_value",
                                   "_schedule"}),
    ("decode", "core/pipeline.py", {"_decode", "_decode_blocked",
                                    "_scoreboard_hazard", "_rename_operands",
                                    "_prepare_control"}),
    ("fetch", "core/pipeline.py", {"_fetch", "_update_masks"}),
    ("fetch", "core/fetch.py", None),
    ("fetch", "core/branch.py", None),
    ("issue", "core/execute.py", None),
    ("issue", "isa/semantics.py", None),
    ("scheduler", "core/scheduler.py", None),
    ("mem", "mem/", None),
)

#: Every stage a share is reported for; ``other`` takes the rest.
STAGE_NAMES = ("fetch", "decode", "issue", "writeback", "commit", "ff",
               "loop", "scheduler", "mem", "other")

_THREADS = (1, 4)


def stage_of(filename, function):
    """Stage of the function ``function`` defined in ``filename``."""
    path = filename.replace("\\", "/")
    for stage, module, names in STAGES:
        if f"/repro/{module}" in path and (names is None
                                           or function in names):
            return stage
    return "other"


def _is_builtin(func):
    return func[0] == "~"


def group(stats):
    """``(calls, {stage: tottime})`` from a ``pstats.Stats``."""
    table = stats.stats
    calls = 0
    times = dict.fromkeys(STAGE_NAMES, 0.0)
    for func, (_, ncalls, tottime, _, callers) in table.items():
        calls += ncalls
        if not _is_builtin(func):
            times[stage_of(func[0], func[2])] += tottime
            continue
        for caller, caller_stats in callers.items():
            stage = ("other" if _is_builtin(caller)
                     else stage_of(caller[0], caller[2]))
            times[stage] += caller_stats[2]
    return calls, times


def profile(points):
    """Profile ``PipelineSim.run`` over ``points`` (name, threads)."""
    from repro.core import MachineConfig, PipelineSim
    from repro.harness.runner import decoded_program
    from repro.workloads import by_name

    profiler = cProfile.Profile()
    cycles = 0
    for name, nthreads in points:
        workload = by_name(name)
        program, _ = decoded_program(workload, nthreads)
        sim = PipelineSim(program, MachineConfig(nthreads=nthreads))
        profiler.enable()
        stats = sim.run()
        profiler.disable()
        checksum = sim.mem(workload.checksum_address(nthreads))
        if not workload.verify(checksum, nthreads):
            raise SystemExit(f"profile_engine: {name} at {nthreads} threads "
                             f"computed {checksum!r}, expected "
                             f"{workload.expected(nthreads)!r}")
        cycles += stats.cycles
    calls, times = group(pstats.Stats(profiler))
    total = sum(times.values()) or 1.0
    return {"cycles": cycles, "calls": calls,
            "calls_per_cycle": calls / cycles,
            "shares": {stage: times[stage] / total for stage in STAGE_NAMES}}


def main(argv):
    if argv:
        points = [(arg.split(":")[0], int(arg.split(":")[1])) for arg in argv]
    else:
        from repro.workloads import ALL_WORKLOADS
        points = [(w.name, n) for w in ALL_WORKLOADS for n in _THREADS]
    print(json.dumps(profile(points)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
