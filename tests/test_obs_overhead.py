"""The zero-overhead contract: observability costs nothing while off.

``repro check`` gates the plain engine's profiled calls per golden
case in CI; these tests pin the mechanism behind that number: an
uninstrumented run executes *zero* calls into the ``repro.obs``
package, and attaching the full observability load never moves a
simulated cycle.
"""

import os
import sys

from repro.core import MachineConfig, PipelineSim
from repro.workloads import by_name

OBS_FRAGMENT = os.sep + os.path.join("repro", "obs") + os.sep


def run(workload="LL2", nthreads=2, instrument=False, sink=None):
    program = by_name(workload).program(nthreads)
    sim = PipelineSim(program, MachineConfig(nthreads=nthreads))
    if instrument:
        sim.attach_attribution()
        sim.attach_metrics()
    if sink is not None:
        sim.add_sink(sink)
    return sim, sim.run()


def test_uninstrumented_run_never_calls_into_obs():
    program = by_name("LL2").program(1)
    sim = PipelineSim(program, MachineConfig(nthreads=1))
    assert sim._bus is None
    obs_calls = []

    def profiler(frame, event, arg):
        if event == "call" and OBS_FRAGMENT in frame.f_code.co_filename:
            obs_calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert obs_calls == []
    assert sim._bus is None


def test_instrumented_cycles_identical():
    __, plain = run()
    events = []
    __, loaded = run(instrument=True, sink=events.append)
    assert loaded.cycles == plain.cycles
    assert loaded.committed == plain.committed
    assert loaded.su_stall_cycles == plain.su_stall_cycles
    assert events  # the sink really was live


def test_sink_free_grid_never_calls_into_obs():
    """The sweep-telemetry hooks honour the same contract: run_grid
    with no telemetry/progress attached (and no ledger, whose append
    path legitimately builds records in ``repro.obs.ledger``) executes
    zero calls into the ``repro.obs`` package."""
    from repro.harness import run_grid

    jobs = [(by_name("LL11"), MachineConfig(nthreads=1))]
    obs_calls = []

    def profiler(frame, event, arg):
        if event == "call" and OBS_FRAGMENT in frame.f_code.co_filename:
            obs_calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        results = run_grid(jobs, workers=1)
    finally:
        sys.setprofile(None)
    assert obs_calls == []
    assert results[0].ok


RUNTIME_FRAGMENT = os.sep + os.path.join("repro", "obs", "runtime.py")


def test_metrics_free_grid_never_touches_runtime_metrics():
    """PR-9 extends the contract to the service metrics layer: a
    ``run_grid`` call — even one with sweep telemetry attached, which
    legitimately enters ``repro.obs.telemetry`` — executes zero calls
    into ``repro.obs.runtime``."""
    from repro.harness import run_grid
    from repro.obs.telemetry import SweepTelemetry
    from repro.workloads import by_name
    from repro.core import MachineConfig
    import repro.obs.runtime  # noqa: F401 — imported so frames are attributable

    telemetry = SweepTelemetry(sinks=[lambda event: None])
    jobs = [(by_name("LL11"), MachineConfig(nthreads=1))]
    runtime_calls = []

    def profiler(frame, event, arg):
        if event == "call" and \
                frame.f_code.co_filename.endswith(RUNTIME_FRAGMENT):
            runtime_calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        results = run_grid(jobs, workers=1, telemetry=telemetry)
    finally:
        sys.setprofile(None)
    assert runtime_calls == []
    assert results[0].ok


def test_metrics_free_service_hot_path_never_touches_runtime_metrics():
    """A ``JobService`` started without a metrics registry submits,
    dispatches, and completes jobs without a single call into
    ``repro.obs.runtime`` — every instrumentation site is a bare
    ``is None`` predicate. The dispatcher runs on its own thread, so
    the profiler must be installed process-wide *before* the first
    submit (which lazily starts that thread)."""
    import threading

    from repro.service import JobService
    import repro.obs.runtime  # noqa: F401

    runtime_calls = []

    def profiler(frame, event, arg):
        if event == "call" and \
                frame.f_code.co_filename.endswith(RUNTIME_FRAGMENT):
            runtime_calls.append(frame.f_code.co_name)

    threading.setprofile(profiler)   # dispatcher + executor threads
    sys.setprofile(profiler)         # this thread
    try:
        service = JobService(workers=1)
        assert service.metrics is None
        status, doc, _ = service.submit(
            {"workload": "LL11", "config": {"nthreads": 1}})
        assert status == 202
        entry = service.registry.get(doc["job_id"])
        assert entry.wait(120)
        service.drain()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert entry.state == "done"
    assert runtime_calls == []


def test_removing_sinks_restores_the_disabled_path():
    program = by_name("LL2").program(1)
    sim = PipelineSim(program, MachineConfig(nthreads=1))
    first, second = [], []
    sim.add_sink(first.append)
    sim.add_sink(second.append)
    sim.remove_sink(first.append)
    # remove_sink with one sink left keeps the bus...
    assert sim._bus is not None
    sim.remove_sink(second.append)
    # ...and dropping the last one kills it.
    assert sim._bus is None
