"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``asm FILE``
    Assemble an ``.s`` file and print a listing (address, word, text).
``cc FILE``
    Compile a MiniC file; print the generated assembly.
``run FILE``
    Assemble/compile (by extension) and simulate, printing run statistics.
``bench NAME``
    Run one of the paper's workloads by name and verify its checksum.
``workloads``
    List the available workloads.
``trace PROG``
    Simulate with the event bus attached and export the trace:
    ``--format perfetto`` (open in https://ui.perfetto.dev), ``jsonl``
    (one event per line), or ``text``. ``PROG`` is a file or a
    workload name.
``stats PROG``
    Simulate and print run statistics; ``--breakdown`` adds the
    per-cycle stall-attribution table (see docs/OBSERVABILITY.md);
    ``--json`` dumps the full machine-readable record (stats counters,
    attribution, metrics summaries) in the ledger's serialization.
``diff RUNA RUNB``
    Compare two ledger records (``last``, ``last~N``, or a run-id
    prefix): per-counter deltas plus the attribution waterfall.
``check --baseline tests/data/golden_cycles.json``
    Engine gate: run every fixture case and fail unless its simulated
    counts and checksum are bit-identical to the pins and its profiled
    calls are at most 30% above the pinned count (``--update``
    re-pins).
``report --experiment NAME``
    Re-run one experiment grid declared in ``repro.harness.experiments``
    (the paper's Figures 3-14 and the beyond-paper ablations; ``--help``
    lists the names) through the ledger and render the corresponding
    EXPERIMENTS.md table from ledger data (``--csv`` writes a
    machine-readable copy). ``--live`` shows a one-line progress
    view, ``--events``/``--trace`` record the sweep's telemetry as a
    JSONL event log and a Perfetto timeline, and ``--sweep ID``
    renders a *finished* sweep's table without re-simulating.
``sweep LOG``
    Summarize a finished sweep from its JSONL event log (see
    ``--events``): lifecycle accounting, cache counters,
    ``--waterfall`` per-job timelines, and failure forensics.
    Exits 1 if the accounting invariant is violated (a job without
    exactly one queued + one terminal event).
``serve``
    Run the HTTP simulation job service (see docs/SERVICE.md):
    content-addressed dedup of concurrent submissions, admission
    control with 429 + ``Retry-After``, per-job lifecycle-event
    streaming, graceful drain on SIGTERM/SIGINT. ``--events`` records
    the server-lifetime event stream for a ``repro sweep`` audit.
``submit WORKLOAD``
    Submit one job to a running ``repro serve`` and (by default) follow
    it to its terminal state, with exponential-backoff retries and
    idempotent resubmission; prints the final job document as JSON.

``run``, ``bench``, ``check``, and ``report`` append durable records
to the run ledger (``~/.cache/repro-sdsp/ledger.jsonl``, overridden by
``REPRO_LEDGER`` or ``--ledger``; disabled by ``--no-ledger``).
``--sweep-id`` stamps appended records as one sweep; ``repro diff``
and ``repro report`` scope to a recorded sweep with ``--sweep``.
"""

import argparse
import json
import os
import sys
import time

# Only what building the parser needs is imported here; each command
# imports the rest (the compiler, the engine, the pool) when it runs,
# so ``repro report`` on a warm cache never loads them.
from repro.core.config import CommitPolicy, FetchPolicy
from repro.harness.experiments import REPORT_EXPERIMENTS
from repro.workloads import ALL_WORKLOADS, BY_NAME

_MINIC_SUFFIXES = (".mc", ".c", ".minic")


class CliError(Exception):
    """A user-input error: printed as one line, exit status 2.

    Raised instead of letting a raw ``KeyError``/``ValueError``
    traceback escape for unknown workload names, missing files, and
    invalid machine configurations.
    """


def _workload_choices():
    return ", ".join(sorted(BY_NAME))


def _machine_args(parser):
    parser.add_argument("--threads", type=int, default=1,
                        help="number of resident threads (default 1)")
    parser.add_argument("--policy", default="true_rr",
                        choices=[p.value for p in FetchPolicy],
                        help="fetch policy")
    parser.add_argument("--commit", default="flexible",
                        choices=[p.value for p in CommitPolicy],
                        help="result-commit policy")
    parser.add_argument("--su", type=int, default=64,
                        help="scheduling-unit entries")
    parser.add_argument("--cache-kb", type=float, default=2.0,
                        help="data-cache size in KB")
    parser.add_argument("--cache-assoc", type=int, default=4,
                        help="cache associativity (1 = direct-mapped)")
    parser.add_argument("--store-buffer", type=int, default=8,
                        help="store-buffer entries")
    parser.add_argument("--enhanced-fus", action="store_true",
                        help="use the enhanced functional-unit mix")
    parser.add_argument("--max-cycles", type=int, default=20_000_000)


def _ledger_args(parser):
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="run-ledger file (default: REPRO_LEDGER or "
                             "~/.cache/repro-sdsp/ledger.jsonl)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append records to the run ledger")
    parser.add_argument("--sweep-id", default=None, metavar="ID",
                        help="stamp appended ledger records with this "
                             "sweep id (see 'repro sweep' and "
                             "report/diff --sweep)")


def _ledger_append(args, *, source, workload, config, stats, program=None,
                   checksum=None, verified=None, wall_seconds=None,
                   sweep_id=None):
    """Append one record to the run ledger; never fails the command."""
    if getattr(args, "no_ledger", False):
        return
    from repro.harness.runner import program_hash
    from repro.obs import ledger as ledger_mod

    if sweep_id is None:
        sweep_id = getattr(args, "sweep_id", None)
    record = ledger_mod.make_record(
        source=source, workload=workload, config=config, stats=stats,
        timestamp=ledger_mod.utc_now_iso(),
        program_hash=program_hash(program) if program is not None else None,
        checksum=checksum, verified=verified, wall_seconds=wall_seconds,
        aligned=getattr(args, "align", False), sweep_id=sweep_id)
    try:
        ledger_mod.RunLedger(args.ledger).append(record)
    except OSError as error:
        print(f"repro: warning: could not append to run ledger: {error}",
              file=sys.stderr)


def _open_telemetry(args):
    """Build a sweep-telemetry hub from ``--live/--events/--trace``.

    Returns ``(telemetry, finish)``: ``telemetry`` is ``None`` when no
    flag asked for one (so commands stay on their zero-overhead path),
    and ``finish()`` flushes the file-backed sinks — the JSONL event
    log and the Perfetto sweep trace — after the sweep ends.
    """
    live = getattr(args, "live", False)
    events_path = getattr(args, "events", None)
    trace_path = getattr(args, "trace", None)
    if not live and not events_path and not trace_path:
        return None, lambda: None
    from repro.obs.export import JsonlSink, SweepTraceCollector
    from repro.obs.telemetry import LiveProgress, SweepTelemetry

    telemetry = SweepTelemetry(sweep_id=getattr(args, "sweep_id", None))
    handle = None
    collector = None
    if live:
        telemetry.subscribe(LiveProgress())
    if events_path:
        handle = open(events_path, "w")
        telemetry.subscribe(JsonlSink(handle))
    if trace_path:
        collector = SweepTraceCollector()
        telemetry.subscribe(collector)

    def finish():
        if handle is not None:
            handle.close()
            print(f"sweep events -> {events_path} "
                  f"(sweep {telemetry.sweep_id}; inspect with "
                  f"'repro sweep {events_path}')", file=sys.stderr)
        if collector is not None:
            with open(trace_path, "w") as out:
                collector.write(out)
            print(f"sweep trace -> {trace_path} (perfetto)",
                  file=sys.stderr)

    return telemetry, finish


def _machine_config(args):
    from repro.core.config import FU_DEFAULT, FU_ENHANCED, MachineConfig
    from repro.mem.cache import CacheConfig
    try:
        cache = CacheConfig(size_bytes=int(args.cache_kb * 1024),
                            assoc=args.cache_assoc)
        return MachineConfig(
            nthreads=args.threads,
            fetch_policy=args.policy,
            commit_policy=args.commit,
            su_entries=args.su,
            store_buffer_depth=args.store_buffer,
            fu_counts=FU_ENHANCED if args.enhanced_fus else FU_DEFAULT,
            cache=cache,
            max_cycles=args.max_cycles,
        ).validate()
    except ValueError as error:
        raise CliError(f"invalid configuration: {error}") from error


def _load_program(path, nthreads, align):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as error:
        raise CliError(
            f"cannot read {path!r}: {error.strerror or error}") from error
    if any(path.endswith(suffix) for suffix in _MINIC_SUFFIXES):
        from repro.lang.compiler import compile_source
        return compile_source(source, nthreads=nthreads,
                              align_branch_targets=align)
    from repro.asm.assembler import assemble
    return assemble(source, align_targets=align)


def cmd_asm(args):
    from repro.asm.disassembler import disassemble
    program = _load_program(args.file, 1, args.align)
    listing = disassemble(program)
    words = program.words
    for line, word in zip(listing.splitlines(), words):
        print(f"{word:08x}  {line}")
    print(f"# {len(program)} instructions, {len(program.data)} data words, "
          f"entry pc={program.entry}", file=sys.stderr)
    return 0


def cmd_cc(args):
    from repro.lang.compiler import compile_to_asm
    with open(args.file) as handle:
        source = handle.read()
    print(compile_to_asm(source, nthreads=args.threads))
    return 0


def cmd_run(args):
    config = _machine_config(args)  # validate flags before compiling
    program = _load_program(args.file, args.threads, args.align)
    if args.functional:
        from repro.funcsim.machine import FunctionalSim
        sim = FunctionalSim(program, nthreads=args.threads)
        sim.run(max_steps=args.max_cycles)
        print(f"functional run complete: {sim.steps} instructions")
        for thread in sim.threads:
            print(f"  thread {thread.tid}: {thread.retired} retired")
        return 0
    from repro.core.pipeline import PipelineSim
    sim = PipelineSim(program, config)
    telemetry, finish = _open_telemetry(args)
    beat_stop = beat_thread = None
    if telemetry is not None:
        # Degenerate one-job sweep: the same lifecycle events a grid
        # emits, with heartbeats carrying the live simulated cycle.
        import threading
        telemetry.sweep_start(total=1, workers=1)
        telemetry.job_queued(0, args.file)
        telemetry.job_started(0, args.file, 1)
        beat_stop = threading.Event()

        def _beat():
            while not beat_stop.wait(telemetry.heartbeat):
                telemetry.maybe_heartbeat(running=1, queued=0,
                                          cycle=sim.cycle)

        beat_thread = threading.Thread(target=_beat, daemon=True)
        beat_thread.start()
    start = time.perf_counter()
    try:
        stats = sim.run()
    finally:
        if beat_stop is not None:
            beat_stop.set()
            beat_thread.join(timeout=2.0)
    wall = time.perf_counter() - start
    if telemetry is not None:
        telemetry.job_done(0, args.file, cycles=stats.cycles,
                           wall_seconds=wall)
        telemetry.sweep_end()
        finish()
    print(stats.summary())
    _ledger_append(args, source="cli.run", workload=args.file, config=config,
                   stats=stats, program=program, wall_seconds=wall,
                   sweep_id=telemetry.sweep_id if telemetry else None)
    return 0


def _resolve_program(name_or_path, nthreads, align):
    """A workload name (``repro workloads``) or a source-file path."""
    workload = BY_NAME.get(name_or_path)
    if workload is not None:
        return workload.program(nthreads)
    if not any(name_or_path.endswith(s)
               for s in (".s",) + _MINIC_SUFFIXES) \
            and not os.path.exists(name_or_path):
        raise CliError(f"unknown workload {name_or_path!r}; valid "
                       f"workloads: {_workload_choices()}")
    return _load_program(name_or_path, nthreads, align)


def cmd_trace(args):
    from repro.core.pipeline import PipelineSim
    config = _machine_config(args)
    program = _resolve_program(args.prog, args.threads, args.align)
    sim = PipelineSim(program, config)
    out = args.out
    if args.format == "perfetto":
        from repro.obs.export import PerfettoCollector
        collector = PerfettoCollector(config)
        sim.add_sink(collector)
        stats = sim.run()
        with open(out, "w") as stream:
            collector.write(stream, stats.cycles)
        count = collector.count
    else:
        from repro.obs.export import JsonlSink, TextSink
        with open(out, "w") as stream:
            sink_cls = JsonlSink if args.format == "jsonl" else TextSink
            sink = sink_cls(stream)
            sim.add_sink(sink)
            stats = sim.run()
            count = sink.count
    print(f"{stats.cycles} cycles, {stats.committed} instructions; "
          f"{count} events -> {out} ({args.format})", file=sys.stderr)
    return 0


def cmd_stats(args):
    from repro.core.pipeline import PipelineSim
    config = _machine_config(args)
    program = _resolve_program(args.prog, args.threads, args.align)
    sim = PipelineSim(program, config)
    if args.breakdown or args.json:
        attr = sim.attach_attribution()
        sim.attach_metrics()
    start = time.perf_counter()
    stats = sim.run()
    wall = time.perf_counter() - start
    if args.breakdown or args.json:
        attr.verify(stats)
    if args.json:
        # One serialization path for everything machine-readable: the
        # ledger's record shape (full histograms included here).
        from repro.harness.runner import program_hash
        from repro.obs import ledger as ledger_mod
        record = ledger_mod.make_record(
            source="cli.stats", workload=args.prog, config=config,
            stats=stats, timestamp=ledger_mod.utc_now_iso(),
            program_hash=program_hash(program), wall_seconds=wall,
            aligned=args.align, keep_interval_metrics=True)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    print(stats.summary())
    if args.breakdown:
        from repro.obs.attribution import format_breakdown
        print()
        print(format_breakdown(stats.stall_breakdown, stats.cycles))
    return 0


def _bench_grid(args, workload, config, telemetry, finish):
    """``repro bench --live``: a one-job sweep through ``run_grid`` so
    the progress line / event log come from the exact telemetry hooks
    every grid sweep uses (``verify=False``: a checksum mismatch is
    reported as MISMATCH + exit 1, not an exception)."""
    from repro.harness.parallel import run_grid

    try:
        results = run_grid([(workload, config)], workers=1, verify=False,
                           telemetry=telemetry)
    finally:
        finish()
    result = results[0]
    if not result.ok:
        raise CliError(f"{workload.name}: {result.kind} after "
                       f"{result.attempts} attempt(s): {result.message}")
    ok = result.verified
    print(result.stats.summary())
    verdict = ("verified" if ok
               else f"MISMATCH vs {workload.expected(args.threads)!r}")
    print(f"checksum:            {result.checksum!r} ({verdict})")
    _ledger_append(args, source="cli.bench", workload=workload.name,
                   config=config, stats=result.stats,
                   program=workload.program(args.threads),
                   checksum=result.checksum, verified=ok,
                   wall_seconds=result.wall_seconds,
                   sweep_id=telemetry.sweep_id)
    return 0 if ok else 1


def cmd_bench(args):
    workload = BY_NAME.get(args.name)
    if workload is None:
        raise CliError(f"unknown workload {args.name!r}; valid "
                       f"workloads: {_workload_choices()}")
    config = _machine_config(args)
    telemetry, finish = _open_telemetry(args)
    if telemetry is not None:
        return _bench_grid(args, workload, config, telemetry, finish)
    from repro.core.pipeline import PipelineSim
    program = workload.program(args.threads)
    sim = PipelineSim(program, config)
    start = time.perf_counter()
    stats = sim.run()
    wall = time.perf_counter() - start
    checksum = sim.mem(workload.checksum_address(args.threads))
    ok = workload.verify(checksum, args.threads)
    print(stats.summary())
    verdict = ("verified" if ok
               else f"MISMATCH vs {workload.expected(args.threads)!r}")
    print(f"checksum:            {checksum!r} ({verdict})")
    _ledger_append(args, source="cli.bench", workload=workload.name,
                   config=config, stats=stats, program=program,
                   checksum=checksum, verified=ok, wall_seconds=wall)
    return 0 if ok else 1


def cmd_diff(args):
    from repro.obs.ledger import LedgerError, RunLedger
    from repro.obs.report import render_diff

    ledger = RunLedger(args.ledger)
    try:
        record_a = ledger.resolve(args.run_a, sweep=args.sweep)
        record_b = ledger.resolve(args.run_b, sweep=args.sweep)
    except LedgerError as error:
        raise CliError(str(error)) from error
    print(render_diff(record_a, record_b))
    return 0


def cmd_check(args):
    from repro.obs import sentry
    from repro.obs import ledger as ledger_mod

    try:
        version, cases = sentry.load_fixture(args.baseline)
    except (OSError, ValueError) as error:
        raise CliError(
            f"cannot read baseline {args.baseline!r}: {error}") from error
    if args.entry:
        unknown = sorted(set(args.entry) - set(cases))
        if unknown:
            raise CliError(f"unknown fixture case"
                           f"{'' if len(unknown) == 1 else 's'} "
                           f"{', '.join(unknown)}; valid: "
                           f"{', '.join(sorted(cases))}")
        cases = {label: case for label, case in cases.items()
                 if label in args.entry}
        if args.update and version != sentry.ENGINE_VERSION:
            raise CliError("ENGINE_VERSION changed: re-pin every case "
                           "(drop --entry)")
    measured = {}
    records = []
    failures = []
    for label, case in cases.items():
        # The plain run checks the exact fields, lands in the ledger,
        # and warms the program for the profiled run.
        sim = sentry.build(case)
        start = time.perf_counter()
        stats = sim.run()
        wall = time.perf_counter() - start
        values = sentry.outcome(case, sim, stats)
        values["calls"] = sentry.count_calls(case)
        measured[label] = values
        failures += sentry.compare(case, values)
        records.append(ledger_mod.make_record(
            source="cli.check", workload=case.workload.name,
            config=case.config, stats=stats,
            timestamp=ledger_mod.utc_now_iso(), checksum=values["checksum"],
            wall_seconds=wall, sweep_id=args.sweep_id))
        pinned = case.pins["calls"]
        print(f"{label:28s} {stats.cycles:>7,d} cycles "
              f"{values['calls'] / stats.cycles:6.2f} calls/cycle "
              f"({values['calls'] / pinned - 1:+.1%} vs pin)")
    if not args.no_ledger:
        try:
            ledger_mod.RunLedger(args.ledger).append_all(records)
        except OSError as error:
            print(f"repro: warning: could not append to run ledger: "
                  f"{error}", file=sys.stderr)
    if args.update:
        refused = sentry.repin(args.baseline, measured, version)
        for message in refused:
            print(f"REFUSED: {message}", file=sys.stderr)
        if refused:
            return 1
        print(f"re-pinned {len(measured)} case(s) in {args.baseline}")
        return 0
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if failures:
        print(f"repro check FAILED: {len(failures)} mismatch(es)",
              file=sys.stderr)
        return 1
    print(f"repro check ok: {len(measured)} cases bit-identical to "
          f"{args.baseline}, calls within "
          f"{sentry.CALLS_TOLERANCE:.0%} of their pins")
    return 0


def _parse_service_url(url, default_port=8421):
    """``(host, port)`` from ``http://host:port``, ``host:port``, or
    ``host``."""
    bare = url.strip()
    for scheme in ("http://", "https://"):
        if bare.startswith(scheme):
            bare = bare[len(scheme):]
            break
    bare = bare.split("/", 1)[0]
    host, _, port_text = bare.partition(":")
    if not host:
        raise CliError(f"cannot parse service URL {url!r}")
    if not port_text:
        return host, default_port
    try:
        return host, int(port_text)
    except ValueError:
        raise CliError(f"cannot parse service URL {url!r}: bad port "
                       f"{port_text!r}") from None


def cmd_report(args):
    from repro.asm.errors import AsmError
    from repro.harness.diskcache import default_path as cache_default
    from repro.harness.parallel import GridError
    from repro.lang.errors import CompileError
    from repro.obs.ledger import LedgerError
    from repro.obs.report import run_report

    telemetry, finish = _open_telemetry(args)
    if args.sweep is not None and telemetry is not None:
        raise CliError("--live/--events/--trace instrument a fresh grid; "
                       "--sweep renders an already-finished one")
    client = None
    recoverable = (GridError, LedgerError, ValueError, KeyError,
                   CompileError, AsmError)
    if args.service:
        if telemetry is not None:
            raise CliError("--live/--events/--trace watch a local grid; "
                           "with --service the server owns the telemetry "
                           "stream (see repro serve --events)")
        from repro.service.client import (ServiceClient, ServiceError,
                                          ServiceUnavailable)
        host, port = _parse_service_url(args.service)
        client = ServiceClient(host, port)
        recoverable += (ServiceError, ServiceUnavailable, OSError)
    disk_cache = None if args.fresh else cache_default()
    try:
        text = run_report(
            args.experiment, ledger=args.ledger,
            workloads=args.workloads or None,
            threads=tuple(args.threads) if args.threads else None,
            workers=args.workers, disk_cache=disk_cache,
            instrument=args.instrument, csv_path=args.csv,
            sweep=args.sweep, telemetry=telemetry,
            sweep_id=getattr(args, "sweep_id", None), client=client)
    except recoverable as error:
        message = error.args[0] if error.args else str(error)
        raise CliError(str(message)) from error
    finally:
        finish()
    print(text)
    return 0


def cmd_sweep(args):
    from repro.obs.telemetry import load_events, render_summary

    try:
        events = load_events(args.log)
    except OSError as error:
        raise CliError(f"cannot read {args.log!r}: "
                       f"{error.strerror or error}") from error
    if not events:
        raise CliError(f"{args.log!r} contains no sweep events")
    text, ok = render_summary(events, waterfall=args.waterfall,
                              show_failures=not args.no_failures)
    print(text)
    return 0 if ok else 1


def cmd_serve(args):
    from repro.obs.export import JsonlSink
    from repro.service import AccessLog, JobService, run_server

    sinks = []
    handle = None
    if args.events:
        # Line-buffered so the event log tails live (the CI chaos
        # driver watches it while the server runs).
        handle = open(args.events, "w", buffering=1)
        sinks.append(JsonlSink(handle))
    ledger = None
    if not args.no_ledger:
        from repro.obs.ledger import RunLedger
        ledger = RunLedger(args.ledger)
    disk_cache = None
    if not args.no_cache:
        from repro.harness.diskcache import DiskResultCache
        from repro.harness.runner import Runner
        disk_cache = DiskResultCache(args.cache,
                                     schema=Runner.RESULT_SCHEMA)
    metrics = None
    if not args.no_metrics:
        from repro.obs.runtime import MetricsRegistry
        metrics = MetricsRegistry()
    # Access log defaults to stderr: stdout carries the banner and the
    # drain summary that tools (the chaos driver) parse, and stderr may
    # be shared with a LiveProgress elsewhere — never raw stdout.
    access_log = None
    access_handle = None
    if not args.no_access_log:
        if args.access_log:
            access_handle = open(args.access_log, "w", buffering=1)
            access_log = AccessLog(access_handle)
        else:
            access_log = AccessLog(sys.stderr)
    service = JobService(
        workers=args.workers, queue_depth=args.queue_depth, rate=args.rate,
        burst=args.burst, timeout=args.timeout, retries=args.retries,
        backoff=args.backoff, disk_cache=disk_cache,
        ledger=ledger, sinks=sinks, allow_chaos=args.allow_chaos,
        heartbeat=args.heartbeat, metrics=metrics)

    def banner(http):
        print(f"repro serve: listening on http://{http.host}:{http.port} "
              f"(sweep {service.hub.sweep_id})", flush=True)

    try:
        run_server(service, args.host, args.port, banner=banner,
                   access_log=access_log)
    except KeyboardInterrupt:
        print("repro serve: force quit before drain finished",
              file=sys.stderr)
        return 130
    finally:
        if handle is not None:
            handle.close()
        if access_handle is not None:
            access_handle.close()
    jobs = service.registry.counts()
    print(f"repro serve: drained — {jobs['done']} done, "
          f"{jobs['failed']} failed, {jobs['total']} job(s) total")
    return 0


def cmd_submit(args):
    from repro.service.client import (ServiceClient, ServiceError,
                                      ServiceUnavailable, new_request_id)

    payload = {"workload": args.workload}
    config = {}
    if args.config:
        try:
            config = json.loads(args.config)
        except ValueError as error:
            raise CliError(f"--config is not valid JSON: {error}") from error
        if not isinstance(config, dict):
            raise CliError("--config must be a JSON object")
    if args.threads is not None:
        config["nthreads"] = args.threads
    if config:
        payload["config"] = config
    if args.aligned:
        payload["aligned"] = True
    if args.instrument:
        payload["instrument"] = True
    if args.sweep_id:
        payload["sweep_id"] = args.sweep_id
    if args.client:
        payload["client"] = args.client
    request_id = args.request_id or new_request_id()
    client = ServiceClient(args.host, args.port, retries=args.retries,
                           backoff=args.backoff, timeout=args.timeout)
    try:
        if args.no_wait:
            doc = client.submit(payload, request_id=request_id)
        else:
            doc = client.run_job(payload, request_id=request_id)
    except (ServiceError, ServiceUnavailable, OSError) as error:
        raise CliError(str(error)) from error
    print(json.dumps(doc, indent=2, sort_keys=True))
    print(f"request id: {request_id} (grep it in the server's access "
          f"log, event stream, and ledger)", file=sys.stderr)
    return 1 if doc.get("state") == "failed" else 0


def cmd_top(args):
    from repro.obs.runtime import TopView, parse_promtext
    from repro.service.client import (ServiceClient, ServiceError,
                                      ServiceUnavailable)

    host, port = _parse_service_url(args.url)
    client = ServiceClient(host, port, timeout=args.timeout)
    view = TopView()
    stream = sys.stdout
    width = 0
    try:
        while True:
            text = client.metrics_text()
            view.update(parse_promtext(text))
            line = f"[{host}:{port}] {view.render()}"
            pad = max(width - len(line), 0)
            width = len(line)
            stream.write("\r" + line + " " * pad)
            stream.flush()
            if args.once:
                stream.write("\n")
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        stream.write("\n")
        return 0
    except (ServiceError, ServiceUnavailable, OSError) as error:
        if width:
            stream.write("\n")
        raise CliError(str(error)) from error


def cmd_workloads(args):
    from repro.workloads import EXTRA_WORKLOADS
    for workload in ALL_WORKLOADS:
        group = "Group I " if workload.group == 1 else "Group II"
        print(f"{workload.name:8s} {group}  "
              f"{workload.source.strip().splitlines()[0].lstrip('/ ')}")
    for workload in EXTRA_WORKLOADS:
        print(f"{workload.name:8s} extra     "
              f"{workload.source.strip().splitlines()[0].lstrip('/ ')}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multithreaded superscalar (SDSP/SMT) simulator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble and list an .s file")
    p_asm.add_argument("file")
    p_asm.add_argument("--align", action="store_true",
                       help="align branch targets to fetch blocks")
    p_asm.set_defaults(func=cmd_asm)

    p_cc = sub.add_parser("cc", help="compile MiniC to assembly")
    p_cc.add_argument("file")
    p_cc.add_argument("--threads", type=int, default=1)
    p_cc.set_defaults(func=cmd_cc)

    p_run = sub.add_parser("run", help="simulate a program")
    p_run.add_argument("file")
    p_run.add_argument("--align", action="store_true")
    p_run.add_argument("--functional", action="store_true",
                       help="use the architectural simulator only")
    p_run.add_argument("--live", action="store_true",
                       help="single-line live progress (cycle heartbeats) "
                            "on stderr while simulating")
    _machine_args(p_run)
    _ledger_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a paper workload")
    p_bench.add_argument("name")
    p_bench.add_argument("--live", action="store_true",
                         help="single-line live progress on stderr "
                              "(routes through the grid harness)")
    p_bench.add_argument("--events", default=None, metavar="PATH",
                         help="record the sweep's JSONL event log "
                              "(inspect with 'repro sweep PATH')")
    _machine_args(p_bench)
    _ledger_args(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser(
        "trace", help="simulate and export a pipeline trace")
    p_trace.add_argument("prog",
                         help="source file (.s/.mc) or workload name")
    p_trace.add_argument("--out", default="trace.json",
                         help="output path (default trace.json)")
    p_trace.add_argument("--format", default="perfetto",
                         choices=["perfetto", "jsonl", "text"],
                         help="perfetto: Chrome trace_event JSON for "
                              "ui.perfetto.dev; jsonl: one event per "
                              "line; text: human-readable log")
    p_trace.add_argument("--align", action="store_true")
    _machine_args(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="simulate and print statistics")
    p_stats.add_argument("prog",
                         help="source file (.s/.mc) or workload name")
    p_stats.add_argument("--breakdown", action="store_true",
                         help="print the per-cycle stall-attribution "
                              "table")
    p_stats.add_argument("--json", action="store_true",
                         help="print the full machine-readable record "
                              "(stats, attribution, metrics) instead of "
                              "the text summary")
    p_stats.add_argument("--align", action="store_true")
    _machine_args(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_diff = sub.add_parser(
        "diff", help="compare two recorded runs from the ledger")
    p_diff.add_argument("run_a", metavar="RUNA",
                        help="'last', 'last~N', or a run-id prefix")
    p_diff.add_argument("run_b", metavar="RUNB",
                        help="'last', 'last~N', or a run-id prefix")
    p_diff.add_argument("--ledger", default=None, metavar="PATH",
                        help="ledger file (default: REPRO_LEDGER or "
                             "~/.cache/repro-sdsp/ledger.jsonl)")
    p_diff.add_argument("--sweep", default=None, metavar="ID",
                        help="resolve RUNA/RUNB within this sweep's "
                             "records only ('last' = last of the sweep)")
    p_diff.set_defaults(func=cmd_diff)

    p_check = sub.add_parser(
        "check", help="engine gate over the golden-cycle fixture")
    p_check.add_argument("--baseline", required=True,
                         help="engine fixture "
                              "(tests/data/golden_cycles.json)")
    p_check.add_argument("--entry", action="append", metavar="LABEL",
                         help="check only this fixture case (repeatable)")
    p_check.add_argument("--update", action="store_true",
                         help="re-pin the checked cases' calls (and, "
                              "after an ENGINE_VERSION bump, their "
                              "cycle-derived fields) instead of failing")
    _ledger_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_report = sub.add_parser(
        "report", help="regenerate a paper figure's table from the ledger")
    p_report.add_argument("--experiment", required=True,
                          choices=REPORT_EXPERIMENTS,
                          help="which experiment to regenerate")
    p_report.add_argument("--workloads", nargs="+", metavar="NAME",
                          help="workload subset (default: all paper "
                               "workloads)")
    p_report.add_argument("--threads", nargs="+", type=int, metavar="N",
                          help="thread counts to sweep (experiment-"
                               "specific default)")
    p_report.add_argument("--csv", default=None, metavar="PATH",
                          help="also write the table as CSV")
    p_report.add_argument("--workers", type=int, default=None,
                          help="parallel worker processes")
    p_report.add_argument("--instrument", action="store_true",
                          help="attach attribution + metrics to every "
                               "grid point (richer ledger records)")
    p_report.add_argument("--fresh", action="store_true",
                          help="bypass the disk result cache")
    p_report.add_argument("--ledger", default=None, metavar="PATH",
                          help="ledger file (default: REPRO_LEDGER or "
                               "~/.cache/repro-sdsp/ledger.jsonl)")
    p_report.add_argument("--live", action="store_true",
                          help="single-line live sweep progress on stderr")
    p_report.add_argument("--events", default=None, metavar="PATH",
                          help="record the sweep's JSONL event log "
                               "(inspect with 'repro sweep PATH')")
    p_report.add_argument("--trace", default=None, metavar="PATH",
                          help="export the sweep timeline as a Perfetto "
                               "trace (one track per worker lane)")
    p_report.add_argument("--sweep-id", default=None, metavar="ID",
                          help="stamp this sweep's ledger records with a "
                               "fixed id (default: a fresh one when "
                               "telemetry is attached)")
    p_report.add_argument("--sweep", default=None, metavar="ID",
                          help="render the table from an already-finished "
                               "sweep's ledger records (no simulation)")
    p_report.add_argument("--service", default=None, metavar="URL",
                          help="run the grid through a running 'repro "
                               "serve' (e.g. 127.0.0.1:8421) instead of "
                               "simulating locally; the table still "
                               "renders from this process's ledger, so "
                               "point --ledger/REPRO_LEDGER at the "
                               "server's ledger file")
    p_report.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser(
        "sweep", help="summarize a finished sweep from its event log")
    p_sweep.add_argument("log", metavar="LOG",
                         help="JSONL sweep-event log (bench/report "
                              "--events, or a JsonlSink on a "
                              "SweepTelemetry hub)")
    p_sweep.add_argument("--waterfall", action="store_true",
                         help="per-job lifecycle waterfall (queued time, "
                              "attempts, outcome, timeline bar)")
    p_sweep.add_argument("--no-failures", action="store_true",
                         help="omit the failure-forensics event dump")
    p_sweep.set_defaults(func=cmd_sweep)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP simulation job service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8421,
                         help="listen port (0 picks an ephemeral one, "
                              "printed in the startup banner)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="jobs simulated at once, each in its own "
                              "worker process; 1 runs jobs inline in the "
                              "server (default: cores - 1, REPRO_WORKERS)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="max jobs admitted but not yet finished; "
                              "beyond it submissions get 429 queue-full")
    p_serve.add_argument("--rate", type=float, default=None,
                         help="per-client token-bucket rate, requests/s "
                              "(default: unlimited)")
    p_serve.add_argument("--burst", type=float, default=None,
                         help="token-bucket burst (default: 2x rate)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-clock seconds (run_grid; "
                              "not enforced with --workers 1)")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="per-job retry budget (run_grid)")
    p_serve.add_argument("--backoff", type=float, default=0.25,
                         help="retry backoff base, seconds (run_grid)")
    p_serve.add_argument("--cache", default=None, metavar="PATH",
                         help="disk result cache (default: REPRO_CACHE or "
                              "~/.cache/repro-sdsp/results.json)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without the disk result cache "
                              "(disables cross-restart dedup)")
    p_serve.add_argument("--events", default=None, metavar="PATH",
                         help="append the server-lifetime sweep-event "
                              "stream to this JSONL file (audit with "
                              "'repro sweep PATH')")
    p_serve.add_argument("--ledger", default=None, metavar="PATH",
                         help="run-ledger file (default: REPRO_LEDGER or "
                              "~/.cache/repro-sdsp/ledger.jsonl)")
    p_serve.add_argument("--no-ledger", action="store_true",
                         help="do not append served runs to the ledger")
    p_serve.add_argument("--heartbeat", type=float, default=2.0,
                         help="seconds between telemetry heartbeats")
    p_serve.add_argument("--allow-chaos", action="store_true",
                         help="accept per-job 'chaos' fault-injection "
                              "fields (testing only)")
    p_serve.add_argument("--no-metrics", action="store_true",
                         help="serve without the runtime metrics "
                              "registry (GET /metrics returns 404)")
    p_serve.add_argument("--access-log", default=None, metavar="PATH",
                         help="append one JSON access-log line per "
                              "request to this file (default: stderr)")
    p_serve.add_argument("--no-access-log", action="store_true",
                         help="disable the request access log")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running 'repro serve'")
    p_submit.add_argument("workload",
                          help=f"workload name ({_workload_choices()})")
    p_submit.add_argument("--threads", type=int, default=None,
                          help="number of resident threads")
    p_submit.add_argument("--config", default=None, metavar="JSON",
                          help="partial MachineConfig spec as JSON, e.g. "
                               "'{\"su_entries\": 128}' (overlaid on the "
                               "defaults; --threads wins on nthreads)")
    p_submit.add_argument("--aligned", action="store_true",
                          help="align branch targets to fetch-block "
                               "boundaries")
    p_submit.add_argument("--instrument", action="store_true",
                          help="attach the stall-attribution instrument")
    p_submit.add_argument("--sweep-id", default=None, metavar="ID",
                          help="stamp the served run's ledger record with "
                               "this sweep id")
    p_submit.add_argument("--client", default=None, metavar="NAME",
                          help="client identity for rate limiting")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8421)
    p_submit.add_argument("--retries", type=int, default=5,
                          help="submit retry budget (exponential backoff, "
                               "honours Retry-After)")
    p_submit.add_argument("--backoff", type=float, default=0.2,
                          help="retry backoff base, seconds")
    p_submit.add_argument("--timeout", type=float, default=60.0,
                          help="per-request socket timeout, seconds")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="return the submission document without "
                               "waiting for the result")
    p_submit.add_argument("--request-id", default=None, metavar="ID",
                          help="correlation id sent as X-Repro-Request-Id "
                               "(default: a fresh one, printed on stderr)")
    p_submit.set_defaults(func=cmd_submit)

    p_top = sub.add_parser(
        "top", help="live dashboard over a server's GET /metrics")
    p_top.add_argument("url", metavar="URL",
                       help="service endpoint, e.g. 127.0.0.1:8421")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between scrapes (default 2.0)")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot line and exit")
    p_top.add_argument("--timeout", type=float, default=10.0,
                       help="per-scrape socket timeout, seconds")
    p_top.set_defaults(func=cmd_top)

    p_list = sub.add_parser("workloads", help="list the paper's workloads")
    p_list.set_defaults(func=cmd_workloads)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reader went away (`repro diff | head`); die quietly, and hand
        # the interpreter a dead stdout so its exit-time flush cannot
        # raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
