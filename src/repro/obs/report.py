"""Cross-run diffing and paper-figure report generation from the ledger.

Two consumers of :mod:`repro.obs.ledger` records:

* :func:`render_diff` — ``repro diff A B``: per-counter deltas between
  two recorded runs plus an attribution *waterfall* showing which stall
  category gained or lost cycles.
* :func:`run_report` — ``repro report --experiment ...``: re-runs one
  of the paper's experiment grids through
  :func:`~repro.harness.parallel.run_grid` (populating the ledger),
  then renders the corresponding figure's table **from the ledger
  records** — proving the durable record alone carries everything the
  paper's curves need. Each report cross-references the matching
  section of ``EXPERIMENTS.md`` via
  :data:`repro.harness.experiments.FIGURE_INDEX`.
"""

from repro.core import FetchPolicy, MachineConfig
from repro.harness.experiments import (DEFAULT_THREADS, FIGURE_INDEX,
                                       REPORT_THREADS, SU_DEPTHS)
from repro.harness.tables import format_table
from repro.mem.cache import CacheConfig
from repro.obs.attribution import CATEGORIES
from repro.obs import ledger as ledger_mod

#: Scalar stats counters compared by ``repro diff``, display order.
DIFF_COUNTERS = (
    "cycles", "committed", "fetched_blocks", "fetched_instructions",
    "issued", "branches", "mispredicts", "squashed", "su_stall_cycles",
    "fetch_idle_cycles", "decode_stall_cycles", "cache_accesses",
    "cache_hits", "cache_misses",
)

#: Width of the attribution waterfall's bar column.
_BAR_WIDTH = 24


# --------------------------------------------------------------- diffing

def _identity_line(tag, record):
    git = record.get("git_sha") or "?"
    return (f"{tag}: {record['run_id']}  {record['workload']} "
            f"threads={record.get('nthreads')} "
            f"config={record['config_fingerprint']} "
            f"engine=v{record['engine_version']} git={git} "
            f"[{record['source']} @ {record['timestamp']}]")


def _delta_row(name, a_value, b_value, as_float=False):
    delta = b_value - a_value
    pct = f"{delta / a_value:+.1%}" if a_value else "n/a"
    if as_float:
        return [name, f"{a_value:.3f}", f"{b_value:.3f}",
                f"{delta:+.3f}", pct]
    return [name, a_value, b_value, f"{delta:+d}", pct]


def _bar(delta, scale):
    if not delta or not scale:
        return ""
    length = max(1, round(abs(delta) / scale * _BAR_WIDTH))
    return ("+" if delta > 0 else "-") * length


def render_diff(record_a, record_b):
    """Human-readable comparison of two ledger records.

    Sections: run identity, per-counter deltas (B relative to A), the
    attribution waterfall (cycles gained/lost per stall category), and
    throughput. Works across workloads/configs too — the header makes
    any apples-to-oranges comparison explicit.
    """
    lines = [_identity_line("run A", record_a),
             _identity_line("run B", record_b), ""]
    stats_a, stats_b = record_a["stats"], record_b["stats"]

    rows = []
    for name in DIFF_COUNTERS:
        a_value, b_value = stats_a.get(name), stats_b.get(name)
        if a_value is None or b_value is None:
            continue
        rows.append(_delta_row(name, a_value, b_value))
    cycles_a, cycles_b = stats_a.get("cycles"), stats_b.get("cycles")
    if cycles_a and cycles_b:
        ipc_a = stats_a.get("committed", 0) / cycles_a
        ipc_b = stats_b.get("committed", 0) / cycles_b
        rows.append(_delta_row("ipc", ipc_a, ipc_b, as_float=True))
    lines.append(format_table("counter deltas (B - A)",
                              ["counter", "A", "B", "delta", "pct"], rows))

    attr_a = record_a.get("attribution")
    attr_b = record_b.get("attribution")
    if attr_a or attr_b:
        attr_a, attr_b = attr_a or {}, attr_b or {}
        deltas = {key: attr_b.get(key, 0) - attr_a.get(key, 0)
                  for key in CATEGORIES}
        scale = max((abs(d) for d in deltas.values()), default=0)
        rows = [[key, attr_a.get(key, 0), attr_b.get(key, 0),
                 f"{deltas[key]:+d}", _bar(deltas[key], scale)]
                for key in CATEGORIES]
        lines.append("")
        lines.append(format_table(
            "attribution waterfall (cycles, B - A)",
            ["category", "A", "B", "delta", ""], rows))

    rate_a = record_a.get("cycles_per_sec")
    rate_b = record_b.get("cycles_per_sec")
    if rate_a and rate_b:
        lines.append("")
        lines.append(f"throughput: {rate_a:,} -> {rate_b:,} cyc/s "
                     f"({rate_b / rate_a - 1:+.1%})")
    return "\n".join(lines)


# ------------------------------------------------------------ experiments

def build_experiment(name, workloads=None, threads=None):
    """Grid for one paper experiment.

    Returns ``(title, value_kind, columns, jobs)`` where ``jobs`` is a
    list of ``(workload_name, MachineConfig, column_label)`` triples in
    deterministic order and ``value_kind`` is ``"ipc"`` or ``"cycles"``.
    """
    from repro.workloads import ALL_WORKLOADS

    if workloads is None:
        workloads = [w.name for w in ALL_WORKLOADS]
    jobs = []
    if name == "threads":
        threads = tuple(threads or REPORT_THREADS)
        columns = [f"{n}T" for n in threads]
        for wname in workloads:
            for n in threads:
                jobs.append((wname, MachineConfig(nthreads=n), f"{n}T"))
        return ("IPC vs thread count", "ipc", columns, jobs)
    if name == "fetch":
        nthreads = (threads or (DEFAULT_THREADS,))[0]
        policies = [(FetchPolicy.TRUE_RR, "TrueRR"),
                    (FetchPolicy.MASKED_RR, "MaskedRR"),
                    (FetchPolicy.COND_SWITCH, "CSwitch")]
        columns = [label for _, label in policies] + ["BaseCase"]
        for wname in workloads:
            for policy, label in policies:
                jobs.append((wname, MachineConfig(
                    nthreads=nthreads, fetch_policy=policy), label))
            jobs.append((wname, MachineConfig(nthreads=1), "BaseCase"))
        return (f"fetch-policy comparison ({nthreads} threads, cycles)",
                "cycles", columns, jobs)
    if name == "su":
        thread_points = tuple(threads or (1, DEFAULT_THREADS))
        columns = [f"{n}T/su{d}" for n in thread_points for d in SU_DEPTHS]
        for wname in workloads:
            for n in thread_points:
                for depth in SU_DEPTHS:
                    jobs.append((wname, MachineConfig(
                        nthreads=n, su_entries=depth), f"{n}T/su{depth}"))
        return ("scheduling-unit depth sweep (cycles)",
                "cycles", columns, jobs)
    if name == "cache":
        thread_points = tuple(threads or (1, 2, 4, 6))
        variants = [("direct", CacheConfig(assoc=1)),
                    ("assoc", CacheConfig(assoc=4))]
        columns = [f"{n}T/{label}" for n in thread_points
                   for label, _ in variants]
        for wname in workloads:
            for n in thread_points:
                for label, cache in variants:
                    jobs.append((wname, MachineConfig(
                        nthreads=n, cache=cache), f"{n}T/{label}"))
        return ("direct-mapped vs associative cache (cycles)",
                "cycles", columns, jobs)
    raise ValueError(f"unknown experiment {name!r}; expected one of "
                     f"{', '.join(sorted(FIGURE_INDEX))}")


def _value(record, kind):
    stats = record["stats"]
    if kind == "ipc":
        cycles = stats["cycles"]
        return round(stats["committed"] / cycles, 3) if cycles else 0.0
    return stats["cycles"]


def _run_via_service(client, jobs, *, instrument=False, sweep_id=None):
    """Drive one experiment grid through a running job service.

    Submits every grid point first (the server coalesces duplicates and
    answers cached points instantly), then waits for each to reach a
    terminal state. The server appends the ledger records exactly as a
    local ``run_grid`` would — the caller's ledger must therefore be
    the *server's* ledger file (shared filesystem), which is also what
    makes the served and local report tables byte-identical.
    """
    from repro.service.client import new_request_id

    submitted = []
    for wname, config, _label in jobs:
        payload = {"workload": wname, "config": config.to_spec()}
        if instrument:
            payload["instrument"] = True
        if sweep_id is not None:
            payload["sweep_id"] = sweep_id
        doc = client.submit(payload, request_id=new_request_id())
        submitted.append((wname, doc))
    failures = []
    for wname, doc in submitted:
        final = (doc if doc.get("state") in ("done", "failed")
                 else client.wait(doc["job_id"]))
        if final.get("state") != "done":
            failure = final.get("failure") or {}
            failures.append(f"{wname}: {failure.get('kind', 'failed')} "
                            f"({failure.get('message', 'no detail')})")
    if failures:
        raise ledger_mod.LedgerError(
            "service could not complete the report grid:\n  "
            + "\n  ".join(failures))


def run_report(name, *, ledger, workloads=None, threads=None, workers=None,
               disk_cache=None, instrument=False, timestamp=None,
               csv_path=None, sweep=None, telemetry=None,
               progress=None, sweep_id=None, client=None):
    """Run one experiment grid and render its table from the ledger.

    The grid goes through :func:`run_grid` with ``ledger=`` attached,
    so every point lands in the durable record first; the table is then
    built from :meth:`RunLedger.latest_by_key` — *not* from the
    in-memory results — which is the property the regression acceptance
    test pins. Only the grid's keys are looked up, so the ledger is read
    back only as far as the oldest of their latest records. Returns the
    rendered text; writes ``csv_path`` when given.

    ``sweep`` renders the table from the ledger records of an already
    *finished* sweep (no simulation happens); ``telemetry``, ``progress``
    and ``sweep_id`` are forwarded to :func:`run_grid` so a fresh grid
    can be watched live and its records stamped as one sweep.

    ``client`` (a :class:`repro.service.ServiceClient`) submits the
    grid through a running ``repro serve`` instead of a local
    ``run_grid`` — ``repro report --service URL``. The table still
    renders from ``ledger``, which must be the server's ledger file;
    ``workers``/``disk_cache`` are then the *server's*
    choices and the local values are ignored.
    """
    from repro.harness.parallel import run_grid

    if not isinstance(ledger, ledger_mod.RunLedger):
        ledger = ledger_mod.RunLedger(ledger)
    title, kind, columns, jobs = build_experiment(
        name, workloads=workloads, threads=threads)
    if sweep is None:
        if client is not None:
            _run_via_service(client, jobs, instrument=instrument,
                             sweep_id=sweep_id)
        else:
            run_grid([(wname, config) for wname, config, _ in jobs],
                     workers=workers, disk_cache=disk_cache,
                     instrument=instrument, ledger=ledger,
                     ledger_timestamp=timestamp, strict=True,
                     telemetry=telemetry, progress=progress,
                     sweep_id=sweep_id)

    keys = [(wname, ledger_mod.config_fingerprint(config))
            for wname, config, _ in jobs]
    latest = ledger.latest_by_key(sweep=sweep, keys=keys)
    wanted = {}
    for key, (wname, _, label) in zip(keys, jobs):
        record = latest.get(key)
        if record is None:
            scope = (f" in sweep {sweep!r}" if sweep is not None else
                     " — run_grid should have appended it")
            raise ledger_mod.LedgerError(
                f"ledger {ledger.path} has no record for {wname} "
                f"config {key[1]}{scope}")
        wanted[(wname, label)] = record

    row_names = list(dict.fromkeys(wname for wname, _, _ in jobs))
    rows = [[wname] + [_value(wanted[(wname, label)], kind)
                       for label in columns]
            for wname in row_names]
    figures = FIGURE_INDEX.get(name, "")
    scope = f", sweep {sweep}" if sweep is not None else ""
    header = (f"# repro report --experiment {name} — {figures}\n"
              f"# cf. EXPERIMENTS.md; ledger: {ledger.path} "
              f"({len(wanted)} grid points{scope})")
    text = header + "\n\n" + format_table(title, ["benchmark"] + columns,
                                          rows)
    if csv_path:
        lines = ["benchmark," + ",".join(columns)]
        lines += [",".join(str(cell) for cell in row) for row in rows]
        with open(csv_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        text += f"\n\n# wrote {csv_path}"
    return text
