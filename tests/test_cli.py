"""CLI tests (in-process via main(argv))."""

import pytest

from repro.cli import main


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text("""
        .data
    out: .word 0
        .text
        li r4, 21
        add r4, r4, r4
        la r5, out
        sw r4, 0(r5)
        halt
    """)
    return str(path)


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text("""
    int out;
    void main() { out = 6 * 7; }
    """)
    return str(path)


def test_asm_listing(asm_file, capsys):
    assert main(["asm", asm_file]) == 0
    out = capsys.readouterr().out
    assert "addi r4, r0, 21" in out
    assert "halt" in out


def test_cc_prints_assembly(minic_file, capsys):
    assert main(["cc", minic_file]) == 0
    out = capsys.readouterr().out
    assert "f_main:" in out
    assert "g_out" in out


def test_run_assembly_pipeline(asm_file, capsys):
    assert main(["run", asm_file]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "IPC" in out


def test_run_minic_multithreaded(minic_file, capsys):
    assert main(["run", minic_file, "--threads", "2",
                 "--policy", "masked_rr"]) == 0
    out = capsys.readouterr().out
    assert "per-thread retired" in out


def test_run_functional(asm_file, capsys):
    assert main(["run", asm_file, "--functional"]) == 0
    out = capsys.readouterr().out
    assert "functional run complete" in out


def test_bench_verifies(capsys):
    assert main(["bench", "LL3", "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out


def test_bench_unknown_name(capsys):
    assert main(["bench", "Nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line, not a traceback
    assert "unknown workload 'Nope'" in err
    assert "LL2" in err and "Sieve" in err  # names the valid choices


def test_stats_unknown_workload_exits_2(capsys):
    assert main(["stats", "Bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload 'Bogus'" in err and "LL2" in err


def test_trace_unknown_workload_exits_2(capsys):
    assert main(["trace", "Bogus", "--out", "/dev/null"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_missing_source_file_exits_2(capsys):
    assert main(["run", "/nonexistent/prog.s"]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and err.count("\n") == 1


def test_report_point_that_does_not_compile_exits_2(capsys):
    # LL7 runs out of registers at 8 threads, inside the default 1-8
    # thread range: one line naming the point, not a traceback.
    assert main(["report", "--experiment", "threads", "--workloads",
                 "LL7", "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "LL7 does not compile for 8 threads" in err
    assert "out of registers" in err


def test_invalid_config_exits_2(capsys):
    # su_entries not a multiple of the block size: a config error must
    # exit 2 with a one-line message, not a ValueError traceback.
    assert main(["bench", "LL2", "--su", "30"]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert err.count("\n") == 1


def test_invalid_thread_count_exits_2(capsys):
    assert main(["bench", "LL2", "--threads", "0"]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "nthreads" in err


def test_workloads_lists_all(capsys):
    assert main(["workloads"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13  # the paper's 11 + 2 extras
    assert sum(1 for line in lines if "extra" in line) == 2


def test_run_with_config_flags(asm_file, capsys):
    assert main(["run", asm_file, "--su", "32", "--cache-assoc", "1",
                 "--cache-kb", "1", "--enhanced-fus", "--commit",
                 "lowest_only"]) == 0
    assert "cycles" in capsys.readouterr().out


def test_run_with_alignment(asm_file, capsys):
    assert main(["run", asm_file, "--align"]) == 0


def test_bench_extra_workload(capsys):
    assert main(["bench", "LL11", "--threads", "2"]) == 0
    assert "verified" in capsys.readouterr().out


def test_trace_perfetto(tmp_path, capsys):
    import json
    from repro.obs.export import validate_trace

    out = tmp_path / "trace.json"
    assert main(["trace", "LL2", "--threads", "2",
                 "--out", str(out), "--format", "perfetto"]) == 0
    trace = json.loads(out.read_text())
    assert validate_trace(trace) == []
    assert "events" in capsys.readouterr().err


def test_trace_jsonl_and_text(tmp_path, asm_file):
    import json

    out = tmp_path / "trace.jsonl"
    assert main(["trace", asm_file, "--out", str(out),
                 "--format", "jsonl"]) == 0
    lines = out.read_text().splitlines()
    assert lines and all("event" in json.loads(line) for line in lines)

    out = tmp_path / "trace.txt"
    assert main(["trace", asm_file, "--out", str(out),
                 "--format", "text"]) == 0
    assert out.read_text().startswith("[")


def test_stats_breakdown(capsys):
    assert main(["stats", "LL3", "--threads", "4", "--breakdown"]) == 0
    out = capsys.readouterr().out
    assert "cycle attribution" in out
    assert "su-full" in out and "total" in out
    assert "IPC" in out


def test_stats_plain_source_file(asm_file, capsys):
    assert main(["stats", asm_file]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "cycle attribution" not in out


def test_stats_json_is_a_ledger_record(capsys):
    import json

    assert main(["stats", "LL2", "--threads", "2", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["source"] == "cli.stats"
    assert record["workload"] == "LL2"
    assert record["nthreads"] == 2
    assert record["schema"] == 1
    assert record["run_id"] and record["config_fingerprint"]
    assert sum(record["attribution"].values()) > 0
    assert record["metrics"]["samples"] > 0
    # --json keeps the raw histograms alongside the summary.
    assert record["stats"]["interval_metrics"] is not None


def test_run_and_bench_append_ledger(asm_file, tmp_path):
    from repro.obs.ledger import RunLedger

    ledger = tmp_path / "ledger.jsonl"
    assert main(["run", asm_file, "--ledger", str(ledger)]) == 0
    assert main(["bench", "LL3", "--threads", "2",
                 "--ledger", str(ledger)]) == 0
    run_rec, bench_rec = RunLedger(ledger).records()
    assert run_rec["source"] == "cli.run"
    assert run_rec["wall_seconds"] > 0 and run_rec["cycles_per_sec"] > 0
    assert bench_rec["source"] == "cli.bench"
    assert bench_rec["workload"] == "LL3"
    assert bench_rec["verified"] is True
    assert bench_rec["checksum"]


def test_no_ledger_flag_skips_append(tmp_path):
    from repro.obs.ledger import RunLedger

    ledger = tmp_path / "ledger.jsonl"
    assert main(["bench", "LL2", "--ledger", str(ledger),
                 "--no-ledger"]) == 0
    assert len(RunLedger(ledger).records()) == 0


def test_report_cli_end_to_end(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    csv = tmp_path / "out.csv"
    assert main(["report", "--experiment", "threads",
                 "--workloads", "LL2", "--threads", "1", "2",
                 "--workers", "1", "--ledger", str(ledger),
                 "--csv", str(csv), "--fresh"]) == 0
    out = capsys.readouterr().out
    assert "IPC vs thread count" in out
    assert csv.read_text().startswith("benchmark,1T,2T")


def test_report_unknown_workload_exits_2(capsys):
    assert main(["report", "--experiment", "threads",
                 "--workloads", "Bogus", "--threads", "1"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_diff_cli_on_two_runs(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    assert main(["bench", "LL2", "--ledger", str(ledger)]) == 0
    assert main(["bench", "LL2", "--threads", "2",
                 "--ledger", str(ledger)]) == 0
    capsys.readouterr()
    assert main(["diff", "last~1", "last", "--ledger", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "run A:" in out and "run B:" in out
    assert "counter deltas" in out


def test_diff_empty_ledger_exits_2(tmp_path, capsys):
    ledger = tmp_path / "empty.jsonl"
    assert main(["diff", "last~1", "last", "--ledger", str(ledger)]) == 2
    assert "no records" in capsys.readouterr().err


# ------------------------------------------------------- sweep telemetry


def test_bench_live_and_events_record_a_sweep(tmp_path, capsys):
    import json

    ledger = tmp_path / "ledger.jsonl"
    log = tmp_path / "events.jsonl"
    assert main(["bench", "LL2", "--ledger", str(ledger),
                 "--live", "--events", str(log)]) == 0
    captured = capsys.readouterr()
    assert "verified" in captured.out
    assert "sweep events ->" in captured.err
    lines = [json.loads(line) for line in
             log.read_text().splitlines()]
    kinds = [record["event"] for record in lines]
    assert kinds[0] == "sweep-start" and kinds[-1] == "sweep-end"
    assert "done" in kinds
    from repro.obs.ledger import RunLedger
    record = RunLedger(ledger).records()[0]
    assert record["sweep_id"] == lines[0]["sweep_id"]


def test_run_live_smoke(asm_file, capsys):
    assert main(["run", asm_file, "--live"]) == 0
    assert "cycles" in capsys.readouterr().out


def test_sweep_summarizes_recorded_log(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    assert main(["bench", "LL2", "--no-ledger",
                 "--events", str(log)]) == 0
    capsys.readouterr()
    assert main(["sweep", str(log), "--waterfall"]) == 0
    out = capsys.readouterr().out
    assert "lifecycle accounting" in out
    assert "per-job waterfall" in out
    assert "accounting: ok" in out


def test_sweep_exits_1_on_accounting_violation(tmp_path, capsys):
    import json

    log = tmp_path / "broken.jsonl"
    events = [{"event": "sweep-start", "t": 0.0, "sweep_id": "s",
               "total": 1, "workers": 1},
              {"event": "queued", "t": 0.0, "sweep_id": "s", "job": 0}]
    log.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    assert main(["sweep", str(log)]) == 1
    assert "accounting: VIOLATED" in capsys.readouterr().out


def test_sweep_missing_or_empty_log_exits_2(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["sweep", str(empty)]) == 2
    assert "no sweep events" in capsys.readouterr().err


def test_report_sweep_conflicts_with_telemetry_flags(tmp_path, capsys):
    assert main(["report", "--experiment", "threads",
                 "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--sweep", "abc", "--live"]) == 2
    assert "already-finished" in capsys.readouterr().err


def test_report_renders_finished_sweep_without_rerunning(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    assert main(["report", "--experiment", "threads",
                 "--workloads", "LL2", "--threads", "1",
                 "--workers", "1", "--ledger", str(ledger),
                 "--sweep-id", "sweepfixed01", "--fresh"]) == 0
    capsys.readouterr()
    assert main(["report", "--experiment", "threads",
                 "--workloads", "LL2", "--threads", "1",
                 "--ledger", str(ledger), "--sweep", "sweepfixed01"]) == 0
    out = capsys.readouterr().out
    assert "sweep sweepfixed01" in out
    assert "IPC vs thread count" in out
    # An unknown sweep id renders nothing.
    assert main(["report", "--experiment", "threads",
                 "--workloads", "LL2", "--threads", "1",
                 "--ledger", str(ledger), "--sweep", "missing999"]) == 2
    assert "sweep" in capsys.readouterr().err


def test_diff_scopes_to_sweep(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    assert main(["bench", "LL2", "--ledger", str(ledger),
                 "--sweep-id", "sweepdiff001"]) == 0
    assert main(["bench", "LL2", "--threads", "2", "--ledger", str(ledger),
                 "--sweep-id", "sweepdiff001"]) == 0
    assert main(["bench", "LL2", "--threads", "4",
                 "--ledger", str(ledger)]) == 0
    capsys.readouterr()
    assert main(["diff", "last~1", "last", "--ledger", str(ledger),
                 "--sweep", "sweepdiff001"]) == 0
    out = capsys.readouterr().out
    # Scoped "last" is the 2-thread record, not the 4-thread one.
    assert "threads=2" in out
    assert "threads=4" not in out
    assert main(["diff", "last~1", "last", "--ledger", str(ledger),
                 "--sweep", "nosuchsweep1"]) == 2
    assert "no records for sweep" in capsys.readouterr().err
