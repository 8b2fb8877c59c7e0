"""repro diff rendering and repro report ledger-driven tables."""

import hashlib
import json

import pytest

from repro.core.config import MachineConfig
from repro.obs.ledger import RunLedger, config_fingerprint, make_record
from repro.obs.report import build_experiment, render_diff, run_report

T0 = "2026-01-01T00:00:00+00:00"


def _synthetic(cycles, committed, attribution=None, rate=None, **stats):
    base = {"cycles": cycles, "committed": committed,
            "mispredicts": stats.pop("mispredicts", 0),
            "stall_breakdown": attribution, "interval_metrics": None}
    base.update(stats)
    wall = cycles / rate if rate else None
    return make_record(source="test", workload="LL2",
                       config=MachineConfig(nthreads=1), stats=base,
                       timestamp=T0, wall_seconds=wall)


# ----------------------------------------------------------------- diff

def test_render_diff_counters_and_identity():
    a = _synthetic(1000, 2000, mispredicts=10)
    b = _synthetic(1200, 2100, mispredicts=5)
    text = render_diff(a, b)
    assert f"run A: {a['run_id']}" in text
    assert f"run B: {b['run_id']}" in text
    assert "counter deltas (B - A)" in text
    # cycles 1000 -> 1200 is +200 / +20.0%
    cycles_row = next(l for l in text.splitlines()
                      if l.strip().startswith("cycles"))
    assert "+200" in cycles_row and "+20.0%" in cycles_row
    # ipc is derived: 2.0 -> 1.75
    ipc_row = next(l for l in text.splitlines() if l.strip().startswith("ipc"))
    assert "2.000" in ipc_row and "1.750" in ipc_row
    # no attribution on either side -> no waterfall section
    assert "waterfall" not in text


def test_render_diff_attribution_waterfall():
    a = _synthetic(1000, 2000,
                   attribution={"commit": 800, "su-full": 150, "sync": 50})
    b = _synthetic(1000, 2000,
                   attribution={"commit": 700, "su-full": 250, "sync": 50})
    text = render_diff(a, b)
    assert "attribution waterfall" in text
    su_row = next(l for l in text.splitlines()
                  if l.strip().startswith("su-full"))
    assert "+100" in su_row and "+" * 5 in su_row  # positive bar
    commit_row = next(l for l in text.splitlines()
                      if l.strip().startswith("commit "))
    assert "-100" in commit_row and "-" * 5 in commit_row


def test_render_diff_throughput_line():
    a = _synthetic(1000, 2000, rate=50_000)
    b = _synthetic(1000, 2000, rate=40_000)
    text = render_diff(a, b)
    assert "throughput: 50,000 -> 40,000 cyc/s (-20.0%)" in text


# ---------------------------------------------------------- experiments

def test_build_experiment_threads_grid():
    title, kind, columns, jobs = build_experiment(
        "threads", workloads=["LL2", "LL5"], threads=(1, 2))
    assert kind == "ipc"
    assert columns == ["1T", "2T"]
    assert [(w, c.nthreads, label) for w, c, label in jobs] == [
        ("LL2", 1, "1T"), ("LL2", 2, "2T"),
        ("LL5", 1, "1T"), ("LL5", 2, "2T")]


def test_build_experiment_fetch_has_base_case():
    _, kind, columns, jobs = build_experiment("fetch", workloads=["LL2"])
    assert kind == "cycles"
    assert columns == ["TrueRR", "MaskedRR", "CSwitch", "BaseCase"]
    base = [c for _, c, label in jobs if label == "BaseCase"]
    assert len(base) == 1 and base[0].nthreads == 1


#: sha256 of ``[title, kind, columns, [[workload, config fingerprint,
#: label], ...]]`` per (experiment, --threads, workloads) — the grids
#: ``bench/run.py`` pins its tables and labels (``fetch/BaseCase``) on.
COLD = ("LL5", "MPD", "Water")
GRID_PINS = [
    ("threads", (1, 2, 3, 4, 5, 6), None, 66,
     "047dd31f08da0f3d2a40c4c92f552f6c8309c69f44eed3cec08b8aa7acbcc36b"),
    ("fetch", None, None, 44,
     "0f279f0c6e635220581498355cd504e5b850bf908a5dce402f22b449e2dcca14"),
    ("su", None, None, 88,
     "1d782ffda9a72a7a00afa67fc463c79b44a7aa5f40d7441d9e76033b3bd84535"),
    ("cache", None, None, 88,
     "b8bf9e4c513dcc7381aa0aac8e569b428bef9393cd15933c177f5f030d43caf0"),
    ("threads", (1, 2, 3, 4, 5, 6), COLD, 18,
     "4465b04e967a5e199a3e8faa1e7bca2f5fa516994b7c2717a86ea05b5f08de9c"),
    ("fetch", None, COLD, 12,
     "f7268ae6a3a440cee04e8bbdedb2678bce524d7868f249908090ea3a205d6acb"),
    ("su", None, COLD, 24,
     "cfeb80ad3859ba90a2fbaecd3d3559befaaac241e807c3721ccdf8ff4ba48d4d"),
    ("cache", None, COLD, 24,
     "f2d5600c5a9131c77f0ca51b6a96d952cc92058f13f213f0ffe6822eec6c3bd8"),
]


@pytest.mark.parametrize("name,threads,workloads,count,pin", GRID_PINS)
def test_build_experiment_grids_are_pinned(name, threads, workloads, count,
                                           pin):
    title, kind, columns, jobs = build_experiment(name, workloads, threads)
    doc = [title, kind, list(columns),
           [[wname, config_fingerprint(config), label]
            for wname, config, label in jobs]]
    assert len(jobs) == count
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == pin


def test_build_experiment_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment"):
        build_experiment("bogus")


def test_build_experiment_threads_defaults_to_the_paper_range():
    _, _, columns, _ = build_experiment("threads", workloads=["LL7"])
    assert columns == ["1T", "2T", "3T", "4T", "5T", "6T"]


def test_build_experiment_fu_grid():
    title, kind, columns, jobs = build_experiment("fu", workloads=["LL2"])
    assert kind == "cycles" and "functional units" in title
    assert columns == ["1T/default", "1T/enhanced",
                       "4T/default", "4T/enhanced"]
    enhanced = [c for _, c, label in jobs if label == "4T/enhanced"][0]
    default = [c for _, c, label in jobs if label == "4T/default"][0]
    assert enhanced.nthreads == 4
    assert sum(enhanced.fu_counts.values()) > sum(default.fu_counts.values())


def test_build_experiment_commit_grid():
    title, kind, columns, jobs = build_experiment(
        "commit", workloads=["LL2", "MPD"], threads=(2,))
    assert kind == "cycles" and "2 threads" in title
    assert columns == ["Multiple", "Lowest"]
    assert [(w, c.nthreads, c.commit_policy.value, label)
            for w, c, label in jobs] == [
        ("LL2", 2, "flexible", "Multiple"),
        ("LL2", 2, "lowest_only", "Lowest"),
        ("MPD", 2, "flexible", "Multiple"),
        ("MPD", 2, "lowest_only", "Lowest")]


@pytest.mark.parametrize("name", ["fetch", "commit", "predictor"])
def test_single_machine_experiment_rejects_several_thread_counts(name):
    with pytest.raises(ValueError, match="give one thread count, not 2"):
        build_experiment(name, workloads=["LL2"], threads=(2, 4))


def test_report_cli_rejects_several_thread_counts_for_one_machine(
        tmp_path, capsys):
    from repro.cli import main

    assert main(["report", "--experiment", "fetch", "--threads", "2", "4",
                 "--workloads", "LL2",
                 "--ledger", str(tmp_path / "ledger.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "one thread count" in err
    assert not (tmp_path / "ledger.jsonl").exists()


def test_alignment_experiment_is_not_reportable():
    # Ledger records do not key on alignment, so its two columns would
    # read the same record.
    with pytest.raises(ValueError, match="unknown experiment"):
        build_experiment("alignment")


def test_run_report_renders_from_ledger(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    csv_path = tmp_path / "threads.csv"
    text = run_report("threads", ledger=ledger, workloads=["LL2"],
                      threads=(1, 2), workers=1, timestamp=T0,
                      csv_path=str(csv_path))
    # The header cross-references the paper figure and EXPERIMENTS.md.
    assert "Figures 5-6" in text and "EXPERIMENTS.md" in text
    assert "IPC vs thread count" in text
    assert "LL2" in text
    # The ledger is the source of truth: both grid points landed in it.
    assert len(ledger.records()) == 2
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "benchmark,1T,2T"
    name, ipc1, ipc2 = lines[1].split(",")
    assert name == "LL2"
    assert float(ipc2) > float(ipc1)  # 2 threads beats 1 on IPC


def test_run_report_table_reflects_latest_ledger_records(tmp_path):
    # Pre-seed the ledger with a bogus record for the same grid point;
    # the report must prefer the fresh run_grid record appended later.
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    bogus = make_record(
        source="test", workload="LL2", config=MachineConfig(nthreads=1),
        stats={"cycles": 1, "committed": 999_999,
               "stall_breakdown": None, "interval_metrics": None},
        timestamp="2020-01-01T00:00:00+00:00")
    ledger.append(bogus)
    text = run_report("threads", ledger=ledger, workloads=["LL2"],
                      threads=(1,), workers=1, timestamp=T0)
    assert "999999" not in text.replace(",", "")
