"""Run ledger: schema round-trip, resolution, run_grid integration."""

import json

import pytest

from repro.core.config import MachineConfig
from repro.harness.parallel import run_grid
from repro.harness.runner import Runner
from repro.obs.ledger import (LedgerError, LedgerWarning, RunLedger,
                              config_fingerprint, fingerprint, git_sha,
                              make_record)
from repro.workloads import by_name

T0 = "2026-01-01T00:00:00+00:00"


def _record(workload="LL2", nthreads=1, cycles=100, timestamp=T0, **kwargs):
    """A minimal but schema-complete record from real machinery."""
    config = MachineConfig(nthreads=nthreads)
    stats = {"cycles": cycles, "committed": cycles * 2,
             "stall_breakdown": None, "interval_metrics": None}
    return make_record(source="test", workload=workload, config=config,
                       stats=stats, timestamp=timestamp, **kwargs)


# ----------------------------------------------------------- record shape

def test_make_record_schema_roundtrip(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    record = _record(wall_seconds=0.5)
    run_id = ledger.append(record)
    (loaded,) = ledger.records()
    # JSON-clean; the read side supplies the legacy "backend" default.
    assert loaded == {**json.loads(json.dumps(record)), "backend": "scalar"}
    assert loaded["run_id"] == run_id
    assert loaded["schema"] == 1
    assert loaded["config_fingerprint"] == config_fingerprint(
        MachineConfig(nthreads=1))
    assert loaded["cycles_per_sec"] == 200  # 100 cycles / 0.5 s
    assert loaded["timestamp"] == T0


def test_make_record_lifts_attribution_and_metrics():
    config = MachineConfig(nthreads=2)
    workload = by_name("LL2")
    result = Runner(instrument=True).run(workload, config)
    record = make_record(source="test", workload="LL2", config=config,
                         stats=result.stats, timestamp=T0)
    assert record["attribution"] is not None
    assert sum(record["attribution"].values()) > 0
    assert record["metrics"]["samples"] > 0
    assert "su_occupancy_mean" in record["metrics"]
    # The bulky raw histograms are dropped from the stored stats...
    assert record["stats"]["interval_metrics"] is None
    # ...unless explicitly kept (the `repro stats --json` path).
    kept = make_record(source="test", workload="LL2", config=config,
                       stats=result.stats, timestamp=T0,
                       keep_interval_metrics=True)
    assert kept["stats"]["interval_metrics"] is not None


def test_run_id_is_content_fingerprint():
    assert _record()["run_id"] == _record()["run_id"]
    assert _record()["run_id"] != _record(cycles=101)["run_id"]
    assert _record()["run_id"] != _record(timestamp="2026-01-02T00:00:00+00:00")["run_id"]


def test_fingerprint_key_order_insensitive():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})


def test_git_sha_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "cafecafecafe")
    assert git_sha() == "cafecafecafe"
    record = _record()
    assert record["git_sha"] == "cafecafecafe"


# ----------------------------------------------------- append validation

def test_append_rejects_missing_required_field(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    bad = _record()
    del bad["config_fingerprint"]
    with pytest.raises(LedgerError, match="config_fingerprint"):
        ledger.append(bad)
    # Nothing was written — the file does not even exist.
    assert not (tmp_path / "ledger.jsonl").exists()


def test_append_all_is_all_or_nothing(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    bad = _record(cycles=2)
    del bad["stats"]
    with pytest.raises(LedgerError):
        ledger.append_all([_record(cycles=1), bad])
    assert len(ledger.records()) == 0


def test_malformed_lines_skipped_with_warning(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(cycles=1))
    with open(path, "a") as handle:
        handle.write("{truncated json\n")
        handle.write(json.dumps({"schema": 1}) + "\n")  # missing fields
    ledger.append(_record(cycles=2))
    with pytest.warns(LedgerWarning, match="skipped 2"):
        records = ledger.records()
    assert [r["stats"]["cycles"] for r in records] == [1, 2]
    assert ledger.skipped == 2


def test_missing_file_reads_empty(tmp_path):
    ledger = RunLedger(tmp_path / "never-created.jsonl")
    assert ledger.records() == []
    assert len(ledger) == 0


# ------------------------------------------------------------- resolution

def test_resolve_last_and_relative(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    ids = [ledger.append(_record(cycles=n)) for n in (1, 2, 3)]
    assert ledger.resolve("last")["run_id"] == ids[-1]
    assert ledger.resolve("last~0")["run_id"] == ids[-1]
    assert ledger.resolve("last~2")["run_id"] == ids[0]
    with pytest.raises(LedgerError, match="out of range"):
        ledger.resolve("last~3")
    with pytest.raises(LedgerError, match="bad run reference"):
        ledger.resolve("last~x")


def test_resolve_prefix_unknown_and_ambiguous(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    run_id = ledger.append(_record(cycles=1))
    ledger.append(_record(cycles=2))
    assert ledger.resolve(run_id[:6])["run_id"] == run_id
    with pytest.raises(LedgerError, match="no ledger record matches"):
        ledger.resolve("zzzzzz")
    with pytest.raises(LedgerError, match="ambiguous"):
        ledger.resolve("")  # empty prefix matches every distinct run


def test_resolve_empty_ledger(tmp_path):
    with pytest.raises(LedgerError, match="no records"):
        RunLedger(tmp_path / "ledger.jsonl").resolve("last")


def test_latest_by_key_keeps_newest(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    ledger.append(_record(cycles=1))
    ledger.append(_record(cycles=2))  # same workload+config, newer
    ledger.append(_record(nthreads=2, cycles=3))
    latest = ledger.latest_by_key()
    assert len(latest) == 2
    by_threads = {rec["nthreads"]: rec["stats"]["cycles"]
                  for rec in latest.values()}
    assert by_threads == {1: 2, 2: 3}


# ----------------------------------------------------- run_grid integration

def test_run_grid_appends_deterministic_order(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    jobs = [("LL5", MachineConfig(nthreads=1)),
            ("LL2", MachineConfig(nthreads=2)),
            ("LL2", MachineConfig(nthreads=1))]
    run_grid(jobs, workers=1, ledger=ledger, ledger_timestamp=T0)
    records = ledger.records()
    assert len(records) == 3
    keys = [(r["workload"], r["config_fingerprint"]) for r in records]
    assert keys == sorted(keys)  # sorted, not submission/completion order
    assert all(r["source"] == "run_grid" for r in records)
    assert all(r["timestamp"] == T0 for r in records)
    assert all(not r["cached"] for r in records)
    assert all(r["program_hash"] for r in records)


def test_run_grid_marks_cached_replays(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    cache = tmp_path / "cache.json"
    jobs = [("LL2", MachineConfig(nthreads=1))]
    run_grid(jobs, workers=1, disk_cache=cache, ledger=ledger,
             ledger_timestamp=T0)
    run_grid(jobs, workers=1, disk_cache=cache, ledger=ledger,
             ledger_timestamp=T0)
    first, second = ledger.records()
    assert not first["cached"]
    assert second["cached"]
    assert first["stats"]["cycles"] == second["stats"]["cycles"]


def test_ledger_legacy_record_defaults_to_scalar_backend(tmp_path, capsys):
    """Records from engines that no longer exist still load and diff.

    Older ledgers name the engine that ran each record (``"batch"`` or
    ``"spec"``); records written today carry no ``backend`` field and
    read back as ``"scalar"``.
    """
    from repro.cli import main
    from repro.core import PipelineSim

    workload = by_name("LL5")
    config = MachineConfig(nthreads=1)
    stats = PipelineSim(workload.program(1), config).run()
    new = make_record(source="test", workload=workload.name, config=config,
                      stats=stats, timestamp=T0)
    assert "backend" not in new
    legacy = []
    for backend in ("batch", "spec"):
        record = {key: value for key, value in new.items()
                  if key != "run_id"}
        record["backend"] = backend
        record["run_id"] = fingerprint(record)
        legacy.append(record)
    path = tmp_path / "ledger.jsonl"
    path.write_text("".join(json.dumps(record) + "\n"
                            for record in legacy + [new]))
    loaded = RunLedger(path).records()
    assert [r["backend"] for r in loaded] == ["batch", "spec", "scalar"]
    assert [r["stats"]["cycles"] for r in loaded] == [stats.cycles] * 3
    for old in legacy:
        assert main(["diff", old["run_id"], new["run_id"],
                     "--ledger", str(path)]) == 0
    assert "LL5" in capsys.readouterr().out
