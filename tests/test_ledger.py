"""Run ledger: schema round-trip, resolution, run_grid integration."""

import json
import random
import warnings

import pytest

from repro.core.config import MachineConfig
from repro.harness.parallel import run_grid
from repro.harness.runner import Runner
from repro.obs.ledger import (REQUIRED_FIELDS, LedgerError, LedgerWarning,
                              RunLedger, config_fingerprint, fingerprint,
                              git_sha, make_record)
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


# ------------------------------------------------------ newest-first reads

def _raw_record(rng, serial):
    """A schema-complete record with a random key, sweep stamp or none."""
    record = {"schema": 1, "run_id": f"r{serial:05d}", "timestamp": T0,
              "source": "test", "workload": rng.choice(["LL2", "LL5", "Mx"]),
              "engine_version": 4, "config": {},
              "config_fingerprint": rng.choice(["c0", "c1", "c2"]),
              "stats": {"cycles": serial},
              # Long lines so a record spans several small blocks.
              "pad": "x" * rng.randrange(0, 90)}
    if rng.random() < 0.6:
        record["sweep_id"] = rng.choice(["sa", "sb", None])
    return record


def _random_ledger(rng, path):
    """Random valid records mixed with blank and malformed lines; the
    last line is sometimes torn (no newline, truncated)."""
    lines = []
    for serial in range(rng.randrange(0, 40)):
        if rng.random() < 0.15:
            lines.append(rng.choice(["{torn", "[1, 2]", "", "   ",
                                     '{"schema": 1}', "\u00e9 not json"]))
        else:
            lines.append(json.dumps(_raw_record(rng, serial)))
    text = "".join(line + "\n" for line in lines)
    if rng.random() < 0.4:
        torn = json.dumps(_raw_record(rng, 99))
        text += torn[:rng.randrange(1, len(torn))]
    path.write_text(text, encoding="utf-8")


def _full_scan(path):
    """Reference reader: every valid record, oldest first."""
    records = []
    for line in path.read_text(encoding="utf-8").split("\n"):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and all(
                field in record for field in REQUIRED_FIELDS):
            records.append(record)
    return records


def test_latest_by_key_matches_full_scan_on_random_ledgers(tmp_path,
                                                           monkeypatch):
    from repro.obs import ledger as ledger_mod

    rng = random.Random(16)
    path = tmp_path / "ledger.jsonl"
    all_keys = [(w, c) for w in ("LL2", "LL5", "Mx", "Absent")
                for c in ("c0", "c1", "c2")]
    for trial in range(300):
        monkeypatch.setattr(ledger_mod, "BLOCK_SIZE",
                            rng.choice([1, 7, 64, 300, 1 << 16]))
        _random_ledger(rng, path)
        sweep = rng.choice([None, None, "sa", "sb"])
        keys = (None if rng.random() < 0.2
                else set(rng.sample(all_keys, rng.randrange(0, 6))))
        expected = {}
        for record in _full_scan(path):
            key = (record["workload"], record["config_fingerprint"])
            if (sweep is None or record.get("sweep_id") == sweep) \
                    and (keys is None or key in keys):
                expected[key] = record["run_id"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LedgerWarning)
            got = RunLedger(path).latest_by_key(sweep=sweep, keys=keys)
            records = RunLedger(path).records()
        assert {key: r["run_id"] for key, r in got.items()} == expected, \
            trial
        assert [r["run_id"] for r in records] \
            == [r["run_id"] for r in _full_scan(path)], trial


def test_keyed_read_never_parses_the_corrupt_prefix(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text("{rotted\n" * 10_000)
    ledger = RunLedger(path)
    ledger.append(_record(cycles=1))
    ledger.append(_record(nthreads=2, cycles=2))
    keys = [(r["workload"], r["config_fingerprint"])
            for r in (_record(), _record(nthreads=2))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", LedgerWarning)
        latest = ledger.latest_by_key(keys=keys)
        assert ledger.resolve("last~1")["stats"]["cycles"] == 1
    assert sorted(r["stats"]["cycles"] for r in latest.values()) == [1, 2]
    assert ledger.skipped == 0
    # A full read does reach the prefix, and says so.
    with pytest.warns(LedgerWarning, match="skipped 10000"):
        ledger.latest_by_key()


def test_torn_last_line_is_skipped_with_warning(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(cycles=1))
    with open(path, "a") as handle:
        handle.write(json.dumps(_record(cycles=2))[:40])  # writer died
    key = (_record()["workload"], _record()["config_fingerprint"])
    with pytest.warns(LedgerWarning, match="skipped 1 "):
        latest = ledger.latest_by_key(keys=[key])
    assert latest[key]["stats"]["cycles"] == 1


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


def test_plain_key_is_never_answered_by_an_aligned_record(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    jobs = [("LL2", MachineConfig(nthreads=1))]
    run_grid(jobs, workers=1, ledger=ledger, ledger_timestamp=T0)
    run_grid(jobs, workers=1, aligned=True, ledger=ledger,
             ledger_timestamp=T0)
    plain, aligned = ledger.records()
    assert (plain["aligned"], aligned["aligned"]) == (False, True)
    assert plain["stats"]["cycles"] == 5779
    assert aligned["stats"]["cycles"] == 5780
    key = ("LL2", config_fingerprint(MachineConfig(nthreads=1)))
    assert ledger.latest_by_key(keys=[key])[key]["stats"]["cycles"] == 5779
    assert ledger.latest_by_key()[key]["stats"]["cycles"] == 5779


def test_legacy_record_without_alignment_reads_plain(tmp_path):
    record = _record(cycles=7)
    del record["aligned"]
    record["run_id"] = fingerprint({k: v for k, v in record.items()
                                    if k != "run_id"})
    path = tmp_path / "ledger.jsonl"
    path.write_text(json.dumps(record) + "\n")
    ledger = RunLedger(path)
    loaded, = ledger.records()
    assert loaded["aligned"] is False
    assert [r["stats"]["cycles"]
            for r in ledger.latest_by_key().values()] == [7]
