"""Persistent result cache: keying, round-trip, merge, corruption."""

import json
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.config import ENGINE_VERSION, MachineConfig
from repro.core.stats import SimStats
from repro.harness.diskcache import (CacheCorruptionWarning, DiskResultCache,
                                     FILE_FORMAT, hash_key)
from repro.harness.runner import Runner, _config_key, program_hash
from repro.workloads import by_name


def test_hash_key_stable_and_order_sensitive():
    assert hash_key(1, "a", [2, 3]) == hash_key(1, "a", [2, 3])
    assert hash_key(1, "a") != hash_key("a", 1)


def test_get_put_roundtrip(tmp_path):
    cache = DiskResultCache(tmp_path / "cache.json")
    assert cache.get("k") is None
    cache.put("k", {"cycles": 42})
    assert cache.get("k") == {"cycles": 42}
    # A fresh instance reads the persisted file.
    again = DiskResultCache(tmp_path / "cache.json")
    assert again.get("k") == {"cycles": 42}
    assert again.hits == 1 and cache.misses == 1


def test_save_merges_concurrent_entries(tmp_path):
    path = tmp_path / "cache.json"
    a = DiskResultCache(path, autosave=False)
    b = DiskResultCache(path, autosave=False)
    a.put("from-a", 1)
    b.put("from-b", 2)
    a.save()
    b.save()  # must not clobber a's entry
    merged = DiskResultCache(path)
    assert merged.get("from-a") == 1
    assert merged.get("from-b") == 2
    document = json.loads(path.read_text())
    assert document["format"] == FILE_FORMAT
    assert set(document["entries"]) == {"from-a", "from-b"}


def _hammer_cache(job):
    """Module-level so it pickles into pool workers."""
    path, worker, count = job
    cache = DiskResultCache(path, autosave=False)
    for n in range(count):
        cache.put(f"w{worker}-k{n}", {"worker": worker, "n": n})
    cache.save()
    return worker


def test_save_survives_concurrent_writer_processes(tmp_path):
    """N processes saving disjoint keys: every key survives the races."""
    path = tmp_path / "cache.json"
    workers, keys_each = 4, 8
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = list(pool.map(_hammer_cache,
                             [(str(path), w, keys_each)
                              for w in range(workers)]))
    assert sorted(done) == list(range(workers))
    merged = DiskResultCache(path)
    assert len(merged) == workers * keys_each
    for w in range(workers):
        for n in range(keys_each):
            assert merged.get(f"w{w}-k{n}") == {"worker": w, "n": n}


def test_one_cache_shared_by_threads_loses_nothing(tmp_path):
    """8 threads put and get distinct keys on one shared cache object:
    every key reaches disk and the hit/miss counters are exact."""
    path = tmp_path / "cache.json"
    cache = DiskResultCache(path)
    threads, keys_each = 8, 25
    # Switch threads as often as possible to provoke interleavings.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    barrier = threading.Barrier(threads)
    errors = []

    def _worker(w):
        try:
            barrier.wait(10)
            for n in range(keys_each):
                key = f"t{w}-k{n}"
                assert cache.get(key) is None
                cache.put(key, {"thread": w, "n": n})
                assert cache.get(key) == {"thread": w, "n": n}
        except Exception as error:  # noqa: BLE001 — surfaced below
            errors.append(error)

    pool = [threading.Thread(target=_worker, args=(w,))
            for w in range(threads)]
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    total = threads * keys_each
    assert cache.counters() == {"hits": total, "misses": total,
                                "dropped": 0, "quarantined": 0,
                                "entries": total}
    on_disk = json.loads(path.read_text())["entries"]
    assert set(on_disk) == {f"t{w}-k{n}" for w in range(threads)
                            for n in range(keys_each)}


def test_corrupt_file_quarantined_not_deleted(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    with pytest.warns(CacheCorruptionWarning, match="quarantined"):
        cache = DiskResultCache(path)
    assert len(cache) == 0
    corpse = tmp_path / "cache.json.corrupt-1"
    assert corpse.read_text() == "{not json"  # evidence preserved
    cache.put("k", 1)
    assert DiskResultCache(path).get("k") == 1


def test_quarantine_numbering_never_overwrites(tmp_path):
    path = tmp_path / "cache.json"
    for n in (1, 2):
        path.write_text(f"garbage #{n}")
        with pytest.warns(CacheCorruptionWarning):
            DiskResultCache(path)
    assert (tmp_path / "cache.json.corrupt-1").read_text() == "garbage #1"
    assert (tmp_path / "cache.json.corrupt-2").read_text() == "garbage #2"


def test_non_object_top_level_quarantined(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("[1, 2, 3]")
    with pytest.warns(CacheCorruptionWarning, match="top level"):
        cache = DiskResultCache(path)
    assert len(cache) == 0


def test_legacy_plain_dict_file_loads(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"old-key": {"cycles": 7}}))
    cache = DiskResultCache(path)
    assert cache.get("old-key") == {"cycles": 7}


def test_schema_drops_entry_missing_required_field(tmp_path):
    path = tmp_path / "cache.json"
    cache = DiskResultCache(path, schema=("cycles", "checksum"))
    cache.put("good", {"cycles": 1, "checksum": 2})
    cache.put("bad", {"cycles": 1})  # missing "checksum"
    with pytest.warns(CacheCorruptionWarning):
        again = DiskResultCache(path, schema=("cycles", "checksum"))
    assert again.get("good") == {"cycles": 1, "checksum": 2}
    assert again.get("bad") is None
    assert again.dropped == 1


def test_schema_tolerates_extra_fields(tmp_path):
    path = tmp_path / "cache.json"
    DiskResultCache(path).put("k", {"cycles": 1, "checksum": 2,
                                    "future-field": True})
    cache = DiskResultCache(path, schema=("cycles", "checksum"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.get("k")["future-field"] is True


def test_get_drops_invalid_in_memory_entry():
    cache = DiskResultCache("/nonexistent/never-written.json",
                            autosave=False, schema=("cycles",))
    cache._entries["bad"] = ["not", "a", "dict"]
    with pytest.warns(CacheCorruptionWarning):
        assert cache.get("bad") is None
    assert cache.misses == 1 and cache.dropped == 1


def test_membership_applies_get_validity_and_counts_nothing():
    cache = DiskResultCache("/nonexistent/never-written.json",
                            autosave=False, schema=("cycles",))
    cache.put("good", {"cycles": 1})
    cache._entries["bad"] = ["not", "a", "dict"]
    assert "good" in cache
    assert "bad" not in cache and "absent" not in cache
    assert cache.counters()["hits"] == cache.counters()["misses"] == 0


def test_stale_engine_entries_dropped(tmp_path):
    path = tmp_path / "cache.json"
    document = {"format": FILE_FORMAT, "entries": {
        "stale": {"engine": 10_000, "payload": {"cycles": 1}},
        "fresh": {"engine": None, "payload": {"cycles": 2}},
    }}
    path.write_text(json.dumps(document))
    with pytest.warns(CacheCorruptionWarning):
        cache = DiskResultCache(path)
    assert cache.get("stale") is None
    assert cache.get("fresh") == {"cycles": 2}


def test_engine_version_bump_never_serves_stale_cycles(tmp_path):
    """A version bump turns every cached entry into a miss, not a lie.

    Simulate once under the current ENGINE_VERSION, then rewrite the
    cache file as if a *previous* engine had produced it — with
    poisoned cycle counts. A fresh Runner must drop the stale entries
    and re-simulate, returning the true cycles; serving the poisoned
    payload would mean a timing-model change could leak through the
    cache.
    """
    from repro.core.pipeline import ENGINE_VERSION

    workload = by_name("LL2")
    config = MachineConfig(nthreads=2)
    path = tmp_path / "cache.json"
    baseline = Runner(disk_cache=path).run(workload, config)

    document = json.loads(path.read_text())
    for entry in document["entries"].values():
        entry["engine"] = ENGINE_VERSION - 1
        entry["payload"]["cycles"] = 1  # poison: must never be served
    path.write_text(json.dumps(document))

    fresh = Runner(disk_cache=path)
    with pytest.warns(CacheCorruptionWarning, match="stale"):
        result = fresh.run(workload, config)
    assert fresh.disk_cache.hits == 0
    assert result.cycles == baseline.cycles != 1


def test_runner_disk_cache_skips_simulation(tmp_path, monkeypatch):
    workload = by_name("LL2")
    config = MachineConfig(nthreads=2)
    path = tmp_path / "cache.json"

    first = Runner(disk_cache=path)
    baseline = first.run(workload, config)
    assert first.disk_cache.misses == 1

    second = Runner(disk_cache=path)
    # Prove the replay path never simulates.
    monkeypatch.setattr(
        "repro.core.pipeline.PipelineSim",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("simulated")))
    replayed = second.run(workload, config)
    assert second.disk_cache.hits == 1
    assert replayed.cycles == baseline.cycles
    assert replayed.checksum == baseline.checksum
    assert replayed.verified
    assert replayed.stats.to_dict() == baseline.stats.to_dict()


def test_warm_grid_compiles_nothing(tmp_path, monkeypatch):
    import repro.harness.runner as runner_mod
    from repro.harness.parallel import run_grid
    from repro.obs.ledger import RunLedger

    def compile_source(*args, **kwargs):
        raise AssertionError("compiled on a cache hit")

    jobs = [("LL2", MachineConfig(nthreads=1)),
            ("LL2", MachineConfig(nthreads=2)),
            ("LL5", MachineConfig(nthreads=1))]
    cache = tmp_path / "cache.json"
    cold_ledger = RunLedger(tmp_path / "cold.jsonl")
    cold = run_grid(jobs, workers=1, disk_cache=cache, ledger=cold_ledger)

    # Forget every compiled program and make compiling raise.
    monkeypatch.setattr("repro.lang.compiler.compile_source",
                        compile_source)
    monkeypatch.setattr(runner_mod, "_DECODE_CACHE", {})
    for name in ("LL2", "LL5"):
        monkeypatch.setattr(by_name(name), "_programs", {})
    warm_ledger = RunLedger(tmp_path / "warm.jsonl")
    warm = run_grid(jobs, workers=1, disk_cache=cache, ledger=warm_ledger)
    assert [r.cycles for r in warm] == [r.cycles for r in cold]
    replayed = Runner(disk_cache=cache).run(by_name("LL2"), jobs[1][1])
    assert replayed.program_hash == cold[1].program_hash

    hashes = [r["program_hash"] for r in cold_ledger.records()]
    assert all(hashes) and len(set(hashes)) == 3
    assert [r["program_hash"] for r in warm_ledger.records()] == hashes
    assert all(r["cached"] for r in warm_ledger.records())


def test_cache_key_tracks_source_and_toolchain(monkeypatch):
    import repro.harness.runner as runner_mod
    from repro.harness.parallel import _job_key
    from repro.workloads.base import Workload

    workload = by_name("LL2")
    config = MachineConfig(nthreads=2)
    key = _job_key(workload, config, False)
    assert key == _job_key(workload, config, False)
    assert key != _job_key(workload, config, True)
    assert key != _job_key(workload, config.replace(nthreads=1), False)
    edited = Workload(workload.name, workload.group,
                      workload.source + "\n// edited\n", workload.mirror)
    assert key != _job_key(edited, config, False)
    monkeypatch.setattr(runner_mod, "toolchain_digest", lambda: "0" * 64)
    assert key != _job_key(workload, config, False)


def test_config_key_covers_mem_words():
    base = MachineConfig()
    assert _config_key(base) != _config_key(base.replace(mem_words=1 << 16))


def test_one_runner_tells_btb_sizes_apart():
    # Water at 2 threads: 7,177 cycles with a 1-entry BTB, 7,815 with
    # 256 entries; a key without the field answered 7,177 for both.
    runner = Runner()
    water = by_name("Water")
    small = runner.run(water, MachineConfig(nthreads=2, btb_entries=1))
    large = runner.run(water, MachineConfig(nthreads=2, btb_entries=256))
    assert (small.cycles, large.cycles) == (7_177, 7_815)


#: ``to_spec`` fields that cannot change a completed run's counts, so
#: the key leaves them out (see ``MachineConfig``).
_UNKEYED = ("max_cycles", "hang_cycles", "fast_forward")


def _perturbations(field, value):
    """Other valid values for one ``to_spec`` field: one per entry of a
    dict-valued field, so a new cache or unit field is caught too."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value * 2]
    if isinstance(value, dict):
        return [{**value, name: value[name] * 2} for name in value]
    choices = {"fetch_policy": "masked_rr", "commit_policy": "lowest_only",
               "masked_criterion": "long_latency",
               "predictor_kind": "gshare",
               "icache": {"size_bytes": 8192, "line_words": 4, "assoc": 1,
                          "miss_penalty": 4, "ports": 1}}
    assert field in choices, (f"no perturbation for new field {field!r}: "
                              f"add one here, and the field to "
                              f"_config_key unless it cannot change "
                              f"a run's counts")
    return [choices[field]]


def test_config_key_covers_every_field_that_can_change_counts():
    base = MachineConfig()
    spec = base.to_spec()
    for field, value in spec.items():
        for other in _perturbations(field, value):
            changed = MachineConfig.from_spec({**spec, field: other})
            assert changed.to_spec()[field] != value, (field, other)
            if field in _UNKEYED:
                assert _config_key(changed) == _config_key(base), field
            else:
                assert _config_key(changed) != _config_key(base), \
                    (field, other)


def test_config_key_ignores_hang_cycles():
    # Like max_cycles, the watchdog threshold cannot change a completed
    # run's counts, so it must not invalidate disk caches.
    base = MachineConfig()
    assert _config_key(base) == _config_key(base.replace(hang_cycles=None))


def test_program_hash_tracks_content():
    workload = by_name("LL2")
    one = program_hash(workload.program(1))
    assert one == program_hash(workload.program(1))
    assert one != program_hash(workload.program(2))


def test_stats_dict_roundtrip():
    config = MachineConfig(nthreads=2)
    stats = SimStats(config)
    stats.cycles = 123
    stats.committed = 45
    stats.committed_per_thread = [20, 25]
    for cls in stats.fu_busy:
        stats.fu_busy[cls] = [7] * len(stats.fu_busy[cls])
    rebuilt = SimStats.from_dict(config, json.loads(
        json.dumps(stats.to_dict())))
    assert rebuilt.to_dict() == stats.to_dict()
    assert rebuilt.ipc == stats.ipc
    assert rebuilt.fu_busy == stats.fu_busy


def test_save_is_byte_deterministic(tmp_path):
    """Same entries, any insertion order -> identical file bytes."""
    a = DiskResultCache(tmp_path / "a.json", autosave=False)
    b = DiskResultCache(tmp_path / "b.json", autosave=False)
    entries = [("k2", {"z": 1, "a": 2}), ("k1", {"m": 3}), ("k0", 7)]
    for key, value in entries:
        a.put(key, value)
    for key, value in reversed(entries):
        b.put(key, value)
    a.save()
    b.save()
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_save_writes_the_sorted_json_of_its_document(tmp_path):
    path = tmp_path / "results.json"
    cache = DiskResultCache(path, autosave=False)
    cache.put("k1", {"z": [1, 2.5, None], "a": "text é"})
    cache.put("k0", {"m": {"y": True, "b": 3}})
    cache.save()
    document = {"format": FILE_FORMAT, "entries": {
        key: {"engine": ENGINE_VERSION, "payload": payload}
        for key, payload in (("k0", {"m": {"y": True, "b": 3}}),
                             ("k1", {"z": [1, 2.5, None],
                                     "a": "text é"}))}}
    assert path.read_text() == json.dumps(document, sort_keys=True)
