"""Engine gate: fixture comparison, fault injection, repro check."""

import gc
import json

import pytest

from repro.cli import main
from repro.faults import inflate_calls, perturb_cycles
from repro.obs import sentry

FIXTURE = "tests/data/golden_cycles.json"

#: Cheap cases for the end-to-end paths: each is simulated twice.
CHEAP = ("LL2-1t-default", "LL2-2t-su128", "LL5-1t-mp32")

_, CASES = sentry.load_fixture(FIXTURE)


def _fixture(tmp_path, labels=CHEAP, name="fixture.json"):
    """A copy of the fixture holding only ``labels``."""
    doc = json.loads(open(FIXTURE).read())
    doc["cases"] = {label: doc["cases"][label] for label in labels}
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _pins(label="LL2-1t-default", **changes):
    return {**CASES[label].pins, **changes}


# ------------------------------------------------------- compare paths

def test_check_baseline_clean_pass():
    assert sentry.compare(CASES["LL2-1t-default"], _pins()) == []


def test_check_baseline_cycle_drift_always_fatal():
    # One simulated cycle off is a timing-model change, even when the
    # run got cheaper.
    (failure,) = sentry.compare(CASES["LL2-1t-default"],
                                _pins(cycles=5780, calls=1))
    assert "5780" in failure and "5779" in failure
    assert "ENGINE_VERSION" in failure


def test_calls_band_fails_only_above_tolerance():
    case = CASES["LL2-1t-default"]
    pinned = case.pins["calls"]
    inside = int(pinned * (1 + sentry.CALLS_TOLERANCE))
    assert sentry.compare(case, _pins(calls=inside)) == []
    (failure,) = sentry.compare(case, _pins(calls=inside + 1))
    assert f"{pinned:,}" in failure and "30%" in failure
    assert sentry.compare(case, _pins(calls=pinned // 2)) == []


def test_check_baseline_ignores_labels_missing_from_baseline(tmp_path):
    # `--entry` checks a subset cleanly against the full fixture, even
    # when a case it does not run is off.
    path = _fixture(tmp_path)
    doc = json.loads(path.read_text())
    doc["cases"]["LL2-2t-su128"]["cycles"] += 1
    path.write_text(json.dumps(doc))
    assert main(["check", "--baseline", str(path), "--entry",
                 "LL5-1t-mp32", "--no-ledger"]) == 0


def test_matrix_labels_match_committed_baseline():
    # Every case the earlier engine yardsticks pinned stays pinned, the
    # eight two-thread sweep members add up to the old aggregate, and
    # each knob only the experiment grid varies has its own case.
    pinned = {
        "LL1-4t-smalldirect", "LL2-1t-default", "LL2-1t-maskedrr-missheavy",
        "LL2-2t-missheavy", "LL2-4t-maskedrr", "LL3-2t-su32-norename",
        "LL7-4t-cswitch-lowest", "MPD-4t-icache", "Sieve-4t-icount",
        "Water-1t-lowest-nobypass", "Water-2t-divheavy", "LL2-1t-mp64",
        "LL2-4t-mp64", "LL5-1t-mp32", "Matrix-8t-su256-mp32",
        "LL3-8t-icount-su256"}
    sweep = {"LL2-2t-su32", "LL2-2t-default", "LL2-2t-su128",
             "LL2-2t-mp64", "LL2-2t-missheavy", "LL2-2t-icount",
             "LL2-2t-maskedrr", "LL2-2t-nobypass"}
    knobs = {"LL2-2t-enhanced", "LL2-2t-maskedrr-longlat", "LL2-2t-private",
             "LL2-2t-sb4", "MPD-2t-sb16"}
    assert set(CASES) == pinned | sweep | knobs
    assert sum(CASES[label].pins["cycles"] for label in sweep) == 120_405


# ------------------------------------------------------- fault injectors

def test_perturb_cycles_deterministic(tmp_path):
    hit_a = perturb_cycles(_fixture(tmp_path, name="a.json"), seed=7)
    hit_b = perturb_cycles(_fixture(tmp_path, name="b.json"), seed=7)
    assert hit_a == hit_b  # same seed, same file -> same corruption
    label, old, new = hit_a
    assert new != old and 1 <= abs(new - old) <= 8
    data = json.loads((tmp_path / "a.json").read_text())
    assert data["cases"][label]["cycles"] == new


def test_perturb_cycles_rejects_shapeless_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"cases": {}}))
    with pytest.raises(ValueError, match="no 'cases' object"):
        perturb_cycles(path)
    with pytest.raises(ValueError, match="no 'cases' object"):
        inflate_calls(path)


def test_inflate_calls_deterministic(tmp_path):
    hit_a = inflate_calls(_fixture(tmp_path, name="a.json"), seed=3)
    hit_b = inflate_calls(_fixture(tmp_path, name="b.json"), seed=3)
    assert hit_a == hit_b
    label, old, new = hit_a
    assert old / new > 1 + sentry.CALLS_TOLERANCE
    data = json.loads((tmp_path / "a.json").read_text())
    assert data["cases"][label]["calls"] == new


# ------------------------------------------------- repro check end-to-end

def test_repro_check_passes_on_golden_matrix(capsys):
    # The acceptance gate on a clean tree; one cheap case keeps it fast.
    assert main(["check", "--baseline", FIXTURE,
                 "--entry", "LL2-1t-default", "--no-ledger"]) == 0
    out = capsys.readouterr().out
    assert "repro check ok: 1 cases" in out
    assert "calls/cycle" in out


def test_repro_check_fails_on_seeded_corruption(tmp_path, capsys):
    bad = _fixture(tmp_path)
    label, old, new = perturb_cycles(bad, seed=7)
    assert main(["check", "--baseline", str(bad), "--no-ledger"]) == 1
    err = capsys.readouterr().err
    assert label in err and "cycles" in err
    assert f"simulated cycles {old}, pinned {new}" in err
    assert "repro check FAILED: 1 mismatch" in err


def test_repro_check_fails_on_inflated_calls(tmp_path, capsys):
    bad = _fixture(tmp_path)
    label, old, new = inflate_calls(bad, seed=7)
    assert main(["check", "--baseline", str(bad), "--no-ledger"]) == 1
    err = capsys.readouterr().err
    assert label in err and f"pinned {new:,}" in err


def test_repro_check_passes_on_deflated_calls(tmp_path):
    # A cheaper engine is never a failure.
    path = _fixture(tmp_path, labels=("LL5-1t-mp32",))
    inflate_calls(path, seed=7, factor=0.5)
    assert main(["check", "--baseline", str(path), "--no-ledger"]) == 0


@pytest.mark.parametrize("field,value,message", [
    ("config", {"nthread": 2}, "unknown config field"),
    ("workload", "Nope", "unknown workload"),
    ("calls", None, "missing calls"),
])
def test_repro_check_malformed_fixture_exits_2(tmp_path, capsys, field,
                                               value, message):
    path = _fixture(tmp_path, labels=("LL5-1t-mp32",))
    doc = json.loads(path.read_text())
    if value is None:
        del doc["cases"]["LL5-1t-mp32"][field]
    else:
        doc["cases"]["LL5-1t-mp32"][field] = value
    path.write_text(json.dumps(doc))
    assert main(["check", "--baseline", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'LL5-1t-mp32'" in err and message in err


def test_repro_check_update_repins_calls_only(tmp_path, capsys):
    path = _fixture(tmp_path, labels=("LL5-1t-mp32",))
    label, old, _ = inflate_calls(path, seed=7, factor=2.0)
    assert main(["check", "--baseline", str(path), "--update",
                 "--no-ledger"]) == 0
    assert json.loads(path.read_text())["cases"][label]["calls"] == old
    # A cycle change needs an ENGINE_VERSION bump first.
    perturb_cycles(path, seed=7)
    before = path.read_text()
    assert main(["check", "--baseline", str(path), "--update",
                 "--no-ledger"]) == 1
    assert "REFUSED" in capsys.readouterr().err
    assert path.read_text() == before


class _Phoenix:
    """Cyclic garbage whose finalizer makes calls and leaves another
    one behind, so every collection has a finalizer to run."""

    alive = True

    def __init__(self):
        self.cycle = self

    def __del__(self):
        if _Phoenix.alive:
            abs(-1)
            _Phoenix()


def test_count_calls_ignores_pending_garbage_collections():
    case = CASES["LL5-1t-mp32"]
    sentry.build(case).run()
    clean = sentry.count_calls(case)
    thresholds = gc.get_threshold()
    _Phoenix.alive = True
    _Phoenix()
    gc.set_threshold(1)
    try:
        assert sentry.count_calls(case) == clean
    finally:
        gc.set_threshold(*thresholds)
        _Phoenix.alive = False
        gc.collect()


def test_repro_check_unknown_entry_exits_2(capsys):
    assert main(["check", "--baseline", FIXTURE, "--entry", "Nope"]) == 2
    assert "unknown fixture case" in capsys.readouterr().err


def test_repro_check_missing_baseline_exits_2(capsys):
    assert main(["check", "--baseline", "/nonexistent/bench.json"]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_repro_check_appends_ledger(tmp_path):
    from repro.obs.ledger import RunLedger

    ledger = tmp_path / "check-ledger.jsonl"
    assert main(["check", "--baseline", FIXTURE,
                 "--entry", "LL2-1t-default", "--ledger", str(ledger)]) == 0
    (record,) = RunLedger(ledger).records()
    assert record["source"] == "cli.check"
    assert record["workload"] == "LL2"
    assert record["stats"]["cycles"] == 5779
    assert record["cycles_per_sec"]
