"""Tests for the EXPERIMENTS.md generator."""

import importlib.util
import pathlib

from repro.harness.claims import CLAIMS, G1, G2

_SPEC = importlib.util.spec_from_file_location(
    "generate_experiments",
    pathlib.Path(__file__).resolve().parent.parent / "tools"
    / "generate_experiments.py")
genexp = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(genexp)


def _point(cycles):
    return {"cycles": cycles, "hit_rate": 0.5, "extra_fu_usage": {}}


def _fake_results():
    """A partial results document: two experiments of fourteen."""
    names = G1 + G2
    return {
        "fetch": {label: {n: _point(100) for n in names}
                  for label in ("TrueRR", "MaskedRR", "CSwitch", "BaseCase")},
        "commit_depth": {label: {n: _point(400 - int(label))
                                 for n in ("LL1", "Water")}
                         for label in ("1", "2", "4", "8")},
    }


def test_build_with_partial_results():
    text = genexp.build(_fake_results())
    assert "# EXPERIMENTS" in text
    assert "Figures 3-4" in text
    assert "| total | 1,100 | 1,100 | 1,100 | 1,100 | +0.0% |" in text
    assert "`commit_depth`" in text
    # Missing experiments degrade gracefully, and their claims are
    # left out of the verdicts.
    assert "`threads` not in results.json" in text
    assert "`fig3.policies_comparable`" in text
    assert "`fig5.most_gain`" not in text


def test_markdown_tables_well_formed():
    text = genexp.build(_fake_results())
    for line in text.splitlines():
        if line.startswith("|"):
            assert line.endswith("|")


def test_helpers():
    assert genexp.fmt(1234) == "1,234"
    assert genexp.pct(0.256) == "+25.6%"
    table = genexp.table(["a", "b"], [[1, 2]])
    assert table.count("\n") == 2


def test_every_claim_reads_a_declared_experiment():
    names = [claim.name for claim in CLAIMS]
    assert len(names) == len(set(names))
    for claim in CLAIMS:
        assert claim.experiments and all(
            name in genexp.EXPERIMENTS for name in claim.experiments)
        assert claim.diverges is None or claim.diverges.strip()
