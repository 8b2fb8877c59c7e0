"""Harness tests: runner memoization, experiment drivers on a tiny
workload subset, and table rendering."""

import pytest

from repro.core import CommitPolicy, FetchPolicy, MachineConfig
from repro.harness import (
    Runner,
    cache_study,
    commit_study,
    fetch_policy_study,
    format_table,
    fu_study,
    fu_usage_study,
    series_table,
    speedup_summary,
    su_depth_study,
    thread_sweep,
)
from repro.harness.experiments import speedup
from repro.isa.opcodes import FuClass
from repro.lang import compile_source
from repro.workloads import Workload

# A tiny synthetic workload so harness tests stay fast.
_TINY_SOURCE = """
int n = 32;
int a[32];
int partial[8];
int checksum;
void main() {
    int t; int nt; int i; int s;
    t = tid(); nt = nthreads();
    for (i = t; i < n; i = i + nt) { a[i] = i * 3; }
    barrier();
    s = 0;
    for (i = t; i < n; i = i + nt) { s = s + a[i]; }
    partial[t] = s;
    barrier();
    if (t == 0) {
        s = 0;
        for (i = 0; i < nt; i = i + 1) { s = s + partial[i]; }
        checksum = s;
    }
    barrier();
}
"""


def _tiny_mirror(nthreads):
    return sum(i * 3 for i in range(32))


TINY = Workload("Tiny", 1, _TINY_SOURCE, _tiny_mirror, tolerance=0)


@pytest.fixture(scope="module")
def runner():
    return Runner()


def test_runner_verifies_and_caches(runner):
    config = MachineConfig(nthreads=2)
    first = runner.run(TINY, config)
    second = runner.run(TINY, config)
    assert first is second
    assert first.verified
    assert first.cycles > 0


def test_runner_distinguishes_configs(runner):
    a = runner.run(TINY, MachineConfig(nthreads=2))
    b = runner.run(TINY, MachineConfig(nthreads=2, su_entries=32))
    assert a is not b


def test_runner_overrides(runner):
    result = runner.run(TINY, MachineConfig(nthreads=2), su_entries=128)
    assert result.stats.config.su_entries == 128


def test_runner_flags_wrong_checksum():
    bad = Workload("Bad", 1, _TINY_SOURCE, lambda n: -1, tolerance=0)
    with pytest.raises(AssertionError):
        Runner().run(bad, MachineConfig(nthreads=1))


def test_fetch_policy_study_shape(runner):
    series = fetch_policy_study(runner, [TINY], nthreads=2)
    assert set(series) == {"TrueRR", "MaskedRR", "CSwitch", "BaseCase"}
    assert all("Tiny" in row for row in series.values())


def test_thread_sweep_shape(runner):
    sweep = thread_sweep(runner, [TINY], threads=(1, 2))
    assert set(sweep) == {1, 2}
    assert sweep[1]["Tiny"] > 0


def test_cache_study_shape(runner):
    study = cache_study(runner, [TINY], threads=(1, 2))
    assert set(study) == {"direct", "assoc"}
    entry = study["direct"][2]
    assert 0 <= entry["hit_rates"]["Tiny"] <= 1
    assert entry["cycles"]["Tiny"] > 0


def test_su_depth_study_shape(runner):
    study = su_depth_study(runner, [TINY], depths=(32, 64), threads=(1, 2))
    assert set(study) == {(1, 32), (1, 64), (2, 32), (2, 64)}


def test_fu_study_shape(runner):
    study = fu_study(runner, [TINY], threads=(2,))
    assert set(study) == {(2, "default"), (2, "enhanced")}


def test_fu_usage_study_reports_extra_units(runner):
    usage = fu_usage_study(runner, [TINY], nthreads=2)
    assert FuClass.IALU in usage
    assert len(usage[FuClass.IALU]) == 2  # enhanced adds two ALUs
    for fractions in usage.values():
        assert all(0 <= f <= 1 for f in fractions)


def test_commit_study_shape(runner):
    study = commit_study(runner, [TINY], nthreads=2)
    assert set(study) == {"Multiple", "Lowest"}


def test_speedup_formula():
    assert speedup(multi_cycles=50, single_cycles=100) == pytest.approx(1.0)
    assert speedup(multi_cycles=200, single_cycles=100) == pytest.approx(-0.5)


def test_speedup_summary_shape(runner):
    summary = speedup_summary(runner, [TINY], threads=(1, 2))
    entry = summary["Tiny"]
    assert entry["best_threads"] == 2
    assert 2 in entry["per_thread"]


def test_decoded_program_is_cached_and_prebuilt():
    from repro.harness.runner import decoded_program, program_hash
    from repro.workloads import by_name

    workload = by_name("LL2")
    program_a, hash_a = decoded_program(workload, 2)
    program_b, hash_b = decoded_program(workload, 2)
    assert program_a is program_b
    assert hash_a == hash_b == program_hash(program_a)
    # Execution closures were prebuilt for the ALU/FP instructions.
    assert any(getattr(instr, "_exec", None) is not None
               for instr in program_a.instructions)


def test_compiler_imports_only_the_toolchain_packages():
    # The cache key's toolchain digest covers exactly these packages;
    # a compiler that imported anything else would escape it.
    import json
    import os
    import pathlib
    import subprocess
    import sys

    import repro
    from repro.harness.runner import TOOLCHAIN_SOURCES

    root = pathlib.Path(repro.__file__).resolve().parent
    code = ("import json, sys, repro.lang.compiler; print(json.dumps("
            "{m: sys.modules[m].__file__ for m in sys.modules "
            "if m.split('.')[0] == 'repro'}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ,
                              "PYTHONPATH": str(root.parent)}).stdout
    loaded = json.loads(out)
    assert "repro.lang.compiler" in loaded
    covered = {path for pattern in TOOLCHAIN_SOURCES
               for path in root.glob(pattern)}
    outside = [name for name, path in loaded.items() if name != "repro"
               and pathlib.Path(path).resolve() not in covered]
    assert outside == []


def test_format_table_alignment():
    text = format_table("Title", ["a", "bench"], [[1, "x"], [22, "yy"]])
    assert "Title" in text
    lines = text.splitlines()
    assert len(lines) == 5


def test_series_table_scaling():
    series = {"A": {"w": 2000}, "B": {"w": 1000}}
    text = series_table("T", series, scale=1000.0)
    assert "2.000" in text and "1.000" in text
