"""Golden cycle-count equivalence guard.

``tests/data/golden_cycles.json`` is the one engine fixture: each case
names a workload and the configuration fields that differ from the
defaults, and pins exact cycle counts (plus commit/squash/mispredict
totals and the workload checksum) and the profiled call count. The
cases sample the paper's thread, fetch-policy, commit-policy, SU-depth
and cache sweeps, every other knob the experiment grid varies, plus
stall-heavy points for the fast-forward. The
engine — incremental scheduling-unit indexes and the idle-cycle
fast-forward — must reproduce every number bit-identically, with
fast-forward enabled *and* disabled. Any diff here means a timing-model
change: either fix it, or (if intentional) bump
``repro.core.pipeline.ENGINE_VERSION`` and re-pin with
``repro check --baseline tests/data/golden_cycles.json --update``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import MachineConfig
from repro.core.pipeline import ENGINE_VERSION
from repro.obs import sentry

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_cycles.json"
VERSION, CASES = sentry.load_fixture(FIXTURE)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_fixture_and_cases_agree():
    # Pinned under the current engine, and each case stores exactly the
    # fields that differ from the default machine.
    assert VERSION == ENGINE_VERSION
    defaults = MachineConfig().to_spec()
    stored = json.loads(FIXTURE.read_text())["cases"]
    for label, case in CASES.items():
        spec = case.config.to_spec()
        assert stored[label]["config"] == {
            key: value for key, value in spec.items()
            if value != defaults[key]}


def _varied(config):
    """The ``to_spec`` fields where ``config`` leaves the defaults."""
    defaults = MachineConfig().to_spec()
    return {key for key, value in config.to_spec().items()
            if value != defaults[key]}


def test_every_knob_the_paper_grid_varies_has_a_golden_case():
    # A cycle change under a knob that only the experiment grid varies
    # would otherwise surface only in a cold benchmark run, not here or
    # in repro check. A new experiment knob needs a case too.
    from repro.harness.experiments import EXPERIMENTS

    varied = set().union(*(_varied(config)
                           for experiment in EXPERIMENTS.values()
                           for _, config in experiment.columns()))
    pinned = set().union(*(_varied(case.config) for case in CASES.values()))
    assert varied - pinned == set(), "add a golden case for each"


@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["ff-on", "ff-off"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_cycles(label, fast_forward):
    case = CASES[label]
    sim = sentry.build(case, fast_forward=fast_forward)
    got = sentry.outcome(case, sim, sim.run())
    assert got == {key: case.pins[key] for key in sentry.EXACT}


_COUNT = """
import sys
from repro.obs import sentry
_, cases = sentry.load_fixture(sys.argv[1])
for label in sys.argv[2:]:
    case = cases[label]
    sentry.build(case).run()
    calls = sentry.count_calls(case)
print(calls)
"""


def _warmed_calls(*labels):
    """Calls of the last of ``labels``, each run warmed then profiled in
    order, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _COUNT, str(FIXTURE), *labels],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, check=True, timeout=300)
    return int(out.stdout)


def test_warmed_calls_ignore_what_ran_before():
    # Profiled first in the process, or after two other cases: a warm
    # count is the same.
    label = "LL5-1t-mp32"
    first = _warmed_calls(label)
    assert first == _warmed_calls("LL2-1t-default", "Water-2t-divheavy",
                                  label)
    assert first == CASES[label].pins["calls"]


def test_calls_pin_matches_fixture():
    case = CASES["LL2-1t-default"]
    sentry.build(case).run()
    assert sentry.count_calls(case) == case.pins["calls"]
