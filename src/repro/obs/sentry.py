"""Engine regression gate over the golden-cycle fixture.

``tests/data/golden_cycles.json`` is the one engine fixture. Each case
names a workload, the :meth:`MachineConfig.to_spec` fields that differ
from the defaults, and its pins: the exact simulated ``cycles``,
``committed``, ``squashed`` and ``mispredicts`` counts, the workload
``checksum``, and ``calls``, the profiled Python calls of one run. The
golden tests and ``repro check`` both read the cases from here.

The contract mirrors ``docs/PERFORMANCE.md``:

* **Cycle-derived fields are exact.** Any drift without an
  ``ENGINE_VERSION`` bump is a timing-model change and fails.
* **Calls are a deterministic cost proxy.** The profiled count repeats
  exactly from run to run, across hosts and across the supported
  interpreter versions, so it needs no noise band; it fails only when
  it rises more than :data:`CALLS_TOLERANCE` above its pin. Wall-clock
  speed is measured only by same-session A/B runs (``bench/``).
"""

import cProfile
import gc
import json
import pathlib
import pstats
from collections import namedtuple

from repro.core.config import MachineConfig
from repro.core.pipeline import ENGINE_VERSION, PipelineSim
from repro.workloads import BY_NAME

#: Pinned fields a run must reproduce exactly.
EXACT = ("cycles", "committed", "squashed", "mispredicts", "checksum")

#: Allowed relative rise of profiled calls above a case's pin.
CALLS_TOLERANCE = 0.30

#: CPython 3.12 inlines list, dict and set comprehensions into their
#: enclosing function (PEP 709), so older interpreters profile one
#: extra frame per comprehension. Skipping those frames keeps one pin
#: valid on every supported minor version.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: One fixture case: ``workload`` is a :class:`Workload`, ``config`` a
#: :class:`MachineConfig` and ``pins`` maps :data:`EXACT` plus
#: ``calls`` to the pinned values.
Case = namedtuple("Case", "label workload config pins")


def load_fixture(path):
    """``(engine_version, {label: Case})`` from the fixture at ``path``.

    Raises :class:`OSError` if the file cannot be read and
    :class:`ValueError` for anything else wrong with it, naming the
    offending case.
    """
    try:
        doc = json.loads(pathlib.Path(path).read_text())
        version, raw = doc["engine_version"], doc["cases"]
    except (ValueError, TypeError, KeyError) as error:
        raise ValueError(f"not an engine fixture: {error!r}") from error
    if not isinstance(raw, dict) or not raw:
        raise ValueError("'cases' must be a non-empty object")
    cases = {}
    for label, entry in raw.items():
        try:
            missing = [key for key in ("workload", "config", "calls") + EXACT
                       if key not in entry]
            if missing:
                raise ValueError(f"missing {', '.join(missing)}")
            if entry["workload"] not in BY_NAME:
                raise ValueError(f"unknown workload {entry['workload']!r}")
            config = MachineConfig.from_partial_spec(entry["config"])
        except (ValueError, TypeError, AttributeError) as error:
            raise ValueError(f"case {label!r}: {error}") from error
        pins = {key: entry[key] for key in EXACT + ("calls",)}
        cases[label] = Case(label, BY_NAME[entry["workload"]], config, pins)
    return version, cases


def build(case, fast_forward=True):
    """A fresh :class:`PipelineSim` for ``case``."""
    config = case.config
    if config.fast_forward != fast_forward:
        config = config.replace(fast_forward=fast_forward)
    return PipelineSim(case.workload.program(config.nthreads), config)


def outcome(case, sim, stats):
    """The :data:`EXACT` fields of a finished run of ``case``."""
    return {
        "cycles": stats.cycles,
        "committed": stats.committed,
        "squashed": stats.squashed,
        "mispredicts": stats.mispredicts,
        "checksum": sim.mem(case.workload.checksum_address(
            case.config.nthreads)),
    }


def count_calls(case):
    """Profiled calls (builtins included) of one run of ``case``.

    Run the case once first: the first run of a program memoizes each
    instruction's operands lazily, so a cold count would depend on
    what the process simulated before. Pending garbage is collected
    first and automatic collection is off for the whole profiled run,
    so no finalizer runs inside it. A zero threshold rather than
    :func:`gc.disable` keeps the engine's own ``gc.isenabled()`` check
    true, so the pinned counts still include its disable/enable pair.
    """
    sim = build(case)
    profiler = cProfile.Profile()
    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(0)
    try:
        profiler.runcall(sim.run)
    finally:
        gc.set_threshold(*thresholds)
    return sum(ncalls for (_, _, name), (_, ncalls, *_)
               in pstats.Stats(profiler).stats.items()
               if name not in _INLINED)


def compare(case, measured):
    """Failure messages for ``measured`` against ``case``'s pins.

    ``measured`` maps :data:`EXACT` and ``calls`` to a run's values.
    Any difference in an exact field fails; calls fail only above the
    tolerance band, so a drop never does.
    """
    failures = []
    for key in EXACT:
        want, got = case.pins[key], measured[key]
        if got != want:
            failures.append(
                f"{case.label}: simulated {key} {got}, pinned {want} — "
                f"timing model changed; bump ENGINE_VERSION and re-pin "
                f"with repro check --update")
    want, got = case.pins["calls"], measured["calls"]
    if got > want * (1 + CALLS_TOLERANCE):
        failures.append(
            f"{case.label}: {got:,} profiled calls, {got / want - 1:.0%} "
            f"above the pinned {want:,} (allowed {CALLS_TOLERANCE:.0%})")
    return failures


def repin(path, measured, version):
    """Rewrite the pins of the ``measured`` cases in the fixture file.

    ``measured`` maps labels to :func:`compare`-style dicts and
    ``version`` is the fixture's ``engine_version``. Calls always move
    to the new count; a cycle-derived field may change only if
    ``ENGINE_VERSION`` differs from ``version``, which the rewrite then
    stamps. Returns the refusal messages; the file is written only when
    there are none.
    """
    path = pathlib.Path(path)
    doc = json.loads(path.read_text())
    refused = []
    for label, values in measured.items():
        entry = doc["cases"][label]
        changed = [key for key in EXACT if entry[key] != values[key]]
        if changed and version == ENGINE_VERSION:
            refused.append(
                f"{label}: {', '.join(changed)} changed but ENGINE_VERSION "
                f"is still {ENGINE_VERSION}; bump it before re-pinning")
        entry.update(values)
    if not refused:
        doc["engine_version"] = ENGINE_VERSION
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return refused
