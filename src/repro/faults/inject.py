"""Fault injectors: worker crash, worker hang, transient exception,
cache-file corruption.

A :class:`FaultPlan` is a small, picklable schedule of fault *rules*.
The parallel harness hands the plan to every worker inside the job
tuple; the worker calls :meth:`FaultPlan.apply` with its job index and
attempt number before simulating, and the plan decides — purely from
``(seed, index, attempt, rule)`` — whether to fire. Determinism is the
whole point: a fault-matrix test that fails replays identically.

Rule semantics
--------------
Each rule selects jobs by *index* (``indices=None`` matches every job)
and fires only while ``attempt < attempts``, so ``attempts=1`` models a
fault that heals on retry and a large ``attempts`` models a persistent
fault that must exhaust the harness's retry budget. An optional
``probability`` thins the selection deterministically via a seeded
hash.

Inline degradation
------------------
``run_grid(workers=1)`` executes jobs in the parent process, where a
real ``os._exit`` or multi-hour sleep would take the whole harness
down. Inline, ``crash`` and ``hang`` rules therefore degrade to
raising :class:`InjectedCrash` / :class:`InjectedHang` — still
exercising the retry bookkeeping, just not actual process death. In a
pool worker they are real: ``crash`` kills the process (producing a
``BrokenProcessPool`` in the parent) and ``hang`` sleeps past any
sensible per-job timeout.
"""

import hashlib
import json
import os
import pathlib
import time

#: Exit status used by an injected worker crash (visible in pool logs).
CRASH_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """A deliberately injected transient failure (retryable)."""


class InjectedCrash(InjectedFault):
    """Inline stand-in for a worker-process death."""


class InjectedHang(InjectedFault):
    """Inline stand-in for a hung worker."""


def _chance(seed, index, attempt, salt):
    """Deterministic uniform draw in [0, 1) from the rule coordinates."""
    text = f"{seed}:{salt}:{index}:{attempt}".encode()
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class FaultPlan:
    """Seedable schedule of faults for a :func:`run_grid` invocation.

    Usage::

        plan = FaultPlan(seed=7)
        plan.crash(indices=[2], attempts=1)      # dies once, then heals
        plan.hang(indices=[0], seconds=3600)     # wedges on every attempt
        plan.fail(probability=0.2)               # 20% of first attempts
        run_grid(jobs, fault_plan=plan, timeout=5.0)
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._rules = []

    # ------------------------------------------------------ rule builders

    def _add(self, kind, indices, attempts, probability, **extra):
        if attempts < 1:
            raise ValueError("attempts must be >= 1 (rule would never fire)")
        rule = dict(kind=kind, attempts=attempts, probability=probability,
                    indices=None if indices is None else sorted(indices),
                    **extra)
        self._rules.append(rule)
        return self

    def crash(self, indices=None, attempts=1, probability=None):
        """Kill the worker process mid-job (``BrokenProcessPool``)."""
        return self._add("crash", indices, attempts, probability)

    def hang(self, indices=None, attempts=1, probability=None,
             seconds=3600.0):
        """Wedge the worker for ``seconds`` (per-job timeout territory)."""
        return self._add("hang", indices, attempts, probability,
                         seconds=seconds)

    def fail(self, indices=None, attempts=1, probability=None,
             message="injected transient fault"):
        """Raise :class:`InjectedFault` (exercises retry/backoff)."""
        return self._add("fail", indices, attempts, probability,
                         message=message)

    # -------------------------------------------------------- evaluation

    def matches(self, index, attempt):
        """Kinds of every rule that would fire for ``(index, attempt)``."""
        fired = []
        for rule in self._rules:
            indices = rule["indices"]
            if indices is not None and index not in indices:
                continue
            if attempt >= rule["attempts"]:
                continue
            probability = rule["probability"]
            if probability is not None and _chance(
                    self.seed, index, attempt, rule["kind"]) >= probability:
                continue
            fired.append(rule["kind"])
        return fired

    def apply(self, index, attempt, inline=False):
        """Fire every matching rule for this ``(index, attempt)``.

        Called by the worker entry point before simulating. ``inline``
        selects the degraded (exception-raising) form of ``crash`` and
        ``hang`` so a pool-less run survives the injection.
        """
        for rule in self._rules:
            indices = rule["indices"]
            if indices is not None and index not in indices:
                continue
            if attempt >= rule["attempts"]:
                continue
            probability = rule["probability"]
            if probability is not None and _chance(
                    self.seed, index, attempt, rule["kind"]) >= probability:
                continue
            self._trigger(rule, index, attempt, inline)

    def _trigger(self, rule, index, attempt, inline):
        kind = rule["kind"]
        if kind == "fail":
            raise InjectedFault(
                f"{rule['message']} (job {index}, attempt {attempt})")
        if kind == "crash":
            if inline:
                raise InjectedCrash(
                    f"injected worker crash (job {index}, attempt {attempt})")
            os._exit(CRASH_EXIT_CODE)
        if kind == "hang":
            if inline:
                raise InjectedHang(
                    f"injected worker hang (job {index}, attempt {attempt})")
            # A real wedge: sleep far past any per-job timeout. If the
            # parent's deadline fires first the process is terminated;
            # otherwise the job continues normally afterwards (a
            # merely-slow worker).
            time.sleep(rule["seconds"])

    def __repr__(self):
        kinds = ", ".join(rule["kind"] for rule in self._rules) or "empty"
        return f"FaultPlan(seed={self.seed}, rules=[{kinds}])"


def corrupt_file(path, mode="truncate", seed=0):
    """Deterministically corrupt ``path`` in place (cache-rot injector).

    Modes: ``truncate`` keeps the first half of the file (torn write),
    ``garbage`` prefixes an unterminated JSON object (bad serializer),
    ``binary`` replaces the content with seeded pseudo-random bytes
    (disk corruption). Returns the path for chaining.
    """
    path = pathlib.Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
    elif mode == "garbage":
        path.write_bytes(b'{"unterminated": ' + data[:32])
    elif mode == "binary":
        out = bytearray()
        counter = 0
        while len(out) < max(64, len(data)):
            out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
            counter += 1
        path.write_bytes(bytes(out[: max(64, len(data))]))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}; "
                         f"expected truncate, garbage, or binary")
    return path


def _pick_case(data, path, seed, salt):
    """A seeded label of the engine fixture ``data`` read from ``path``."""
    cases = data.get("cases") if isinstance(data, dict) else None
    if not isinstance(cases, dict) or not cases:
        raise ValueError(f"{path} has no 'cases' object to corrupt")
    labels = sorted(cases)
    return labels[int(_chance(seed, 0, 0, salt) * len(labels))]


def perturb_cycles(path, seed=0):
    """Deterministically corrupt one pinned cycle count in ``path``.

    ``path`` is an engine fixture (``tests/data/golden_cycles.json``'s
    shape). One case — chosen by a seeded hash — gets its ``cycles``
    nudged by a seeded, non-zero delta in ``[-8, +8]``, modelling a
    silent timing-model drift that ``repro check`` must catch via its
    bit-identical-cycles assertion. Returns ``(label, old, new)``; same
    seed, same file → same corruption.
    """
    path = pathlib.Path(path)
    data = json.loads(path.read_text())
    label = _pick_case(data, path, seed, "perturb-label")
    delta = 1 + int(_chance(seed, 0, 0, "perturb-delta") * 8)
    if _chance(seed, 0, 0, "perturb-sign") < 0.5:
        delta = -delta
    case = data["cases"][label]
    old = case["cycles"]
    case["cycles"] = old + delta
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return label, old, case["cycles"]


def inflate_calls(path, seed=0, factor=None):
    """Make one case of the fixture ``path`` look ``factor``× costlier.

    The case's pinned ``calls`` is divided by ``factor``, so the
    engine's unchanged count reads as that many times the pin — an
    injected cost regression. ``factor`` defaults to a seeded draw in
    ``[1.35, 2)``, beyond ``repro check``'s 30% band; a ``factor``
    below 1 models a cost drop instead, which must pass. Returns
    ``(label, old, new)`` pins; same seed, same file → same change.
    """
    path = pathlib.Path(path)
    data = json.loads(path.read_text())
    label = _pick_case(data, path, seed, "inflate-label")
    if factor is None:
        factor = 1.35 + 0.65 * _chance(seed, 0, 0, "inflate-factor")
    case = data["cases"][label]
    old = case["calls"]
    case["calls"] = int(old / factor)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return label, old, case["calls"]
