"""Observability: typed pipeline events, stall attribution, metrics,
and the cross-run ledger/report layer.

Import surface is deliberately small: :mod:`repro.obs.events` and
:mod:`repro.obs.attribution` are dependency-free plain-data modules, so
the pipeline can import them without cycles; the heavier pieces live in
:mod:`repro.obs.metrics`, :mod:`repro.obs.export`,
:mod:`repro.obs.ledger` (append-only JSONL run ledger),
:mod:`repro.obs.report` (``repro diff`` / ``repro report``),
:mod:`repro.obs.sentry` (the engine gate over the golden fixture), and
:mod:`repro.obs.telemetry` (harness-level sweep events for
``run_grid``) and are imported on demand (``attach_metrics``, the CLI,
the exporters' users). The names re-exported below resolve lazily
(:mod:`repro._lazy`): importing this package, or any module in it,
loads none of them until one is read.

:mod:`repro.obs.runtime` — the process-wide service metrics registry
behind ``GET /metrics`` and ``repro top`` — is deliberately *not*
imported here: a process that never enables service metrics never
executes a line of it (the zero-overhead contract, pinned by
``tests/test_obs_overhead.py``). Import it explicitly.

See ``docs/OBSERVABILITY.md`` for the event taxonomy, the stall
categories, the zero-overhead contract, and the ledger schema.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "attribution": ("CATEGORIES", "StallAttribution", "format_breakdown"),
    "ledger": ("RunLedger", "make_record"),
    "telemetry": ("LiveProgress", "SweepEvent", "SweepMetrics",
                  "SweepTelemetry", "new_sweep_id"),
    "events": ("CommitEvent", "DecodeEvent", "Event", "EventBus",
               "EVENT_TYPES", "FetchEvent", "IssueEvent", "MaskEvent",
               "SquashEvent", "StallEvent", "WritebackEvent"),
})

__all__ = [
    "CATEGORIES",
    "CommitEvent",
    "DecodeEvent",
    "Event",
    "EventBus",
    "EVENT_TYPES",
    "FetchEvent",
    "IssueEvent",
    "LiveProgress",
    "MaskEvent",
    "RunLedger",
    "SquashEvent",
    "StallAttribution",
    "StallEvent",
    "SweepEvent",
    "SweepMetrics",
    "SweepTelemetry",
    "WritebackEvent",
    "format_breakdown",
    "make_record",
    "new_sweep_id",
]
