"""The simulation job service: ``repro serve`` / ``repro submit``.

The paper's evaluation is parameter sweeps — hundreds of
``(workload, config)`` simulations — and this package serves that
workload over HTTP so many clients (a design-space autopilot, CI, a
colleague's laptop) can share one simulation farm. Stdlib only: an
:mod:`asyncio` front end over the fault-tolerant
:func:`repro.harness.parallel.run_grid` event loop.

Layering, bottom up:

:mod:`repro.service.protocol`
    Request parsing/validation and the content-addressed job identity
    ``(program hash, config fingerprint, ENGINE_VERSION)`` — the same
    key the disk result cache uses, so the dedup and cache layers can
    never disagree about what "the same job" means.
:mod:`repro.service.queue`
    Admission control: a bounded in-flight window (explicit 429 +
    ``Retry-After`` when full) and per-client token-bucket rate
    limiting.
:mod:`repro.service.dedup`
    In-flight request coalescing: N identical concurrent submissions
    share one :class:`~repro.service.dedup.JobEntry`, run at most one
    simulation, and all receive the same bit-identical result.
:mod:`repro.service.server`
    :class:`~repro.service.server.JobService` (the thread-safe core:
    submit, dispatch onto ``run_grid``, graceful drain, health) and the
    asyncio HTTP layer with per-job lifecycle-event streaming reusing
    the :class:`~repro.obs.telemetry.SweepEvent` taxonomy.
:mod:`repro.service.client`
    ``repro submit``'s client: exponential-backoff retries, idempotent
    resubmission, ``Retry-After``-honouring backpressure handling, and
    event-stream following with disconnect recovery.

Every failure mode is injectable via
:class:`repro.faults.ServiceFaultPlan` and proven by
``tests/test_service.py`` and the CI chaos driver
``tools/service_chaos.py``. See ``docs/SERVICE.md`` for the API and
the failure-mode catalogue.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "client": ("ClientDisconnect", "ServiceClient", "ServiceError",
               "ServiceUnavailable", "new_request_id"),
    "dedup": ("JobEntry", "JobRegistry"),
    "protocol": ("JobRequest", "ProtocolError", "parse_job_request"),
    "queue": ("AdmissionController", "TokenBucket"),
    "server": ("AccessLog", "JobService", "ServiceHTTP", "ServiceMetrics",
               "run_server"),
})

__all__ = [
    "AccessLog",
    "AdmissionController",
    "ClientDisconnect",
    "JobEntry",
    "JobRegistry",
    "JobRequest",
    "JobService",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTP",
    "ServiceMetrics",
    "ServiceUnavailable",
    "TokenBucket",
    "new_request_id",
    "parse_job_request",
    "run_server",
]
