"""Wire protocol of the job service: request validation and identity.

A submission is one JSON object::

    {"workload": "matmul",            # required, a paper workload name
     "config": {"nthreads": 4},       # optional partial MachineConfig
     "aligned": false,                # optional fetch-alignment variant
     "instrument": false,             # optional stall attribution
     "sweep_id": "autopilot-3",       # optional ledger sweep stamp
     "client": "laptop-a",            # optional rate-limit identity
     "request_id": "c0ffee12",        # optional correlation id
     "chaos": {"crash": {...}}}       # optional, --allow-chaos only

``config`` is a *partial* :meth:`MachineConfig.to_spec` dict: the
given fields are overlaid on the defaults, so a client states only
what it varies. Unknown request or config fields are rejected with a
field-by-field error rather than silently ignored — a typoed knob must
never simulate the wrong machine.

The **job id** is the content-addressed identity
``hash(ENGINE_VERSION, (workload, aligned[, instrumented], config key),
(sha256(workload source), nthreads, aligned, toolchain digest))`` —
byte-for-byte the disk result cache's key
(:func:`repro.harness.parallel._job_key`). That single identity drives
both layers of dedup: the registry coalesces concurrent identical
submissions onto one in-flight job, and the cache answers repeats of
finished ones, and the two can never disagree about what "identical"
means. Resubmitting a payload is therefore idempotent by construction.
The id needs no compiled program. Submission compiles a point only
when the server does not already know its id, so one that does not
compile is refused with a 400 instead of failing later in a worker. A
known id needs no compile: a registry entry was admitted after its
point compiled, and a disk-cache entry under the id proves the point
compiled with this source and toolchain, because both are in the key.

``chaos`` maps a :class:`repro.faults.FaultPlan` rule name (``crash``,
``hang``, ``fail``) to its keyword arguments and fires inside the
worker that executes this job — the over-the-wire fault-injection hook
the chaos suite uses. It is refused (403) unless the server was
started with ``--allow-chaos``, and it is deliberately *excluded* from
the job id: a chaos run and a clean run of the same job are the same
job, which is exactly what makes crash-then-retry recovery testable
against the cached truth.

``request_id`` is the correlation id threaded through the stack
(access log, telemetry events, ledger record); clients usually send it
as the ``X-Repro-Request-Id`` header, but the payload field wins when
both are present. It must match :data:`REQUEST_ID`: a payload field
that does not is refused with a 400, and a header that does not is
replaced by a server-minted id. Like ``chaos`` it is *excluded* from
the job id — tracing identity never changes simulation identity.
"""

import re

from repro.asm import AsmError
from repro.core import MachineConfig
from repro.lang import CompileError
from repro.obs.ledger import fingerprint
from repro.workloads import BY_NAME, by_name

#: FaultPlan rule builders a submission may invoke via ``chaos``.
CHAOS_RULES = ("crash", "hang", "fail")

#: What a correlation id may be: short, and safe to echo in a header
#: and write to logs and the ledger as it is.
REQUEST_ID = re.compile(r"[A-Za-z0-9._-]{1,64}")

_REQUEST_FIELDS = ("workload", "config", "aligned", "instrument",
                   "sweep_id", "client", "request_id", "chaos")


class ProtocolError(Exception):
    """A malformed or refused submission; carries the HTTP status."""

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


class JobRequest:
    """One parsed, validated submission.

    Plain data plus the derived identity: ``config`` is the fully
    resolved :class:`MachineConfig`, ``job_id`` the content-addressed
    dedup/cache key, and ``fingerprint`` the short config fingerprint
    the ledger and telemetry display.
    """

    __slots__ = ("workload", "config", "aligned", "instrument", "sweep_id",
                 "client", "request_id", "chaos", "job_id", "fingerprint")

    def __init__(self, workload, config, aligned, instrument, sweep_id,
                 client, chaos, job_id, request_id=None):
        self.workload = workload        # canonical workload name
        self.config = config
        self.aligned = aligned
        self.instrument = instrument
        self.sweep_id = sweep_id
        self.client = client
        self.request_id = request_id
        self.chaos = chaos
        self.job_id = job_id
        self.fingerprint = fingerprint(config.to_spec())

    def __repr__(self):
        return (f"JobRequest({self.workload!r}, job_id={self.job_id[:12]}, "
                f"sweep_id={self.sweep_id!r})")


def _require(condition, message, status=400):
    if not condition:
        raise ProtocolError(message, status=status)


def _build_config(spec):
    """Overlay a partial user spec on the defaults and validate it."""
    try:
        return MachineConfig.from_partial_spec(spec)
    except (ValueError, TypeError) as error:
        raise ProtocolError(f"invalid configuration: {error}") from error


def _check_chaos(chaos, allow_chaos):
    from repro.faults import FaultPlan

    _require(isinstance(chaos, dict),
             "chaos must be an object mapping rule name to kwargs")
    _require(allow_chaos,
             "chaos injection refused: server started without "
             "--allow-chaos", status=403)
    probe = FaultPlan()
    for rule, kwargs in chaos.items():
        _require(rule in CHAOS_RULES,
                 f"unknown chaos rule {rule!r} "
                 f"(expected one of: {', '.join(CHAOS_RULES)})")
        _require(isinstance(kwargs, dict),
                 f"chaos rule {rule!r} must map to a kwargs object")
        try:
            getattr(probe, rule)(indices=[0], **kwargs)
        except (TypeError, ValueError) as error:
            raise ProtocolError(
                f"invalid chaos rule {rule!r}: {error}") from error
    return chaos


def parse_job_request(payload, allow_chaos=False, known=None):
    """Validate one submission payload into a :class:`JobRequest`.

    Raises :class:`ProtocolError` (status 400, or 403 for refused
    chaos) with a message naming every problem it can see — including
    a workload that does not compile for the requested thread count.
    ``known(job_id)``, when given, says whether the caller already
    holds the job; a known job is not compiled again.
    """
    from repro.harness.parallel import _job_key

    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
    _require(not unknown,
             f"unknown request field(s): {', '.join(unknown)} "
             f"(expected: {', '.join(_REQUEST_FIELDS)})")

    wname = payload.get("workload")
    _require(isinstance(wname, str) and wname,
             "missing required field 'workload'")
    _require(wname in BY_NAME,
             f"unknown workload {wname!r} "
             f"(expected one of: {', '.join(sorted(BY_NAME))})")
    workload = by_name(wname)

    spec = payload.get("config") or {}
    _require(isinstance(spec, dict), "config must be an object")
    config = _build_config(spec)

    aligned = payload.get("aligned", False)
    instrument = payload.get("instrument", False)
    _require(isinstance(aligned, bool), "aligned must be a boolean")
    _require(isinstance(instrument, bool), "instrument must be a boolean")

    sweep_id = payload.get("sweep_id")
    _require(sweep_id is None or (isinstance(sweep_id, str) and sweep_id),
             "sweep_id must be a non-empty string")
    client = payload.get("client")
    _require(client is None or isinstance(client, str),
             "client must be a string")
    request_id = payload.get("request_id")
    _require(request_id is None
             or (isinstance(request_id, str)
                 and REQUEST_ID.fullmatch(request_id)),
             "request_id must be 1-64 of the characters A-Z a-z 0-9 . _ -")

    chaos = payload.get("chaos")
    if chaos is not None:
        chaos = _check_chaos(chaos, allow_chaos)

    job_id = _job_key(workload, config, aligned, instrument)
    if known is None or not known(job_id):
        try:
            workload.program(config.nthreads, aligned=aligned)
        except (CompileError, AsmError) as error:
            raise ProtocolError(str(error)) from error
    return JobRequest(workload.name, config, aligned, instrument,
                      sweep_id, client, chaos, job_id,
                      request_id=request_id)
