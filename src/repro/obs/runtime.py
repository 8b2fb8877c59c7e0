"""Process-wide runtime metrics: counters, gauges, latency histograms.

This is the *service-level* metrics layer — request rates, queue depth,
worker saturation — and is deliberately distinct from the engine-level
interval metrics in ``repro.obs.metrics`` (which sample architectural
state per simulated cycle).  Nothing in the simulation engine or in
``run_grid`` imports this module; the only producers are the HTTP
service (`repro serve`) and whatever future daemons need operational
telemetry.  That separation is what keeps the PR-2 zero-overhead
contract trivially true here: a process that never constructs a
:class:`MetricsRegistry` never executes a single line of this file
(pinned by ``tests/test_obs_overhead.py``).

The exposition format is Prometheus text (version 0.0.4): ``# HELP`` /
``# TYPE`` headers followed by samples, histograms as cumulative
``_bucket{le=...}`` series plus exact ``_sum`` and ``_count``.  The
module also ships the consumer half — :func:`parse_promtext`,
:func:`histogram_quantile`, and :class:`TopView` — so `repro top` and
the tests can read a scrape without regex archaeology.

All mutation is thread-safe: one lock per registry, shared by every
family and child, because emission sites live on the asyncio event
loop, the dispatcher threads, and executor threads simultaneously.
Scrapes are rare; increments hold the lock for nanoseconds.
"""

from __future__ import annotations

import math
import re
import threading
import time

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "TopView",
    "histogram_quantile",
    "parse_promtext",
]

# Buckets tuned for an HTTP service whose unit of work is a simulation:
# sub-millisecond health checks up through multi-second dispatches.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Raised for malformed metric names, labels, or misuse of a family."""


def _format_value(value):
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labelnames, labelvalues, extra=()):
    pairs = list(zip(labelnames, labelvalues)) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        '%s="%s"' % (name, str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
        for name, value in pairs
    )
    return "{" + body + "}"


class _Child:
    """One (family, label-values) time series."""

    __slots__ = ("_lock",)

    def __init__(self, lock):
        self._lock = lock


class Counter(_Child):
    """Monotonic counter.  ``inc`` adds; ``set_to`` mirrors an upstream
    monotonic source at scrape time (ratchets, never decreases)."""

    __slots__ = ("value",)

    def __init__(self, lock):
        super().__init__(lock)
        self.value = 0.0

    def inc(self, amount=1):
        if amount < 0:
            raise MetricError("counter increments must be non-negative, got %r" % (amount,))
        with self._lock:
            self.value += amount

    def set_to(self, value):
        """Ratchet to ``value`` — the mirror hook for counters whose source
        of truth is elsewhere (admission stats, cache counters)."""
        with self._lock:
            if value > self.value:
                self.value = value

    def get(self):
        with self._lock:
            return self.value


class Gauge(_Child):
    """A value that can go up and down (queue depth, in-flight window)."""

    __slots__ = ("value",)

    def __init__(self, lock):
        super().__init__(lock)
        self.value = 0.0

    def set(self, value):
        with self._lock:
            self.value = float(value)

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def dec(self, amount=1):
        with self._lock:
            self.value -= amount

    def get(self):
        with self._lock:
            return self.value


class Histogram(_Child):
    """Fixed-bucket histogram with exact sum and count.

    ``counts[i]`` is the number of observations <= ``buckets[i]`` minus
    those counted in earlier buckets (per-bucket, not cumulative);
    rendering produces the cumulative Prometheus form.  The final
    implicit bucket is +Inf.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, lock, buckets):
        super().__init__(lock)
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        value = float(value)
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # first bucket whose upper bound admits the value
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self.counts[lo] += 1
            self.sum += value
            self.count += 1

    def cumulative(self):
        """[(upper_bound, cumulative_count), ...] ending with (+Inf, count)."""
        with self._lock:
            counts = list(self.counts)
            total = self.count
        out, running = [], 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, total))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A named metric family: HELP/TYPE metadata plus labelled children."""

    __slots__ = ("name", "help", "kind", "labelnames", "buckets", "_children", "_lock")

    def __init__(self, name, help_text, kind, labelnames, lock, buckets=None):
        if not _NAME_RE.match(name):
            raise MetricError("invalid metric name %r" % (name,))
        for label in labelnames:
            if not _LABEL_RE.match(label) or label == "le":
                raise MetricError("invalid label name %r for %s" % (label, name))
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = buckets
        self._children = {}
        self._lock = lock

    def labels(self, *values, **kv):
        if kv:
            if values:
                raise MetricError("pass label values positionally or by name, not both")
            try:
                values = tuple(kv.pop(name) for name in self.labelnames)
            except KeyError as exc:
                raise MetricError("missing label %s for %s" % (exc, self.name))
            if kv:
                raise MetricError("unknown labels %s for %s" % (sorted(kv), self.name))
        values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise MetricError(
                "%s takes %d label values, got %d"
                % (self.name, len(self.labelnames), len(values))
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                cls = _KINDS[self.kind]
                if self.kind == "histogram":
                    child = cls(self._lock, self.buckets)
                else:
                    child = cls(self._lock)
                self._children[values] = child
        return child

    # Convenience: an unlabelled family proxies straight to its single child.
    def inc(self, amount=1):
        self.labels().inc(amount)

    def set_to(self, value):
        self.labels().set_to(value)

    def set(self, value):
        self.labels().set(value)

    def dec(self, amount=1):
        self.labels().dec(amount)

    def observe(self, value):
        self.labels().observe(value)

    def get(self):
        return self.labels().get()

    def render(self, lines):
        lines.append("# HELP %s %s" % (self.name, self.help))
        lines.append("# TYPE %s %s" % (self.name, self.kind))
        with self._lock:
            children = sorted(self._children.items())
        for values, child in children:
            labels = _format_labels(self.labelnames, values)
            if self.kind == "histogram":
                for bound, cum in child.cumulative():
                    le = _format_labels(
                        self.labelnames, values, extra=(("le", _format_value(bound)),)
                    )
                    lines.append("%s_bucket%s %d" % (self.name, le, cum))
                lines.append("%s_sum%s %s" % (self.name, labels, _format_value(child.sum)))
                lines.append("%s_count%s %d" % (self.name, labels, child.count))
            else:
                lines.append("%s%s %s" % (self.name, labels, _format_value(child.get())))


class MetricsRegistry:
    """A process-wide collection of metric families.

    Families are created idempotently: asking twice for the same name
    returns the same family, and asking with a conflicting kind or
    label set raises.  ``render()`` produces the full Prometheus text
    exposition.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}

    def _family(self, name, help_text, kind, labelnames, buckets=None):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise MetricError(
                        "metric %s already registered as %s%r"
                        % (name, existing.kind, existing.labelnames)
                    )
                return existing
            family = _Family(name, help_text, kind, labelnames, self._lock, buckets=buckets)
            self._families[name] = family
            return family

    def counter(self, name, help_text, labelnames=()):
        return self._family(name, help_text, "counter", labelnames)

    def gauge(self, name, help_text, labelnames=()):
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(self, name, help_text, labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS):
        family = self._family(name, help_text, "histogram", labelnames, buckets=tuple(buckets))
        if family.buckets != tuple(buckets):
            raise MetricError("metric %s already registered with different buckets" % (name,))
        return family

    def render(self):
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        lines = []
        for family in families:
            family.render(lines)
        return "\n".join(lines) + "\n" if lines else ""


# --------------------------------------------------------------------------
# Consumer half: parsing a scrape and deriving dashboard signals.

# A quoted label value may itself contain '{' / '}' (route labels like
# "/v1/jobs/{id}"), so the label body is matched as a pair sequence, not
# as a lazy "anything up to the next brace".
_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:%s(?:,%s)*)?,?)\})?" % (_PAIR, _PAIR) +
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_number(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_promtext(text):
    """Parse Prometheus text exposition into ``{name: [(labels, value)]}``.

    Histogram series appear under their raw sample names
    (``x_bucket``/``x_sum``/``x_count``).  Malformed sample lines raise
    :class:`MetricError` — for lenient structural diagnosis use
    ``tools/validate_promtext.py`` instead.
    """
    samples = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise MetricError("unparseable sample line: %r" % (raw,))
        labels = {}
        if match.group("labels"):
            for name, value in _LABEL_PAIR_RE.findall(match.group("labels")):
                labels[name] = value.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")
        samples.setdefault(match.group("name"), []).append(
            (labels, _parse_number(match.group("value")))
        )
    return samples


def _sum_samples(samples, name, **match):
    total = 0.0
    for labels, value in samples.get(name, ()):
        if all(labels.get(k) == v for k, v in match.items()):
            total += value
    return total


def histogram_quantile(samples, name, q):
    """Quantile from the cumulative ``<name>_bucket`` series in a scrape.

    Aggregates across every label set (routes etc.), then interpolates
    linearly inside the winning bucket, Prometheus-style.  Returns
    ``None`` when the histogram is empty.
    """
    by_bound = {}
    for labels, value in samples.get(name + "_bucket", ()):
        bound = _parse_number(labels.get("le", "+Inf"))
        by_bound[bound] = by_bound.get(bound, 0.0) + value
    if not by_bound:
        return None
    bounds = sorted(by_bound)
    total = by_bound.get(math.inf, 0.0)
    if total <= 0:
        return None
    rank = q * total
    prev_bound, prev_count = 0.0, 0.0
    for bound in bounds:
        count = by_bound[bound]
        if count >= rank:
            if bound == math.inf:
                return prev_bound  # best lower estimate for the open bucket
            if count == prev_count:
                return bound
            frac = (rank - prev_count) / (count - prev_count)
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_count = bound, count
    return bounds[-1]


def _fmt_seconds(value):
    if value is None:
        return "-"
    if value < 1.0:
        return "%.0fms" % (value * 1000.0,)
    return "%.2fs" % (value,)


class TopView:
    """Folds successive ``/metrics`` scrapes into one dashboard line.

    QPS is the request-count delta between the last two scrapes over
    wall time; latency percentiles come from the cumulative
    ``repro_request_seconds`` histogram (lifetime, so they settle as the
    server runs).  Mirrors the `LiveProgress` single-line discipline:
    the caller owns the ``\\r`` refresh, this class owns the content.
    """

    __slots__ = ("_clock", "_last_t", "_last_requests", "qps", "_samples")

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._last_t = None
        self._last_requests = None
        self.qps = None
        self._samples = {}

    def update(self, samples, now=None):
        """Fold one parsed scrape (the dict from :func:`parse_promtext`)."""
        now = self._clock() if now is None else now
        requests = _sum_samples(samples, "repro_requests_total")
        if self._last_t is not None and now > self._last_t:
            self.qps = max(0.0, requests - self._last_requests) / (now - self._last_t)
        self._last_t, self._last_requests = now, requests
        self._samples = samples

    def render(self):
        s = self._samples
        bits = []
        bits.append("qps %s" % ("%.1f" % self.qps if self.qps is not None else "-"))
        p50 = histogram_quantile(s, "repro_request_seconds", 0.50)
        p95 = histogram_quantile(s, "repro_request_seconds", 0.95)
        p99 = histogram_quantile(s, "repro_request_seconds", 0.99)
        bits.append(
            "lat p50 %s p95 %s p99 %s"
            % (_fmt_seconds(p50), _fmt_seconds(p95), _fmt_seconds(p99))
        )
        inflight = _sum_samples(s, "repro_inflight_window")
        depth = _sum_samples(s, "repro_inflight_window_limit")
        pending = _sum_samples(s, "repro_dispatch_pending")
        bits.append("queue %d/%d (+%d pending)" % (inflight, depth, pending))
        workers = _sum_samples(s, "repro_workers")
        busy = _sum_samples(s, "repro_workers_busy")
        if workers:
            bits.append("workers %d/%d" % (busy, workers))
        hits = _sum_samples(s, "repro_cache_hits_total")
        misses = _sum_samples(s, "repro_cache_misses_total")
        if hits + misses > 0:
            bits.append("cache %.0f%%" % (100.0 * hits / (hits + misses),))
        else:
            bits.append("cache -")
        rejected = _sum_samples(s, "repro_admission_rejections_total")
        if rejected:
            bits.append("rejected %d" % (rejected,))
        return " | ".join(bits)
