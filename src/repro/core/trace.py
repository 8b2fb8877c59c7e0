"""Pipeline tracing: per-instruction lifecycle records.

Attach a :class:`Tracer` to a :class:`~repro.core.pipeline.PipelineSim`
to record when each instruction was fetched, decoded, issued, written
back, and committed (or squashed), then render a textual pipeline
diagram — handy for debugging schedules and for teaching what the
machine does cycle by cycle.

The tracer is an event-bus sink (see :mod:`repro.obs.events`), not a
method wrapper: it subscribes via ``sim.add_sink`` and receives the
same explicit hook-point events every other sink does. In particular it
sees the fast-forward engine's stall events, so tracing a run with
``fast_forward=True`` neither changes any cycle count nor mislabels
skipped spans (both were failure modes of the old wrapping approach).

Usage::

    sim = PipelineSim(program, config)
    tracer = Tracer.attach(sim, limit=200)
    sim.run()
    print(tracer.render())
"""


class TraceRecord:
    """Lifecycle of one instruction through the pipeline."""

    __slots__ = ("tag", "tid", "pc", "text", "decoded", "issued",
                 "completed", "committed", "squashed")

    def __init__(self, tag, tid, pc, text, decoded):
        self.tag = tag
        self.tid = tid
        self.pc = pc
        self.text = text
        self.decoded = decoded
        self.issued = None
        self.completed = None
        self.committed = None
        self.squashed = None

    def stages(self):
        """(label, cycle) pairs for the stages this instruction reached."""
        out = [("D", self.decoded)]
        if self.issued is not None:
            out.append(("X", self.issued))
        if self.completed is not None:
            out.append(("W", self.completed))
        if self.committed is not None:
            out.append(("C", self.committed))
        if self.squashed is not None:
            out.append(("K", self.squashed))
        return out


class Tracer:
    """Records instruction lifecycles from the pipeline's event bus."""

    def __init__(self, limit=1000):
        self.limit = limit
        self.records = {}
        self.order = []
        #: (first skipped cycle, span) per fast-forward jump.
        self.idle_spans = []
        #: Skipped cycles per stall-class reason ("su-full", "sync",
        #: "dcache-miss", "fu-contention", "fetch-idle") — the skip
        #: engine labels every jumped span with the class the
        #: attribution layer charges those cycles to (one rule,
        #: repro.obs.attribution.span_class; a scoreboard decode stall
        #: is "fu-contention").
        self.skip_reasons = {}

    @classmethod
    def attach(cls, sim, limit=1000):
        """Subscribe a new tracer to ``sim``'s event bus."""
        tracer = cls(limit=limit)
        sim.add_sink(tracer)
        return tracer

    # --------------------------------------------------------- event sink

    def __call__(self, event):
        kind = event.kind
        if kind == "decode":
            if len(self.order) >= self.limit:
                return
            cycle = event.cycle
            tid = event.tid
            for tag, pc, text in zip(event.tags, event.pcs, event.texts):
                if len(self.order) >= self.limit:
                    break
                record = TraceRecord(tag, tid, pc, text, cycle)
                self.records[tag] = record
                self.order.append(record)
        elif kind == "issue":
            record = self.records.get(event.tag)
            if record is not None:
                record.issued = event.cycle
        elif kind == "writeback":
            record = self.records.get(event.tag)
            if record is not None:
                record.completed = event.cycle
        elif kind == "commit":
            records = self.records
            cycle = event.cycle
            for tag in event.tags:
                record = records.get(tag)
                if record is not None:
                    record.committed = cycle
        elif kind == "squash":
            records = self.records
            cycle = event.cycle
            for tag in event.tags:
                record = records.get(tag)
                if record is not None:
                    record.squashed = cycle
        elif kind == "stall":
            self.idle_spans.append((event.cycle, event.span))
            reasons = self.skip_reasons
            reason = event.reason
            reasons[reason] = reasons.get(reason, 0) + event.span

    # ---------------------------------------------------------- rendering

    def span(self):
        """(first, last) cycle touched by any traced stage, or ``None``."""
        cycles = [cycle for record in self.order
                  for _, cycle in record.stages()]
        if not cycles:
            return None
        return min(cycles), max(cycles)

    def render(self, width=60, start=None):
        """Text pipeline diagram: one line per traced instruction.

        Stage letters: D decode, X issue, W writeback, C commit,
        K squashed (killed). ``start`` selects the window's first cycle;
        it is clamped into the traced cycle range, so a window that
        would fall entirely outside it still renders the nearest
        in-range cycles instead of an empty (or crashing) diagram.
        """
        traced = self.span()
        if traced is None:
            return "(no instructions traced)"
        first, last = traced
        if start is None:
            start = first
        else:
            # Clamp to the traced range: at most starting on the last
            # traced cycle, at least on the first.
            start = max(first, min(start, last))
        lines = []
        for record in self.order:
            lane = [" "] * width
            for label, cycle in record.stages():
                offset = cycle - start
                if 0 <= offset < width:
                    lane[offset] = label
            marker = "x" if record.squashed is not None else " "
            lines.append(f"t{record.tid} {record.pc:5d} "
                         f"{record.text:28.28s}{marker}|{''.join(lane)}|")
        header = (f"cycles {start}..{start + width - 1} "
                  f"(D=decode X=issue W=writeback C=commit K=squash)")
        return header + "\n" + "\n".join(lines)
