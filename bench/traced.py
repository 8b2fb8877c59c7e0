"""Run ``repro`` with timing spans recorded at its layer boundaries.

Usage (the benchmark launches it; ``PYTHONPATH`` must reach the
program's ``src``)::

    python bench/traced.py <repro arguments>

The shim wraps the public function at each layer boundary (every module
attribute that binds it), then calls ``repro.cli.main``. Modules the
command has not imported yet are patched the moment they are imported,
so a traced process imports exactly what an untraced one does.

Spans live in memory and are written as JSON lines to
``$BENCH_TRACE_DIR/spans-<pid>.jsonl``: by the main process at exit,
and by forked pool workers (which leave through ``os._exit``) each time
their outermost span closes. Timestamps are ``time.perf_counter_ns``,
which is CLOCK_MONOTONIC on Linux and therefore shared by every
process on the host.

With ``BENCH_TRACE_PARENT`` set, the process also records its own
start-up (``cli.startup`` from ``BENCH_TRACE_SPAWN_NS`` to shim entry,
``cli.import``) and ``cli.main``, all children of that bench span. A
long-lived server is launched without it, so its idle time is not a
span.
"""

import atexit
import builtins
import functools
import itertools
import json
import os
import sys
import threading
import time

_ENTRY_NS = time.perf_counter_ns()


class Recorder:
    """In-memory spans with per-thread parent stacks; fork-aware."""

    def __init__(self, directory=None, root_parent=None):
        self.directory = directory
        self.root_parent = root_parent
        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count()
        self._stacks = {}
        self._fork_depth = None     # set in a forked child
        self._lock = threading.Lock()
        if directory is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # Keep the forking thread's stack, so the child's spans name
        # the span that was open at fork (run_grid) as their parent.
        self.pid = os.getpid()
        self.spans = []
        self._lock = threading.Lock()
        ident = threading.get_ident()
        stack = list(self._stacks.get(ident, ()))
        self._stacks = {ident: stack}
        self._fork_depth = len(stack)

    def begin(self, name, **attrs):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        parent = stack[-1]["id"] if stack else self.root_parent
        span = {"id": f"{self.pid}:{next(self._ids)}", "parent": parent,
                "name": name, "pid": self.pid,
                "start": time.perf_counter_ns(), "end": None}
        span.update(attrs)
        stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter_ns()
        stack = self._stacks[threading.get_ident()]
        stack.pop()
        self.spans.append(span)
        if self._fork_depth is not None and len(stack) == self._fork_depth:
            self.flush()

    def add(self, span):
        """Record an already-closed span (start and end given)."""
        span.setdefault("id", f"{self.pid}:{next(self._ids)}")
        span.setdefault("pid", self.pid)
        self.spans.append(span)
        return span

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span. ``before(args, kwargs)`` runs first and
        its value reaches ``after(span, args, kwargs, result, state)``,
        which adds attributes once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if after is not None:
                    after(span, args, kwargs, result, state)
                self.end(span)

        traced.__bench_original__ = fn
        return traced

    def flush(self):
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans or self.directory is None:
            return
        path = os.path.join(self.directory, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write("".join(json.dumps(s) + "\n" for s in spans))


# ------------------------------------------------------------- boundaries

def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _note_cycles(span, args, kwargs, result, state):
    span["cycles"] = result.cycles if result is not None else 0


def _note_batch_cycles(span, args, kwargs, result, state):
    span["cycles"] = sum(o.stats.cycles for o in result or () if o.ok)


def _note_hit(span, args, kwargs, result, state):
    span["hit"] = result is not None


def _note_saved_bytes(span, args, kwargs, result, state):
    span["bytes"] = _size(args[0].path)


def _ledger_size(args, kwargs):
    return _size(args[0].path)


def _note_appended_bytes(span, args, kwargs, result, state):
    span["bytes"] = _size(args[0].path) - state


def _note_read_bytes(span, args, kwargs, result, state):
    span["bytes"] = state


def _note_grid(span, args, kwargs, result, state):
    span["jobs"] = len(result) if result is not None else 0
    span["request_ids"] = sorted((kwargs.get("request_ids") or {}).values())


def _note_submit(span, args, kwargs, result, state):
    request_id = args[3] if len(args) > 3 else kwargs.get("request_id")
    doc = result[1] if result is not None else {}
    span["request_id"] = request_id
    span["job_id"] = doc.get("job_id")
    span["coalesced"] = doc.get("coalesced")


def _note_status(span, args, kwargs, result, state):
    span["job_id"] = args[1]


def _note_entry(span, args, kwargs, result, state):
    span["job_id"] = args[0].request.job_id


#: ``(module, attribute, span name, before, after, rebind)``. A dotted
#: attribute is a method, patched on its class; ``rebind`` also
#: replaces every other loaded ``repro`` module's binding of a
#: module-level function. ``job.*`` spans are zero-length marks of a
#: served job's dispatch and terminal transition.
TARGETS = (
    ("repro.lang.compiler", "compile_to_asm", "lang.compile",
     None, None, True),
    ("repro.lang.compiler", "assemble", "asm.assemble", None, None, False),
    ("repro.core.pipeline", "PipelineSim.run", "core.run",
     None, _note_cycles, False),
    ("repro.core.batch", "BatchEngine.run", "core.run",
     None, _note_batch_cycles, False),
    ("repro.workloads.base", "Workload.verify", "workloads.verify",
     None, None, False),
    ("repro.harness.runner", "decoded_program", "harness.decode",
     None, None, True),
    ("repro.harness.runner", "Runner.run", "harness.runner",
     None, None, False),
    ("repro.harness.parallel", "run_grid", "harness.run_grid",
     None, _note_grid, True),
    ("repro.harness.diskcache", "DiskResultCache.__init__",
     "harness.diskcache.load", None, None, False),
    ("repro.harness.diskcache", "DiskResultCache.get",
     "harness.diskcache.get", None, _note_hit, False),
    ("repro.harness.diskcache", "DiskResultCache.save",
     "harness.diskcache.save", None, _note_saved_bytes, False),
    ("repro.obs.ledger", "RunLedger.append_all", "obs.ledger.append",
     _ledger_size, _note_appended_bytes, False),
    ("repro.obs.ledger", "RunLedger.records", "obs.ledger.read",
     _ledger_size, _note_read_bytes, False),
    ("repro.obs.report", "run_report", "obs.report", None, None, True),
    ("repro.service.server", "JobService.submit", "service.submit",
     None, _note_submit, False),
    ("repro.service.server", "JobService.job_status", "service.status",
     None, _note_status, False),
    ("repro.service.dedup", "JobEntry.mark_running", "job.running",
     None, _note_entry, False),
    ("repro.service.dedup", "JobEntry.finish", "job.finish",
     None, _note_entry, False),
)


def _patch(recorder, target):
    """Apply one target; returns False while its attribute is not yet
    defined (the module is still being imported)."""
    module_name, attribute, name, before, after, rebind = target
    module = sys.modules[module_name]
    owner_name, _, attr = attribute.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None or attr not in vars(owner):
        return False
    original = vars(owner)[attr]
    traced = recorder.wrap(name, original, before, after)
    setattr(owner, attr, traced)
    if rebind:
        for other_name, other in list(sys.modules.items()):
            if other_name.startswith("repro") and other is not None \
                    and vars(other).get(attr) is original:
                setattr(other, attr, traced)
    return True


def _wrap_spec_factory(recorder):
    """Generated spec engines subclass PipelineSim and override ``run``:
    trace each class the factory hands out."""
    module = sys.modules["repro.core.codegen"]
    if "spec_engine_class" not in vars(module):
        return False
    factory = module.spec_engine_class

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        cls = factory(*args, **kwargs)
        if not hasattr(cls.run, "__bench_original__"):
            cls.run = recorder.wrap("core.run", cls.run, after=_note_cycles)
        return cls

    module.spec_engine_class = traced_factory
    return True


def install(recorder):
    """Patch every boundary now or when its module is first imported."""
    pending = {}
    for target in TARGETS:
        pending.setdefault(target[0], []).append(
            functools.partial(_patch, recorder, target))
    pending.setdefault("repro.core.codegen", []).append(
        functools.partial(_wrap_spec_factory, recorder))
    real_import = builtins.__import__
    lock = threading.RLock()

    def patch_loaded():
        with lock:
            for module_name in [m for m in pending if m in sys.modules]:
                left = [apply for apply in pending[module_name]
                        if not apply()]
                if left:
                    pending[module_name] = left
                else:
                    del pending[module_name]
            if not pending:
                builtins.__import__ = real_import

    def tracing_import(*args, **kwargs):
        module = real_import(*args, **kwargs)
        if pending:
            patch_loaded()
        return module

    builtins.__import__ = tracing_import
    patch_loaded()


def main(argv):
    directory = os.environ["BENCH_TRACE_DIR"]
    parent = os.environ.get("BENCH_TRACE_PARENT")
    recorder = Recorder(directory, root_parent=parent)
    atexit.register(recorder.flush)
    if parent is None:
        install(recorder)
        import repro.cli
        return repro.cli.main(argv)
    spawn_ns = int(os.environ["BENCH_TRACE_SPAWN_NS"])
    recorder.add({"name": "cli.startup", "parent": parent,
                  "start": min(spawn_ns, _ENTRY_NS), "end": _ENTRY_NS})
    span = recorder.begin("cli.import")
    install(recorder)
    import repro.cli
    recorder.end(span)
    span = recorder.begin("cli.main")
    try:
        return repro.cli.main(argv)
    finally:
        recorder.end(span)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
