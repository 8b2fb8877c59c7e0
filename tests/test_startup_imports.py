"""What a ``repro`` process loads at start-up.

Packages re-export their public names lazily (:mod:`repro._lazy`), and
the compiler, the engine and the worker pool load at a process's first
cache miss. These tests pin the resulting import sets in fresh
interpreters, so an eager import that creeps back in fails here rather
than showing up later as slower start-up.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

PACKAGES = sorted(name for _, name, ispkg in
                  pkgutil.walk_packages(repro.__path__, "repro.") if ispkg)

#: Never needed to parse arguments or list workloads.
CLI_EXCLUDED = ("repro.core.pipeline", "repro.lang.compiler",
                "repro.asm.assembler", "repro.service", "repro.funcsim",
                "multiprocessing", "asyncio")

#: Only a cache miss needs these.
WARM_REPORT_EXCLUDED = ("repro.core.pipeline", "repro.lang.compiler",
                        "multiprocessing")


def loaded_after(code, env=None):
    """Sorted ``sys.modules`` names after ``code`` runs in a fresh
    interpreter (what ``code`` prints to stdout is discarded)."""
    script = ("import contextlib, io, json, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + textwrap.indent(textwrap.dedent(code), "    ")
              + "\nprint(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, **(env or {}),
                              "PYTHONPATH": SRC}).stdout
    return json.loads(out.splitlines()[-1])


def offenders(loaded, excluded):
    return [name for name in loaded
            if any(name == ex or name.startswith(ex + ".")
                   for ex in excluded)]


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve(package):
    module = importlib.import_module(package)
    names = getattr(module, "__all__", ())
    listed = dir(module)
    for name in names:
        assert getattr(module, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        module.no_such_name  # noqa: B018


def test_package_quick_start_runs():
    doc = repro.__doc__
    code = textwrap.dedent(doc.split("Quick start::", 1)[1])
    minic_source = textwrap.dedent("""
        int n = 8;
        int a[8];
        void main() {
            int i;
            for (i = tid(); i < n; i = i + nthreads()) { a[i] = i; }
            barrier();
        }
    """)
    namespace = {"minic_source": minic_source}
    exec(code, namespace)
    assert namespace["stats"].cycles > 0


def test_cli_import_loads_no_engine_compiler_or_pool():
    loaded = loaded_after("import repro.cli")
    assert "repro.cli" in loaded
    assert offenders(loaded, CLI_EXCLUDED) == []


def test_workloads_command_loads_no_engine_compiler_or_pool():
    loaded = loaded_after("""
        from repro.cli import main
        assert main(["workloads"]) == 0
    """)
    assert "repro.workloads.livermore" in loaded
    assert offenders(loaded, CLI_EXCLUDED) == []


def test_warm_report_loads_no_engine_compiler_or_pool(tmp_path):
    env = {"REPRO_CACHE": str(tmp_path / "results.json"),
           "REPRO_LEDGER": str(tmp_path / "ledger.jsonl"),
           "REPRO_GIT_SHA": "test"}
    report = """
        from repro.cli import main
        assert main(["report", "--experiment", "su", "--workloads", "LL2",
                     "--threads", "1", "2", "--workers", "2"]) == 0
    """
    cold = loaded_after(report, env)
    assert "repro.core.pipeline" in cold and "multiprocessing" in cold
    warm = loaded_after(report, env)
    assert "repro.obs.report" in warm
    assert offenders(warm, WARM_REPORT_EXCLUDED) == []


def test_service_client_loads_no_stdlib_http_stack():
    # The client speaks the service's dialect itself (repro.service.wire).
    loaded = loaded_after("import repro.service.client")
    assert "repro.service.wire" in loaded
    assert offenders(loaded, ("http", "email", "repro.service.protocol",
                              "asyncio")) == []


def test_cold_grid_loads_engine_before_the_pool_forks():
    out = subprocess.run([sys.executable, "-c", textwrap.dedent("""
        import json, sys
        from repro.core.config import MachineConfig
        from repro.harness import parallel

        seen = []
        real_new_pool = parallel._new_pool

        def spy(width):
            seen.append("repro.core.pipeline" in sys.modules)
            return real_new_pool(width)

        parallel._new_pool = spy
        before = "repro.core.pipeline" in sys.modules
        parallel.run_grid([("LL2", MachineConfig(nthreads=1)),
                           ("LL2", MachineConfig(nthreads=2))], workers=2)
        print(json.dumps([before, seen]))
    """)], check=True, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC}).stdout
    before, seen = json.loads(out.splitlines()[-1])
    assert before is False
    assert seen == [True]


def test_server_start_loads_the_job_path():
    loaded = loaded_after("""
        from repro.service.server import JobService
        service = JobService(workers=1)
        assert not service.ready()[0]
        before = set(sys.modules)
        service.start()
        assert service.ready()[0]
        service.drain(timeout=10)
        assert "repro.core.pipeline" not in before
    """)
    for name in ("repro.lang.compiler", "repro.core.pipeline",
                 "concurrent.futures.process", "multiprocessing",
                 "repro.obs.ledger"):
        assert name in loaded, name
