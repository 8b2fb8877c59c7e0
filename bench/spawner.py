"""Start and reap the benchmark's program processes on its behalf.

Linux carries a spawning process's peak RSS into its child's
``ru_maxrss`` (the pre-exec address space counts), so a child started
by the benchmark would report at least the benchmark's own footprint.
The benchmark therefore starts this small stdlib-only helper first and
has it launch every program process. Peak RSS read from ``wait4``
then covers the program process and every descendant it reaped, with a
floor of this helper's few megabytes.

Protocol: one JSON object per line on stdin, one reply per line on
stdout, strictly in turn.

* ``{"op": "spawn", "argv", "env", "cwd", "stdout", "stderr"[, "cpus"]}``
  starts a process with its output appended to the two files, confined
  to the CPUs listed in ``cpus`` when given (its threads and children
  inherit that); replies ``{"pid"}``.
* ``{"op": "signal", "pid", "signum"}`` signals a running process.
* ``{"op": "wait", "pid", "timeout"}`` reaps it, killing it first if
  it outlives ``timeout`` seconds; replies ``{"code", "maxrss_kb"}``.

At end of input every process still running is killed and reaped.
"""

import json
import os
import signal
import subprocess
import sys
import threading


def serve(requests, replies):
    children = {}
    try:
        for line in requests:
            request = json.loads(line)
            op = request["op"]
            if op == "spawn":
                cpus = request.get("cpus")
                with open(request["stdout"], "ab") as out, \
                        open(request["stderr"], "ab") as err:
                    child = subprocess.Popen(
                        request["argv"], stdin=subprocess.DEVNULL,
                        stdout=out, stderr=err, env=request["env"],
                        cwd=request["cwd"],
                        preexec_fn=None if not cpus else (
                            lambda: os.sched_setaffinity(0, cpus)))
                children[child.pid] = child
                reply = {"pid": child.pid}
            elif op == "signal":
                # os.kill, not Popen.send_signal: that polls, and could
                # reap the child before "wait" reads its usage.
                os.kill(request["pid"], request["signum"])
                reply = {}
            elif op == "wait":
                child = children.pop(request["pid"])
                timer = threading.Timer(request["timeout"], os.kill,
                                        (child.pid, signal.SIGKILL))
                timer.start()
                try:
                    _, status, usage = os.wait4(child.pid, 0)
                finally:
                    timer.cancel()
                child.returncode = os.waitstatus_to_exitcode(status)
                reply = {"code": child.returncode,
                         "maxrss_kb": usage.ru_maxrss}
            else:
                raise ValueError(f"unknown op {op!r}")
            replies.write(json.dumps(reply) + "\n")
            replies.flush()
    finally:
        for child in children.values():
            child.kill()
            child.wait()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
