"""Starts the benchmark's CLI calls and reports how each one ran.

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout":
path, "stderr": path}``, runs it as a child process and answers with one
JSON line: exit code, wall seconds, user+sys seconds and ``ru_maxrss``
from ``os.wait4``.

It is a process of its own because Linux carries the memory high-water
mark of the process that starts a child into the child's ``ru_maxrss``;
started from this near-empty interpreter, a child reports its own peak
and not the benchmark's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

CPUS = sorted(os.sched_getaffinity(0))


def _probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - t0


def quiet_cpu() -> None:
    """Pin this process, and the children it starts, to the CPU that runs
    a short probe fastest: on a shared host each core's speed changes
    from second to second with the other tenants' load."""
    times = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = _probe()
    os.sched_setaffinity(0, {min(times, key=times.get)})


def run(argv: list[str], out_path: str, err_path: str) -> dict:
    quiet_cpu()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"code": code, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["stdout"], req["stderr"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
