"""Lean process that starts the cold `stabdyn` children of cli-cold.

A child's ru_maxrss starts at the high-water RSS of the process that
started it, so the children come from this stdlib-only process, not from
the worker that holds numpy and stabdyn.  Protocol: one JSON request per
stdin line, ``{"argv", "stdout", "stderr"}`` (the last two are file paths);
one JSON reply per stdout line, ``{"rc", "maxrss_kb", "wall_ns"}``.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 60


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall_ns = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
                                     "wall_ns": wall_ns}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
