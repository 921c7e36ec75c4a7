"""Runs the benchmark's cold mrefine processes on behalf of run.py.

A child's ru_maxrss counts the memory of the process it was forked from
until it calls exec, so a process spawned by the benchmark itself would
report at least the benchmark's own peak RSS, which grows with the
outputs it keeps.  run.py therefore starts this script once, as a fresh
`python3 -S` of about 11 MB, and has it spawn every cold process: a
child's reported peak is then its own, or this process's 11 MB when it
needs less.

Reads one JSON request per stdin line,
{"argv": [...], "out": PATH, "err": PATH, "timeout": SECONDS},
runs argv with stdout and stderr sent to the two files, and answers on
stdout with {"code": EXIT, "seconds": SPAWN_TO_EXIT, "maxrss_kb": KB}.
Exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": p.returncode, "seconds": seconds,
                          "maxrss_kb": ru.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
