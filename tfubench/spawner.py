"""Starts and reaps the benchmark's child processes, one at a time.

A child's ru_maxrss includes the resident memory of the process it was
forked from, up to its exec. The runner holds numpy and whole tfu fields,
so it leaves spawning to this process, which imports only the standard
library and stays small.

    python3 spawner.py <log>

Reads one JSON argv list per stdin line, runs it with stdout and stderr
appended to <log>, and answers one JSON line [wall seconds, peak RSS in
MiB, exit code]. Exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    log = sys.argv[1]
    for line in sys.stdin:
        with open(log, "ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(json.loads(line), stdout=fh, stderr=fh)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([wall, usage.ru_maxrss / 1024, proc.returncode]), flush=True)


if __name__ == "__main__":
    main()
