"""Run one command and record its wall time and rusage.

    python3 perfbench/launch.py RESULT_JSON -- PROGRAM ARG...

The command inherits this process's stdin, stdout and stderr.  Its peak
RSS comes from ``wait4``, which on Linux also counts the memory of the
process that forked it as of the fork.  Forking from this small launcher
instead of from run.py keeps run.py's own memory out of the figure.
"""

import json
import os
import sys
import time


def main() -> int:
    result_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print("usage: launch.py RESULT_JSON -- PROGRAM ARG...", file=sys.stderr)
        return 2
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w") as fh:
        json.dump({"wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024,    # Linux: KiB
                   "exit_code": os.waitstatus_to_exitcode(status)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
