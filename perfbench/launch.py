"""Run one command and report its wall time and peak resident set.

    python3 perfbench/launch.py PROGRAM [ARGS...]

The command inherits this process's standard streams.  After it exits, one
line ``code wall_s peak_rss_mb`` is written to standard error, after
anything the command wrote there.  The peak covers the command and every
child it waited for.

This launcher stays small on purpose: Linux starts a spawned program's
peak-RSS record at the spawning process's own peak, so spawning from the
larger harness would put a floor of its size under every measurement.
SIGTERM kills the command.
"""

import os
import signal
import sys
import time
from contextlib import suppress


def main() -> int:
    argv = sys.argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)

    def stop(*_):
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGTERM, stop)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    sys.stderr.write(f"\n{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss / 1024!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
