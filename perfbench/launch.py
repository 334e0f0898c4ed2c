"""Start one command, time it, and calibrate the CPU's speed around it.

Usage: ``python -S perfbench/launch.py TIMEOUT_S PROGRAM [ARGS...]``.
Prints ``exit_code wall_s max_rss_kb calibration_s`` on one line, where
``calibration_s`` is the mean time of ``calibrate()`` just before and
just after the command.

The benchmark divides each wall time by that calibration: on a shared
host the speed of one CPU drifts by 20-50 % over minutes, and the start
of a bare interpreter slows down nearly in step with the commands, so
the ratio is much steadier than the wall time.  (Of the calibrations
tried, this one tracked the commands best: a pure-Python loop, a float
math loop and a numpy import each left more drift.)  Spawning from this small process, not
from the benchmark, also keeps the benchmark's own memory out of the
child's max RSS, which Linux counts from the spawning process.
"""

import os
import signal
import sys
import time

CALIBRATION_RUNS = 5


def calibrate() -> float:
    """Shortest of a few start-to-exit times of a bare ``python -S -c pass``,
    in seconds."""
    argv = [sys.executable, "-S", "-c", "pass"]
    best = float("inf")
    for _ in range(CALIBRATION_RUNS):
        t0 = time.perf_counter()
        os.waitpid(os.posix_spawn(argv[0], argv, os.environ), 0)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    timeout_s, *argv = sys.argv[1:]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    before = calibrate()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=quiet)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(timeout_s))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.alarm(0)
    after = calibrate()
    print(os.waitstatus_to_exitcode(status), repr(wall), usage.ru_maxrss,
          repr((before + after) / 2))


if __name__ == "__main__":
    main()
