"""Runs the kgraphs CLI under a reference clock of its own.

    python3 perfbench/clirun.py ARGS...     # the arguments of `kgraphs`

Behaves as ``python -m kgraphs.cli ARGS...`` does, with the same output and
exit code, and adds one line to standard error::

    perfbench-cli {"ref": ..., "factor": ..., "cpu": ...}

``cpu`` is the CPU time of the whole process, interpreter start included;
``ref`` is that time in reference seconds, rescaled by kernel samples taken
inside this process (a sample taken in another process runs on whichever
processor is free, and does not track this one).
"""

import runpy
import sys
import time

from refclock import RefClock

MARKER = "perfbench-cli "


def main() -> None:
    clock = RefClock().start()
    try:
        runpy.run_module("kgraphs.cli", run_name="__main__", alter_sys=True)
    finally:
        cpu, now = time.process_time(), time.perf_counter()
        clock.ensure_samples()
        clock.stop()
        factor = clock.factor(0.0, now)
        ref = clock.ref(0.0, now, cpu)
        sys.stderr.write(f'\n{MARKER}{{"ref": {ref!r}, "factor": {factor!r}, "cpu": {cpu!r}}}\n')


if __name__ == "__main__":
    main()
