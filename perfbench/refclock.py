"""Reference seconds: timings rescaled by the speed of a fixed kernel.

Raw timings on a small shared machine drift with whatever else the machine
runs.  A periodic ``SIGALRM`` runs a fixed pure-Python kernel (tuple hashing
and dict lookups, no allocation, about 0.2 ms) and records how much CPU
time it took.  An operation's CPU time, minus the CPU time the samples
themselves took inside it, is divided by the median kernel time of the
samples around it and multiplied by ``KERNEL_REF_S``.  One reference second
is therefore the time the kernel takes to run ``1 / KERNEL_REF_S`` times.

Only small standard modules are imported here, so
the clock can start before anything it measures is imported, at a
negligible cost of its own.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time
from typing import List, Tuple

KERNEL_REF_S = 2e-4     # nominal kernel time; fixes the size of a reference second
INTERVAL_S = 0.025      # sampling period (wall clock)
MIN_SAMPLES = 25        # samples a factor is taken over, at least

_KEYS = [(i, i & 7, -i) for i in range(64)]
_TABLE = {key: key[0] & 0xFF for key in _KEYS}
_REPS = 30


def kernel() -> int:
    """The fixed reference work.  It allocates nothing, so it never runs the
    garbage collector and its cost does not depend on the heap it lands in."""
    s = 0
    table = _TABLE
    for _ in range(_REPS):
        for key in _KEYS:
            s = (s + table[key]) & 0xFF
    return s


def median(xs: List[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


class RefClock:
    """Samples the kernel on a timer and converts CPU time to reference seconds.

    Timestamps (``perf_counter``) place samples on the wall-clock timeline;
    costs are CPU time (``process_time``), which leaves out time the process
    spent waiting for a processor.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.stamps: List[float] = []   # perf_counter at each sample
        self.kernel_s: List[float] = []  # CPU time of the kernel alone
        self.cost_s: List[float] = []    # CPU time of the whole handler
        self._prefix: List[float] = [0.0]  # running sum of cost_s

    def _sample(self, signum, frame) -> None:
        c0 = time.process_time()
        stamp = time.perf_counter()
        k0 = time.process_time()
        kernel()
        k1 = time.process_time()
        self.stamps.append(stamp)
        self.kernel_s.append(k1 - k0)
        cost = time.process_time() - c0
        self.cost_s.append(cost)
        self._prefix.append(self._prefix[-1] + cost)

    def start(self) -> "RefClock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No samples while the process only waits for a child: the kernel
        then runs on cold caches and reads slower than the machine is."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def ensure_samples(self, n: int = MIN_SAMPLES) -> None:
        """Take samples directly until there are at least n of them."""
        while len(self.stamps) < n:
            self._sample(None, None)

    # -- conversion ----------------------------------------------------

    def _window(self, t0: float, t1: float) -> Tuple[int, int]:
        """Index range of the samples in [t0, t1], widened symmetrically to
        the nearest MIN_SAMPLES when the interval holds fewer."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        n = len(self.stamps)
        while hi - lo < min(MIN_SAMPLES, n):
            left = self.stamps[lo - 1] if lo > 0 else None
            right = self.stamps[hi] if hi < n else None
            if right is None or (left is not None and t0 - left <= right - t1):
                lo -= 1
            else:
                hi += 1
        return lo, hi

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per CPU second around [t0, t1]."""
        lo, hi = self._window(t0, t1)
        return KERNEL_REF_S / median(self.kernel_s[lo:hi])

    def sampling_cost(self, t0: float, t1: float) -> float:
        """CPU time the samples taken within [t0, t1] cost."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        return self._prefix[hi] - self._prefix[lo]

    def ref(self, t0: float, t1: float, cpu: float) -> float:
        """Reference seconds of an operation that ran from t0 to t1 (wall
        clock) and used ``cpu`` seconds of CPU time, samples included."""
        return max(cpu - self.sampling_cost(t0, t1), 0.0) * self.factor(t0, t1)


class Timed:
    """Context manager recording wall and CPU time of a block."""

    __slots__ = ("t0", "t1", "c0", "cpu")

    def __enter__(self) -> "Timed":
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = time.process_time() - self.c0
        self.t1 = time.perf_counter()
