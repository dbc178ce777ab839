"""Host-speed sampling, to take contention from other tenants out of pass times.

On a shared machine the same pass can take 1.5x longer when other
tenants load the host, for stretches of seconds to minutes, with CPU
time tracking wall time. While a `HostSpeed` block is open, a timer
signal runs a fixed pure-Python probe every 50 ms and records how long
it took. The corrected length of an interval weights each slice between
probes by `REFERENCE_PROBE_S / probe`, where `probe` is the median of the
5 probes around the slice: the interval's length on a host where the
probe takes `REFERENCE_PROBE_S`, an uncontended 2-vCPU Xeon VM. The
probe is fixed benchmark code, so a change to qpart moves the corrected
time and the host's load does not, as far as the probe and qpart slow
down alike.

That holds for interpreter-bound code only. A signal handler runs between
bytecodes, so during a long numpy call the probe waits until the call
returns and then runs on caches the call has just filled; how the
correction treats numpy-bound code therefore depends on that code, and
the corrected time of such a pass is approximate. The raw times are
reported beside it for that reason.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_ITERATIONS = 3000
REFERENCE_PROBE_S = 200e-6  # the probe's time when uncontended: 0.4% of the run
SMOOTH = 5


def _probe() -> int:
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return acc


class HostSpeed:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _speed(self, k: int) -> float:
        window = self.durations[max(0, k - SMOOTH // 2): k + SMOOTH // 2 + 1]
        return REFERENCE_PROBE_S / statistics.median(window)

    def corrected(self, start: float, end: float) -> float:
        """Length of [start, end] at the reference speed, the probes' own time left out.

        An interval no probe fell into is returned as it is.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if first == last:
            return end - start
        total, cursor = 0.0, start
        for k in range(first, last):
            total += (self.starts[k] - cursor) * self._speed(k)
            cursor = self.starts[k] + self.durations[k]
        return total + max(0.0, end - cursor) * self._speed(last - 1)
