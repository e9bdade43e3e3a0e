"""A clock that counts seconds at a fixed reference CPU speed.

The shared 2-core machine the benchmark was built on runs each core at
one of two speeds, about 2x apart, and switches every 0.1-0.3 s as other
tenants come and go.  The share of slow time varies from minute to
minute, so plain wall times of the same pass spread by 15-38% from run
to run.  That is too wide for any useful regression bound.

`SpeedClock` corrects for the current speed.  Every 25 ms, a SIGALRM
handler times a fixed pure-Python probe loop.  Each slice of wall time
between probes is scaled by REFERENCE_PROBE_S / (the median of the last
three probe times), so the clock advances by the seconds the slice would
have taken at the reference speed.  The probes' own time is left out.
Measured on that machine, this cut the quartile spread of a repeated
multi-second polarmub pass from 15.6% to 3.1%.  It changes no output of
the program, because the handler only reads the time and runs the probe.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

INTERVAL_S = 0.025
# The probe's time at the fast speed of the machine the benchmark was
# built on.  It only fixes the unit; any constant keeps runs comparable.
REFERENCE_PROBE_S = 0.000575


def _probe() -> int:
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += sum(key) * 3 % 5
    return acc


class SpeedClock:
    """Speed-corrected seconds since construction, sampled until `stop`."""

    def __init__(self):
        self._done = 0.0  # corrected seconds up to _mark
        self._recent: deque = deque(maxlen=3)
        self._probes = 0
        # Three probes up front give the first slice its correction.
        for _ in range(3):
            start = perf_counter()
            _probe()
            self._recent.append(perf_counter() - start)
        self._factor = REFERENCE_PROBE_S / statistics.median(self._recent)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._mark = perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self._done += (start - self._mark) * self._factor
        _probe()
        end = perf_counter()
        self._recent.append(end - start)
        self._factor = REFERENCE_PROBE_S / statistics.median(self._recent)
        self._mark = end
        self._probes += 1

    def now(self) -> float:
        # A probe between the reads below would mix old and new state, so
        # read again until no probe ran in between.
        while True:
            probes = self._probes
            value = self._done + (perf_counter() - self._mark) * self._factor
            if probes == self._probes:
                return value

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
