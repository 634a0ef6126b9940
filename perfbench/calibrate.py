"""Machine-speed samples taken inside the workload process.

The benchmark runs on shared hosts whose speed drifts by 25% and more
over tens of seconds, far more than any regression worth catching.  So
each workload process also times a fixed probe, interrupting itself with
SIGALRM every ``INTERVAL_S``.  The probe walks an 8 MB table in a
pseudo-random order where each step's address depends on the value just
loaded: like the solver's pointer-heavy propagation loop, it is bound by
memory latency, so it slows down with the program when neighbours
contend for caches and memory.  A pass's time scaled by ``REFERENCE_S``
over the median probe time of that pass is its time at a fixed reference
speed, the speed at which the probe takes ``REFERENCE_S``.  ``clock``
leaves out the time the probes take, so timings made with it are of the
program alone.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

INTERVAL_S = 0.1
TABLE_BITS = 20           # 2**20 eight-byte slots
PROBE_STEPS = 6000
REFERENCE_S = 0.002


def speed_factor(samples) -> float:
    """Multiplier from measured seconds to seconds at reference speed."""
    return REFERENCE_S / statistics.median(samples)


class Calibrator:
    def __init__(self):
        self.table = array("q", bytes(8 << TABLE_BITS))
        self.samples: list = []
        self.spent = 0.0

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        table, mask, j = self.table, (1 << TABLE_BITS) - 1, 0
        for _ in range(PROBE_STEPS):
            # A full-period LCG modulo 2**TABLE_BITS; adding the loaded
            # slot (always 0) makes every step wait for the last load.
            j = (j * 1103515245 + 12345 + table[j]) & mask
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def clock(self) -> float:
        """perf_counter() minus the time spent probing."""
        return time.perf_counter() - self.spent

    def take(self) -> list:
        """The samples taken since the last call."""
        taken, self.samples = self.samples, []
        return taken
