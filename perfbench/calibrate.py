"""Reference loop that reads how fast the machine runs at a given moment.

On a shared machine the same code can run 1.6 times slower for minutes at
a time.  Timing this fixed pure-Python loop next to each measurement lets
the benchmark express times at one reference speed (see NOTES.md).  It
imports nothing heavy, so a fresh interpreter can load it after timing its
own start-up.
"""

import signal
from time import perf_counter, process_time

# Milliseconds the full loop takes at full speed on the machine the notes
# were written on (2 vCPU Xeon); times are scaled to a machine that reads this.
REFERENCE_MS = 20.0
STEPS = 400_000


def reference_ms(steps: int = STEPS) -> float:
    """Wall milliseconds of the fixed loop, as if it had run ``STEPS`` steps."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(steps):
        acc += i * 0.5
    return (perf_counter() - t0) * 1000.0 * STEPS / steps


class SpeedMeter:
    """Reads the reference loop on entry and every ``period`` seconds after.

    The readings come from a SIGALRM handler on the process's own thread, so
    they span the whole measurement rather than its two ends; a 10 s op sees
    the machine change speed under it.  Each reading runs a twentieth of the
    loop.  ``wall_s`` and ``cpu_s`` add up what the readings after the first
    cost, for the caller to take off the time it measured.
    """

    def __init__(self, period: float = 0.1, steps: int = STEPS // 20):
        self.period, self.steps = period, steps
        self.readings: list[float] = []
        self.wall_s = self.cpu_s = 0.0
        self._previous = None

    def _read(self, *_signal) -> None:
        t0, c0 = perf_counter(), process_time()
        self.readings.append(reference_ms(self.steps))
        self.wall_s += perf_counter() - t0
        self.cpu_s += process_time() - c0

    def mean_ms(self) -> float:
        return sum(self.readings) / len(self.readings)

    def __enter__(self) -> "SpeedMeter":
        self._read()
        self.wall_s = self.cpu_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
