"""Host-speed normalisation of measured times.

On a shared host the CPU speed one process sees can swing by 1.5x within
tens of milliseconds and hold a state for seconds to minutes, as neighbours
on the same core come and go.  Wall times of identical passes then spread by
20% or more between runs, which hides any change smaller than that.

``Sampler`` runs a fixed pure-Python probe from a SIGALRM handler every
few tens of milliseconds inside the measured process, so the probes see the
same CPU state as the work around them.  ``normalise`` removes the probes'
own time from an interval and rescales the rest by nominal / mean probe
time: the result is the interval's length in seconds on a host where the
probe takes ``NOMINAL_PROBE_S``.  The probe does not touch degex, so a
faster program still reads faster.  It touches its own operands once before
it starts its clock, so it times them in cache whatever degex left there,
and its time does not follow degex's working set.
"""
from __future__ import annotations

import signal
import statistics
import time

# 4000 distinct 91-bit integers, about 0.2 MB of objects, and a block of
# 41-bit rows: the probe walks the first with modular arithmetic and runs
# fraction-free elimination steps on the second, so it loads the interpreter
# and the cache the way degex's exact arithmetic does
_OPERANDS = [(1 << 90) + 7919 * i for i in range(4000)]
_ROWS = [[(1 << 40) + i * j for j in range(60)] for i in range(20)]
# the probe's time on an uncontended core of the reference host
NOMINAL_PROBE_S = 0.0008


def probe() -> float:
    """Seconds taken by a fixed piece of integer work: a reading of the CPU speed."""
    sum(_OPERANDS)
    sum(map(sum, _ROWS))
    start = time.perf_counter()
    acc = 0
    for x in _OPERANDS:
        acc = (acc * 3 + x) % 1_000_000_007
    for x in _OPERANDS:
        acc ^= x
    top = _ROWS[0]
    for row in _ROWS[1:]:
        factor = row[0]
        for j in range(1, len(row)):
            acc += (7 * row[j] - factor * top[j]) // 3
    return time.perf_counter() - start


class Sampler:
    """Probes the CPU speed every ``interval`` seconds of wall time."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list[float]:
        """The probe times since the last take."""
        samples, self.samples = self.samples, []
        return samples


def normalise(wall: float, inside: list[float]) -> tuple[float, float]:
    """Seconds at nominal speed for an interval of ``wall`` seconds during
    which the probes ``inside`` ran, and the mean probe time used; with none
    inside, probe once now."""
    speed = statistics.fmean(inside) if inside else probe()
    return (wall - sum(inside)) * NOMINAL_PROBE_S / speed, speed
