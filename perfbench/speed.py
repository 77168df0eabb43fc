"""Machine-speed reference for the timed runs.

On a shared virtual machine the speed of a core drifts by a third or more
within minutes, for identical work and with CPU time equal to wall time, so
raw seconds from runs minutes apart cannot be compared.  The drift is shared
by everything the process runs in the same few seconds, though.  So the
benchmark times a fixed pure-Python reference unit, which no change to
powerproof can speed up, interleaved with the work it measures, and reports
seconds scaled to a reference machine: a raw time multiplied by
``REFERENCE_UNIT_S / (mean time of the reference unit)``.

A concurrent reference on the other core does not track the drift; the
reference has to run on the measuring thread, between stretches of the work.
"""

from __future__ import annotations

import gc
import signal
from statistics import mean
from time import perf_counter

# Seconds one reference unit takes on the reference machine, by definition.
REFERENCE_UNIT_S = 0.010
# A timed job is interrupted this often to run one reference unit.
PERIOD_S = 0.25
# Loop steps in one reference unit.
REFERENCE_STEPS = 3500


# Read at random by the reference unit: larger than a core's private caches,
# so neighbours that contend for the shared cache and memory slow it as they
# slow powerproof's large sets and tables.
_TABLE = bytes(range(256)) * 16384  # 4 MiB


def reference_unit() -> int:
    """Fixed mix of what powerproof's loops do: tuple slicing and
    concatenation, dict and set lookups keyed by tuples, and reads scattered
    over a 4 MiB table."""
    counts: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, ...]] = set()
    word: tuple[int, ...] = ()
    table, size, x, c = _TABLE, len(_TABLE), 12345, 0
    for i in range(REFERENCE_STEPS):
        key = (i & 255, i >> 8)
        counts[key] = counts.get(key, 0) + 1
        word = word[-7:] + (i & 3,)
        if word not in seen:
            seen.add(word)
        for _ in range(4):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            c += table[x % size]
    return len(counts) + len(seen) + c


def time_reference() -> float:
    """Seconds one reference unit takes, independent of the program around it.

    The table is read through first, so the unit starts with it as warm as
    the cache allows, whatever the program's working set left there.  The
    cyclic collector is off during the unit, so that collections of the
    program's heap are not charged to the reference.
    """
    _TABLE[::64]  # one byte of every cache line
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_unit()
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Runs a reference unit every PERIOD_S seconds from a SIGALRM handler
    while active; ``spent`` is the time those units took, for the caller to
    take out of its own measurement."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(time_reference())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # the work ended before the first tick
            self.samples.append(time_reference())

    def scale(self) -> float:
        """Factor that turns raw seconds into reference-machine seconds."""
        return scale(self.samples)


def scale(samples: list[float]) -> float:
    # The mean, not the median: a core that is stalled for a share of the
    # run stalls the work and the reference units in that share, and the
    # median of short units would miss the stalls.
    return REFERENCE_UNIT_S / mean(samples)
