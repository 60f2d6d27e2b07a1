"""Host-speed calibration: wall times scaled to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
over minutes, which no statistic inside one run removes: over three minutes
on a 2-vCPU guest, the wall time of a fixed pure-Python loop moved with a
quartile spread of 16% whether it was averaged over 1 s or 30 s windows.
What removes most of it is timing a fixed calibration unit right next to
each piece of the program's work and scaling the piece by it;
``perfbench/README.md`` says how much remains, and where.

A *reference second* is the time 1,000 calibration units take; a piece of
work that took ``wall_s`` seconds next to a unit that took ``unit_s``
seconds took ``wall_s * NOMINAL_S / unit_s`` reference seconds.  A slower
commit still reads slower, because the unit does not run the program; a
slower host mostly does not, because it slows the unit about as much as
the work.  The unit mixes the interpreter operations the program spends
its time in: integer arithmetic, dictionary lookups of strings and
``struct`` packing.  It allocates no container that outlives an
iteration, so it leaves the garbage collector's counts where the program
put them.
"""

from __future__ import annotations

import statistics
import struct
from time import perf_counter
from typing import List, Sequence, Tuple

#: Wall seconds of one calibration unit at the reference speed.
NOMINAL_S = 1e-3
#: Loop iterations in one calibration unit.
UNIT_ITERATIONS = 2000

_TABLE = {i: str(i) for i in range(4096)}
_PACK = struct.Struct("<qd")


def unit_s() -> float:
    """Run one calibration unit; return its wall seconds."""
    table = _TABLE
    pack = _PACK
    total = 0
    start = perf_counter()
    for i in range(UNIT_ITERATIONS):
        total += i * i % 7
        total += len(table[(i * 2654435761) & 4095])
        total += pack.unpack(pack.pack(i, 0.5))[0]
    return perf_counter() - start


def scale(units: int = 1) -> float:
    """Reference seconds per wall second, now: ``NOMINAL_S`` over the median
    time of ``units`` calibration units."""
    return NOMINAL_S / statistics.median(unit_s() for _ in range(units))


class Pieces:
    """Timed pieces of work, each with a count of items and the scale
    measured next to it."""

    def __init__(self) -> None:
        self.items: List[Tuple[int, float, float]] = []

    def add(self, count: int, wall_s: float, factor: float) -> None:
        self.items.append((count, wall_s, factor))

    def median_rate(self) -> float:
        """Median over pieces of items per reference second."""
        return statistics.median(count / (wall_s * factor) for count, wall_s, factor in self.items)

    def wall_rate(self) -> float:
        """Items per wall second over every piece."""
        return sum(count for count, _w, _f in self.items) / sum(w for _c, w, _f in self.items)

    def median_scale(self) -> float:
        return statistics.median(factor for _c, _w, factor in self.items)


def scaled(samples: Sequence[float], spans: Sequence[Tuple[int, int, float]]) -> List[float]:
    """``samples`` with each index range ``[lo, hi)`` of ``spans``
    multiplied by its scale (the spans cover every sample)."""
    out: List[float] = []
    for lo, hi, factor in spans:
        out.extend(sample * factor for sample in samples[lo:hi])
    return out
