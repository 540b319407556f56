"""Machine-speed calibration for the benchmark's timings.

On a shared host the same request runs 30-50% slower in some seconds than
in others, most likely because other tenants share the cores.
A fixed pure-Python kernel (integer and float arithmetic, dict updates,
method calls on small objects, exact fractions) slows down with them.
The benchmark times this kernel between requests and reports each
latency scaled to a machine on which the kernel takes ``NOMINAL_NS``:

    scaled = wall * NOMINAL_NS / kernel time around the timing

The kernel does not touch the package under test, so a change to the
package moves scaled times as much as wall times.  Wall times are kept in
each run's report next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: the kernel's time on the reference machine
NOMINAL_NS = 3_000_000
#: kernel runs on each side of a timing whose median scales it
HALF_WINDOW = 3


class _Term:
    __slots__ = ("c", "p")

    def __init__(self, c: float, p: float):
        self.c = c
        self.p = p

    def weight(self, x: float) -> float:
        return self.c * x ** self.p


def _kernel() -> float:
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    table: dict = {}
    total = 0.0
    for i in range(2500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + (i + 1.0) ** 0.5
        total += table[key] / (1.0 + i)
    terms = [_Term(1.0 + 0.01 * i, 2.0 + i % 3) for i in range(150)]
    for r in range(18):
        for t in terms:
            total += t.weight(0.5 + 0.01 * r)
    exact = Fraction(0)
    for i in range(1, 150):
        exact += Fraction(1, i * i)
    return total + acc + float(exact) + sum(sorted(table.values()))


def kernel_ns(repeats: int = 1) -> int:
    """Wall time of one run of the calibration kernel; the median of ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def scale(wall: float, kernel: float) -> float:
    """``wall`` scaled to the reference machine, given the kernel time around it."""
    return wall * NOMINAL_NS / kernel


def scale_all(walls: list, kernels: list) -> list:
    """Scale a sequence of timings; ``kernels[i]`` and ``kernels[i + 1]`` bracket ``walls[i]``.

    Each timing is scaled by the median of the kernel times within
    ``HALF_WINDOW`` places on either side of it.  A single kernel run of a
    few milliseconds jitters by itself; the speed of the machine holds for
    about a second, which the window spans.
    """
    out = []
    for i, wall in enumerate(walls):
        window = kernels[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW]
        out.append(scale(wall, statistics.median(window)))
    return out
