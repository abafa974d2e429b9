"""How fast the host runs Python right now, from a fixed calibration kernel.

The machine this benchmark was tuned on shares its CPUs with other tenants.
The same ops there ran at rates up to 40% apart from one ten-second window
to the next. The kernel below is the benchmark's own code, never the
library's, so no change to the library can alter it. It does the same kinds
of work the library does: exact `Fraction` elimination, and tuple and dict
churn. Timing it between ops gives the host's current speed, and the
benchmark reports times scaled to a host on which the kernel takes
`REFERENCE_S`.  On such a host the scaled times are wall-clock times.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0035  # about the kernel's time on a 2-vCPU Xeon VM
WINDOW = 5            # samples taken on either side of a timed interval


def kernel():
    n = 7
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
             for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    seen = {}
    for i in range(3000):
        seen[(i % 97, i % 89, i)] = i
    return rows, seen


class HostSpeed:
    """Kernel times in the order they were taken.

    A timed interval is scaled by the samples around it: those taken right
    after it (indices `first` to `last`) and `WINDOW` on either side.  So
    call `pad` once before the first interval and once after the last.
    """

    def __init__(self):
        self.samples: list = []
        self.pad()

    def sample(self):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def pad(self):
        for _ in range(WINDOW):
            self.sample()

    def slowdown(self, first: int, last: int) -> float:
        """Median kernel time around an interval over REFERENCE_S (above 1:
        a slower host than the reference)."""
        around = self.samples[max(0, first - WINDOW):max(last, first) + WINDOW]
        return statistics.median(around) / REFERENCE_S
