"""Machine-speed calibration for timings taken on a shared machine.

Other tenants of a shared virtual machine slow a whole run, by up to
1.8x for minutes at a time, and every operation with it.  The benchmark
therefore times a fixed exact-arithmetic kernel of its own between
operations.  The kernel uses no part of pseudo, so no change to the
program moves it.  Dividing a run's timings by the kernel's median time
in that run removes the slow-down the two share.  Reported times are in
reference seconds: measured seconds * REFERENCE_S / median kernel seconds,
where REFERENCE_S is the kernel's time on an unloaded 2-vCPU Xeon VM.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.025
SAMPLE_EVERY_S = 0.5
SIZE = 24


def kernel() -> int:
    """Gauss-Jordan elimination of a fixed sparse rational matrix; its rank."""
    rows = [
        {j: Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(SIZE) if (i + j) % 3}
        for i in range(SIZE)
    ]
    rank = 0
    for col in range(SIZE):
        pivot = next((k for k in range(rank, SIZE) if rows[k].get(col)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = {c: v * inverse for c, v in rows[rank].items()}
        for k in range(SIZE):
            factor = rows[k].get(col) if k != rank else None
            if not factor:
                continue
            reduced = dict(rows[k])
            for c, v in rows[rank].items():
                x = reduced.get(c, 0) - factor * v
                if x:
                    reduced[c] = x
                else:
                    reduced.pop(c, None)
            rows[k] = reduced
        rank += 1
    return rank


class Calibration:
    """Kernel timings taken through one run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self):
        # the program's live heap must not slow the kernel through the
        # cyclic collector, so the collector is off while it runs
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            kernel()
            ended = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(ended - started)
        self._last = ended

    def maybe_sample(self):
        """Sample when SAMPLE_EVERY_S has passed since the last sample."""
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiplier from measured seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
