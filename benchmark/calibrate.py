"""A fixed piece of benchmark-owned work that measures the machine's speed.

The host this benchmark was tuned on changes speed by up to a quarter over
minutes while the process keeps its CPU (steal near zero, the other CPU
idle), so two runs of identical work can differ more than any bound worth
setting.  Timing this calibration next to each measured piece of work and
scaling by it cancels most of that drift.  The work is the oracle's own
series products, pure Python like autsplit but none of its code, so no
change to autsplit moves it.
"""

from __future__ import annotations

import random
import time

import oracle

# About the median seconds of one calibration on the reference machine (2
# vCPUs, Python 3.11.7); a scaled time reads as seconds on that machine.
REFERENCE_S = 0.2
PRODUCTS = 600


class Calibration:
    def __init__(self):
        field = oracle.Field(2, [1, 1, 0, 0, 0, 0, 1], [0, 1])  # F_64, x primitive
        rng = random.Random(0)
        self._a = oracle.Series(field, {k: rng.randrange(63) for k in range(48)}, 48)
        self._b = oracle.Series(field, {k: rng.randrange(63) for k in range(48)}, 48)

    def seconds(self) -> float:
        a, b = self._a, self._b
        start = time.perf_counter()
        for _ in range(PRODUCTS):
            a * b
        return time.perf_counter() - start


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` as they would read on the reference machine."""
    return seconds * REFERENCE_S / calibration_s
