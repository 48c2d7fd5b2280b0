"""A fixed calibration loop that measures how fast the host runs right now.

It touches no signalgame code, so a change to the program cannot move it. It
mixes the three kinds of work the workloads do: interpreted Python, small
numpy calls, and memory-bound passes over large arrays. The large arrays
live only while it runs, so they stay out of the workload's peak RSS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_SMALL = np.random.default_rng(0).random((16, 16)) / 16


def reference_s() -> float:
    """Wall seconds of one pass of the calibration loop (about 40 ms)."""
    start = perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    v = np.full(16, 1 / 16)
    for _ in range(5000):
        v = v @ _SMALL
    a = np.arange(1_000_000, dtype=np.float32)
    b = a[::-1].copy()
    out = np.empty_like(a)
    for _ in range(16):
        np.minimum(a, b, out=out)
    return perf_counter() - start
