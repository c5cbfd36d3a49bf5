"""A fixed loop, independent of redlab, that tracks the host's current speed.

On a shared host the same code runs up to a quarter slower, and at times
over half slower, for seconds to minutes at a time, which no in-run median
removes.  The benchmark times this loop before every operation and set-up,
and scales each one's time by ``REFERENCE_S`` over the median loop time
within two seconds of it; the result reads as time on the reference host at
its usual speed.  The loop has the two halves redlab's time splits into:
big-integer bit mixing stored one double at a time (the RNG fills) and
interpreter-driven small-array numpy work (the tensor ops).  It calls no
BLAS routine, so BLAS threading cannot move it, and it never changes with
redlab, so a faster redlab still reads faster after scaling.  Raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the loop's typical time on the reference host (2 vCPUs, Python 3.11,
# numpy 2.4); a constant, so scaled values compare across runs and commits
REFERENCE_S = 0.0042

_MASK64 = (1 << 64) - 1
_X = np.linspace(0.0, 1.0, 8 * 34 * 34).reshape(8, 34, 34)
_W = np.linspace(-1.0, 1.0, 8 * 9).reshape(8, 9, 1)
_OUT = np.empty(2000)


def _loop() -> None:
    s0, s1, s2, s3 = 1, 2, 3, 4
    for i in range(_OUT.size):
        r = (s1 * 5) & _MASK64
        r = ((((r << 7) | (r >> 57)) & _MASK64) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        _OUT[i] = (r >> 11) * (2.0 ** -53)
    for _ in range(7):
        cols = np.empty((8, 9, 1024))
        for di in range(3):
            for dj in range(3):
                cols[:, 3 * di + dj, :] = _X[:, di:di + 32, dj:dj + 32].reshape(8, 1024)
        y = (cols * _W).sum(axis=1)
        e = np.exp(y - y.max(axis=1, keepdims=True))
        (e / e.sum(axis=1, keepdims=True)).sum()


def loop_seconds() -> float:
    """Fastest of three timings of the loop, which drops one-off hiccups."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


class HostSpeed:
    """Loop timings taken between operations, and the scale they imply."""

    WINDOW_S = 2.0   # a slow spell lasts seconds; one loop timing is noisy

    def __init__(self):
        self.marks = []   # (perf_counter time, loop seconds)

    def sample(self) -> None:
        self.marks.append((perf_counter(), loop_seconds()))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median loop time within WINDOW_S of [start, end]."""
        near = [s for t, s in self.marks if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if not near:
            near = [min(self.marks, key=lambda mark: abs(mark[0] - start))[1]]
        return REFERENCE_S / statistics.median(near)
