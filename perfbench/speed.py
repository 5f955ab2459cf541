"""Machine-speed correction for timings taken on a shared, noisy host.

On a shared 2-core Intel Xeon VM the same work runs up to 2x slower for
milliseconds to minutes at a time while other tenants load the host; it is
not preemption (steal time stays near 0 and wall time equals CPU time).
A fixed reference unit of work, whose code belongs to the benchmark and so
cannot change with the program, is timed right before and right after
each measured part.  Every time of that part is then scaled by
``REF_SECONDS / reference time``: it is reported in seconds at the speed at
which one reference unit takes ``REF_SECONDS``, which is what it takes on
that VM (Python 3.11.7, NumPy 2.4.6) when the host is quiet.  The reference
mixes interpreted Python with small NumPy and LAPACK calls, as the program
does.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_SECONDS = 0.7e-3
REF_REPEATS = 5


class SpeedRef:
    def __init__(self):
        rng = np.random.default_rng(20260517)
        self._rows = rng.normal(size=(64, 3))
        self._mats = rng.normal(size=(64, 3, 3))
        self._eye = np.eye(3)

    def unit(self) -> float:
        s = 0.0
        for i in range(64):
            row = self._rows[i:i + 1]
            gram = row.T @ row + self._mats[i] @ self._mats[i].T + self._eye
            s += float(np.linalg.solve(gram, self._rows[i])[0])
            for k in range(20):
                s += k * 0.5
        return s

    def sample(self) -> list[float]:
        """Seconds of a few back-to-back reference units."""
        times = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            self.unit()
            times.append(time.perf_counter() - t0)
        return times

    def bracket(self, fn, *args, fastest: bool = False):
        """Run ``fn(*args)`` between two reference samples.

        Returns ``(result, factor)``; multiply a time measured inside ``fn``
        by ``factor`` to express it at the reference speed.  The factor uses
        the median reference time, or with ``fastest`` the fastest one, to
        scale times that are themselves the fastest of several tries.
        """
        before = self.sample()
        result = fn(*args)
        after = self.sample()
        if fastest:
            return result, REF_SECONDS / min(before + after)
        return result, REF_SECONDS / (0.5 * (statistics.median(before)
                                             + statistics.median(after)))


class Unscaled:
    """Stand-in for :class:`SpeedRef` that runs no reference work (factor 1)."""

    def bracket(self, fn, *args, fastest: bool = False):
        return fn(*args), 1.0
