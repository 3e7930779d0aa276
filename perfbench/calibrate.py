"""Host-speed calibration for the verdict benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, so that the same verdict can take
1.5 times as long in one run as in the next. A fixed kernel, timed right
before every verdict, measures that drift: it is benchmark code, never the
program's, so any change to dynstar leaves its time alone. Each verdict's
time is scaled by ``REFERENCE_S / kernel time``, i.e. reported in seconds at
the host speed at which the kernel takes ``REFERENCE_S``.

The kernel cancels a rational function of one symbol with an empty sympy
cache, the kind of work dynstar's scalars do, so it slows down with the
host in the same way a verdict does. One kernel time carries jitter, so a
verdict is scaled by the median kernel time of the verdicts around it.
"""

from __future__ import annotations

import statistics
import time

import sympy
from sympy.core.cache import clear_cache

# the kernel's time at the reference host speed (about its best time on an
# idle 2-vCPU Xeon VM); a constant, so values of two commits compare
REFERENCE_S = 0.005
_LAM = sympy.Symbol("lam")


def kernel_s() -> float:
    """Seconds of one kernel call, which builds a rational function and
    cancels it, with an empty sympy cache; it leaves the cache empty."""
    lam = _LAM
    clear_cache()
    t0 = time.perf_counter()
    sympy.cancel((lam + 1) ** 2 * (lam - 3) / ((lam + 1) * (lam ** 2 - 2)))
    dt = time.perf_counter() - t0
    clear_cache()
    return dt


def local_kernel_s(kernels: list[float], radius: int = 3) -> list[float]:
    """For each position, the median kernel time of the positions within
    ``radius`` of it: host speed changes over seconds, a single kernel time
    also carries jitter."""
    n = len(kernels)
    return [statistics.median(kernels[max(0, i - radius):i + radius + 1])
            for i in range(n)]


def normalize(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` at the reference host speed."""
    return seconds * REFERENCE_S / kernel_seconds
