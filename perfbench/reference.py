"""Fixed reference work: how fast the host runs at this moment.

Each child times chunks of this work after set-up, between requests and
after its last request.  Their speed is a property of the host, not of
lambshift, so a time scaled by NOMINAL_S / (chunk time) stays put when the
host's CPU speed drifts, and moves when the program's own cost does.  The
work is of the same kind as the program's: scalar Gauss-Kronrod-15 panels
on a heap over a complex integrand, and an exact rational series, all in
pure Python.  The work is fixed: changing it changes every scaled time.
"""

from __future__ import annotations

import cmath
import heapq
import math
import time
from fractions import Fraction

REPEAT = 10
# Seconds one chunk takes on the nominal host; a scaled time is what the
# wall time would have been there.  Chunks took 15-30 ms, most often about
# 20 ms, on a 2-vCPU 2.1 GHz x86 VM as the speed of its shared host drifted.
NOMINAL_S = 0.020

_X = (0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
      0.586087235467691, 0.405845151377397, 0.207784955007898)
_WK = (0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
       0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728)
_WG = (0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0, 0.381830050505119, 0.0,
       0.417959183673469)


def _f(x: float) -> float:
    z = complex(x, 0.3)
    return (cmath.exp(-0.2 * z) * cmath.cos(3.0 * z) / (1.0 + z * z)).real + 1e-3 * math.lgamma(1.0 + x)


def _gk15(a: float, b: float) -> tuple[float, float]:
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = _f(c)
    k, g = _WK[7] * fc, _WG[7] * fc
    for x, wk, wg in zip(_X, _WK, _WG):
        s = _f(c - h * x) + _f(c + h * x)
        k += wk * s
        g += wg * s
    return k * h, abs((k - g) * h)


def _integrate(a: float, b: float, tol: float) -> float:
    value, err = _gk15(a, b)
    heap = [(-err, a, b, value)]
    while err > tol:
        neg_e, a, b, v = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _gk15(a, m)
        v2, e2 = _gk15(m, b)
        value += v1 + v2 - v
        err += e1 + e2 + neg_e
        heapq.heappush(heap, (-e1, a, m, v1))
        heapq.heappush(heap, (-e2, m, b, v2))
    return value


def _exact_series(n: int) -> Fraction:
    total, term = Fraction(0), Fraction(1)
    for k in range(n):
        term *= Fraction(-(n - k) * (n + k + 1), (k + 1) ** 2 * 7)
        total += term
    return total


def seconds() -> float:
    """Wall time of one chunk of the reference work."""
    t = time.perf_counter()
    for _ in range(REPEAT):
        _integrate(0.0, 60.0, 1e-11)
        _exact_series(120)
    return time.perf_counter() - t
