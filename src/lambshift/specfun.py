"""Terminating hypergeometric sums, Jacobi polynomials, digamma.

The Jacobi recurrence builds every kernel weight (from kernel._row_table
and kernel._tail_table, both kept for the last (N, L) only) and the
real-time kernel of the oracles; the
Gauss series serves the reference route, su11 matrix elements, summed
exactly in rationals; the digamma function, on the strip where the closed
form of the inner tau integral needs it, gives the heads of
kernel._psi_rows, one array call per kernel._euler_block, complex for the
eps oracle.
Narrow parameter ranges (nonpositive integer series indices, integer
Jacobi parameters) allow exact finite summation throughout.  The divided
coefficients of each Jacobi recurrence step depend only on (degree,
alpha, beta); for scalar parameters they are tabulated once, lazily, in
_JACOBI_STEPS (see _jacobi_steps).
"""

from __future__ import annotations

import math

import numpy as np

# (alpha, beta) -> [(c1, c0, c2) of degree 1, 2, ...], see _jacobi_steps
_JACOBI_STEPS: dict = {}


def _hyp2f1_exact(a: int, b: float, c: int, z: float):
    """Terminating 2F1 in exact rational arithmetic (b and z taken bit-exact).

    The float result is the exact sum correctly rounded; a sum beyond the
    float range stays an exact Fraction (see ln_abs).  fractions (and
    decimal, which it imports) load on the first call, not with the
    package: only the reference route sums a Gauss series.
    """
    from fractions import Fraction

    bq, zq = Fraction(b), Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(-a):
        term *= (a + k) * (bq + k) * zq / ((c + k) * (k + 1))
        total += term
    try:
        return float(total)
    except OverflowError:
        return total


def ln_abs(x) -> float:
    """ln|x| of a float, or of an exact Fraction of any size (from _hyp2f1_exact)."""
    if not isinstance(x, float):
        from fractions import Fraction

        if isinstance(x, Fraction):
            return math.log(abs(x.numerator)) - math.log(x.denominator)
    return math.log(abs(x))


def hyp2f1_terminating(a: int, b: float, c: int, z: float):
    """Gauss series 2F1(a, b; c; z) for nonpositive integer a and real b, z.

    The sum terminates after |a|+1 terms and is summed exactly by
    _hyp2f1_exact, so the float returned is correctly rounded however much
    the terms cancel; a value beyond the float range comes back as a
    Fraction.
    """
    if a != int(a) or a > 0:
        raise ValueError(f"series does not terminate: a={a!r} must be a nonpositive integer")
    if c != int(c) or c < 1:
        raise ValueError(f"require positive integer c, got {c!r}")
    return _hyp2f1_exact(int(a), b, int(c), z)


def _jacobi_steps(n: int, alpha, beta) -> list:
    """The divided coefficients (c1, c0, c2) of degrees 1..n of the three-term recurrence

        P_k(w) = (c1 w + c0) P_{k-1}(w) - c2 P_{k-2}(w),   P_0 = 1, P_{-1} = 0,

    of P^{(alpha, beta)}: the standard recurrence (DLMF 18.9.2) with its
    leading coefficient 2k(k+alpha+beta)(2k+alpha+beta-2) divided out.
    They depend on (k, alpha, beta) alone, so for a scalar alpha they are
    computed once, lazily, and kept in _JACOBI_STEPS keyed by (alpha, beta),
    each list grown to the highest degree asked for (the kernel weights key
    it by the ints (N - j, 2L + 1), which every N shares: the rates of
    every N <= 20 hold 1,330 steps).  An array alpha (kernel._tail_table's
    j - N) gets a fresh list of array steps, element by element the same
    floats as each scalar alpha's, which the kernel keeps only while it
    works on one (N, L) (kernel._tables).  A vanishing leading coefficient raises
    ValueError at its degree; a scalar family keeps the steps below it.
    """
    array = isinstance(alpha, np.ndarray)
    steps = [] if array else _JACOBI_STEPS.get((alpha, beta))
    if steps is None:
        steps = _JACOBI_STEPS[alpha, beta] = []
    if len(steps) >= n:
        return steps
    ab, squares = alpha + beta, alpha * alpha - beta * beta
    if not steps:
        steps.append(((ab + 2.0) / 2.0, (alpha - beta) / 2.0, 0.0))
    for k in range(len(steps) + 1, n + 1):
        s = 2.0 * k + ab
        lead = 2.0 * k * (k + ab) * (s - 2.0)
        if not (lead.all() if array else lead):
            raise ValueError(f"degenerate Jacobi recurrence at degree {k} for (alpha, beta)=({alpha}, {beta})")
        steps.append((
            (s - 1.0) * (s * (s - 2.0)) / lead,
            (s - 1.0) * squares / lead,
            2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s / lead,
        ))
    return steps


def _jacobi_from_steps(steps, w):
    """P_n(w) from its n divided steps (see _jacobi_steps), n >= 1 or w a scalar."""
    p, p_prev = 1.0, 0.0
    for c1, c0, c2 in steps:
        p, p_prev = (c1 * w + c0) * p - c2 * p_prev, p
    return p


def _jacobi_recurrence(n: int, alpha: float, beta: float, w):
    """P_n^{(alpha, beta)}(w) by the three-term recurrence in the degree.

    Valid whenever none of the leading coefficients 2k(k+alpha+beta)
    (2k+alpha+beta-2) for 2 <= k <= n vanish.  alpha and w may be numpy
    arrays (broadcast together).
    """
    if n == 0:
        return 1.0 + 0.0 * w  # 1.0 broadcast to the shape of w
    return _jacobi_from_steps(_jacobi_steps(n, alpha, beta)[:n], w)


# psi(5/2 + z) = sum_k _PSI_TAYLOR[k] z^k: psi(5/2), then psi^{(k)}(5/2)/k! =
# (-1)^{k+1} zeta(k+1, 5/2) (DLMF 5.15.1) for k = 1 .. 25, rounded from 40 digits
_PSI_TAYLOR = np.array([
    0.7031566406452432, 0.49035775610023485, -0.1181020258208637, 0.03731764146954201,
    -0.013073166646113807, 0.004821409821393196, -0.0018305640382639378, 0.000707388165183161,
    -0.00027643925426264714, 0.00010882584206868631, -4.3052688655542605e-05, 1.7089167198843548e-05,
    -6.798929231974794e-06, 2.70927597946691e-06, -1.0808116193449874e-06, 4.315056529691794e-07,
    -1.7237026144441994e-07, 6.888225415513035e-08, -2.7534182401274525e-08, 1.1008345466854143e-08,
    -4.401820633602188e-09, 1.760295677618269e-09, -7.039949010119622e-10, 2.8156276111135825e-10,
    -1.126150584061632e-10, 4.5043155479529544e-11,
])
# |Im x| bound of digamma's strip, Im x = -eps: it bounds the eps oracle's damping (oracles.EPS_MAX)
STRIP_IM_MAX = 0.25


def digamma(x) -> np.ndarray:
    """psi(x) for an array x of floats or complexes on the strip 0 < Re x <= 1, |Im x| <= STRIP_IM_MAX.

    psi(x) = psi(x + 2) - 1/x - 1/(x + 1), with psi(x + 2) from its
    Taylor series about 5/2 in z = x - 1/2, |z| <= 0.56, through z^25
    (the first omitted term is below 5e-18).  Each element's terms, the
    powers highest first, then psi(5/2), -1/x and -1/(x + 1), are one
    row of a (elements x 28) array, and each row is one array sum, so an
    element's float does not depend on the rest of the array.  Within
    6e-16 of max(1, |psi(x)|) against mpmath (oracles.digamma is the
    scalar reference for any Re x > 0).  An element outside the strip or
    NaN raises ValueError.
    """
    x = np.asarray(x)
    if not np.all((x.real > 0.0) & (x.real <= 1.0) & (np.abs(x.imag) <= STRIP_IM_MAX)):
        raise ValueError(f"digamma needs 0 < Re x <= 1 and |Im x| <= {STRIP_IM_MAX}, got {x!r}")
    k = _PSI_TAYLOR.size
    # every operand contiguous: a ufunc writing a strided column pages in
    # numpy code that the rest of a pass does not use (~0.1 MB of peak RSS)
    powers = np.empty(x.shape + (k - 1,), dtype=x.dtype)  # z^j, j = 1 .. k - 1
    powers[...] = (x - 0.5)[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    powers *= _PSI_TAYLOR[1:]
    terms = np.empty(x.shape + (k + 2,), dtype=x.dtype)
    terms[..., : k - 1] = powers[..., ::-1]
    terms[..., k - 1] = _PSI_TAYLOR[0]
    terms[..., k] = -1.0 / x
    terms[..., k + 1] = -1.0 / (x + 1.0)
    return terms.sum(axis=-1)
