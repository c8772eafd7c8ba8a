"""Terminating hypergeometric sums, Jacobi polynomials, gamma ratios, digamma.

The Jacobi recurrence builds every kernel weight (kernel._row_weights
and kernel._tail_weights) and the real-time kernel of the oracles; the
Gauss series and gamma ratios serve the reference route, su11 matrix
elements; the digamma function enters the closed form of the inner tau
integral (PhiKernel.tau_integral), complex for the eps oracle.  Narrow
parameter ranges (nonpositive integer series indices, integer Jacobi
parameters) allow exact finite summation throughout.  The divided
coefficients of each Jacobi recurrence step depend only on (degree,
alpha, beta); for scalar parameters they are tabulated once, lazily, in
_JACOBI_STEPS (see _jacobi_steps).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

# Alternating terminating series lose roughly condition * n * eps relative
# accuracy to per-term rounding, so anything noticeably cancellation-prone
# is redone in exact rational arithmetic (cheap: <= |a|+1 small rationals).
CONDITION_LIMIT = 4.0

# (alpha, beta) -> [(c1, c0, c2) of degree 1, 2, ...], see _jacobi_steps
_JACOBI_STEPS: dict = {}


class _NeumaierAcc:
    """Running compensated sum; also tracks the sum of magnitudes."""

    __slots__ = ("total", "comp", "abs_total")

    def __init__(self) -> None:
        self.total = 0.0
        self.comp = 0.0
        self.abs_total = 0.0

    def add(self, v: float) -> None:
        t = self.total + v
        if abs(self.total) >= abs(v):
            self.comp += (self.total - t) + v
        else:
            self.comp += (v - t) + self.total
        self.total = t
        self.abs_total += abs(v)

    @property
    def value(self) -> float:
        return self.total + self.comp


def _hyp2f1_exact(a: int, b: int, c: int, z: float):
    """Terminating 2F1 with exact rational arithmetic (z taken bit-exact).

    A sum beyond the float range stays an exact Fraction (see ln_abs).
    """
    zq = Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(-a):
        term *= Fraction((a + k) * (b + k), (c + k) * (k + 1)) * zq
        total += term
    try:
        return float(total)
    except OverflowError:
        return total


def ln_abs(x) -> float:
    """ln|x| of a float, or of an exact Fraction of any size."""
    if isinstance(x, Fraction):
        return math.log(abs(x.numerator)) - math.log(x.denominator)
    return math.log(abs(x))


def hyp2f1_terminating(a: int, b: int, c: int, z: float):
    """Gauss series 2F1(a, b; c; z) for nonpositive integer a and real z.

    The sum terminates after |a|+1 terms and is accumulated lowest order
    first with compensated summation.  Severe alternating-sign
    cancellation (term sum exceeding the result by more than
    CONDITION_LIMIT) triggers an exact rational re-evaluation, which comes
    back as a Fraction when the value does not fit a double.
    """
    if a != int(a) or a > 0:
        raise ValueError(f"series does not terminate: a={a!r} must be a nonpositive integer")
    a = int(a)
    if c != int(c) or c < 1:
        raise ValueError(f"require positive integer c, got {c!r}")
    c = int(c)
    if a == 0 or z == 0:
        return 1.0

    acc = _NeumaierAcc()
    term = 1.0
    acc.add(term)
    for k in range(-a):
        term *= (a + k) * (b + k) * z / ((c + k) * (k + 1))
        acc.add(term)
    result = acc.value
    scale = max(abs(result), 5e-324)
    if acc.abs_total > CONDITION_LIMIT * scale or not math.isfinite(acc.abs_total):
        if b == int(b):
            return _hyp2f1_exact(a, int(b), c, z)
    return result


def _jacobi_step(k: int, alpha, beta):
    """Divided coefficients (c1, c0, c2) of degree k of the three-term recurrence,

        P_k(w) = (c1 w + c0) P_{k-1}(w) - c2 P_{k-2}(w),   P_0 = 1, P_{-1} = 0,

    the standard recurrence with its leading coefficient 2k(k+alpha+beta)
    (2k+alpha+beta-2) divided out.  alpha may be a numpy array (the
    coefficients then are arrays, element by element the same floats as for
    each scalar alpha).  Raises ValueError where the leading coefficient
    vanishes.
    """
    ab = alpha + beta
    if k == 1:
        return (ab + 2.0) / 2.0, (alpha - beta) / 2.0, 0.0
    s = 2.0 * k + ab
    lead = 2.0 * k * (k + ab) * (s - 2.0)
    if not (lead.all() if isinstance(lead, np.ndarray) else lead):
        raise ValueError(f"degenerate Jacobi recurrence at degree {k} for (alpha, beta)=({alpha}, {beta})")
    return (
        (s - 1.0) * (s * (s - 2.0)) / lead,
        (s - 1.0) * (alpha * alpha - beta * beta) / lead,
        2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s / lead,
    )


def _jacobi_steps(n: int, alpha, beta) -> list:
    """The steps 1..n of P^{(alpha, beta)}, from the shared table for a scalar alpha.

    The steps depend on (k, alpha, beta) alone, so for scalar parameters
    they are computed once, lazily, and kept in _JACOBI_STEPS keyed by
    (alpha, beta), each list grown to the highest degree asked for (the
    kernel weights key it by (N - j, 2L + 1), which every N shares).  An
    array alpha gets fresh steps; kernel._tail_table keeps its own.
    """
    if isinstance(alpha, np.ndarray):
        return [_jacobi_step(k, alpha, beta) for k in range(1, n + 1)]
    steps = _JACOBI_STEPS.get((alpha, beta))
    if steps is None:
        steps = _JACOBI_STEPS[alpha, beta] = []
    if len(steps) < n:
        steps.extend([_jacobi_step(k, alpha, beta) for k in range(len(steps) + 1, n + 1)])
    return steps


def _jacobi_from_steps(steps, w):
    """P_n(w) from its n divided steps (see _jacobi_step), n >= 1 or w a scalar."""
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
        return _as_float_like(w, 1.0)
    return _jacobi_from_steps(_jacobi_steps(n, alpha, beta)[:n], w)


def _as_float_like(w, value: float):
    """1.0 broadcast to the shape of w (scalar or numpy array)."""
    try:
        return value + 0.0 * w
    except TypeError:
        return value


def ln_gamma_ratio(num: int, den: int) -> float:
    """ln(Gamma(num)/Gamma(den)) for positive integers, by summed logs."""
    if num < 1 or den < 1 or num != int(num) or den != int(den):
        raise ValueError(f"require positive integer arguments, got ({num!r}, {den!r})")
    num, den = int(num), int(den)
    if num == den:
        return 0.0
    lo, hi = min(num, den), max(num, den)
    total = math.fsum(math.log(k) for k in range(lo, hi))
    return total if num > den else -total


def digamma(x):
    """psi(x) for a float or complex x, Re x > 0, within ~6e-16 of max(1, |psi(x)|).

    Recurs up to Re x >= 14 with psi(x) = psi(x+1) - 1/x, then sums the
    asymptotic series ln x - 1/(2x) - sum_k B_2k/(2k x^2k) through x^-14,
    whose first omitted term is below 3e-19 there (|x| >= Re x).  A complex
    x gives a complex, its real and imaginary parts each one math.fsum.
    """
    if not x.real > 0.0:
        raise ValueError(f"digamma needs Re x > 0, got {x!r}")
    terms = []
    while x.real < 14.0:
        terms.append(-1.0 / x)
        x += 1.0
    x2 = 1.0 / (x * x)
    tail = x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 * (1 / 240 - x2 * (
        1 / 132 - x2 * (691 / 32760 - x2 / 12))))))
    if isinstance(x, complex):
        terms += (cmath.log(x), -0.5 / x, -tail)
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    terms += (math.log(x), -0.5 / x, -tail)
    return math.fsum(terms)
