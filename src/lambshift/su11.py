"""SU(1,1) discrete-series matrix elements: the reference the Jacobi-form kernel is checked against.

A group element is the coordinate pair (alpha, beta) of the defining 2x2
matrix [[alpha, beta], [beta*, alpha*]] with |alpha|^2 - |beta|^2 = 1.
On a tower m0, m0+1, ... its matrix element is the closed form of the
Baker-Campbell-Hausdorff disentangling (oracles holds its polar coordinates
and 2x2 check): a terminating Gauss series, summed exactly, times the square
root of an exact factorial ratio, with magnitudes assembled in log space.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections import namedtuple

from .specfun import hyp2f1_terminating, ln_abs

DET_TOLERANCE = 1.0e-9


class GroupElement(namedtuple("GroupElement", "alpha beta")):
    """SU(1,1) coordinates (alpha, beta) with |alpha|^2 - |beta|^2 = 1."""

    __slots__ = ()

    def __new__(cls, alpha: complex, beta: complex) -> "GroupElement":
        self = tuple.__new__(cls, (alpha, beta))
        # Relative to the element scale: the defining coordinates of large
        # boosts cannot satisfy the constraint to absolute precision.
        scale = max(1.0, abs(alpha) ** 2)
        if not abs(self.det_defect()) <= DET_TOLERANCE * scale:
            raise ValueError(
                f"not an SU(1,1) element: |alpha|^2 - |beta|^2 - 1 = {self.det_defect():.3e}"
            )
        return self

    def det_defect(self) -> float:
        return abs(self.alpha) ** 2 - abs(self.beta) ** 2 - 1.0

    def matrix(self):
        """Defining 2x2 matrix as nested tuples."""
        return (
            (self.alpha, self.beta),
            (self.beta.conjugate(), self.alpha.conjugate()),
        )


def compose(u1: GroupElement, u2: GroupElement) -> GroupElement:
    """Group product expressed back in (alpha, beta) coordinates."""
    alpha = u1.alpha * u2.alpha + u1.beta * u2.beta.conjugate()
    beta = u1.alpha * u2.beta + u1.beta * u2.alpha.conjugate()
    return GroupElement(alpha, beta)


def scaling_coords(phi: float) -> GroupElement:
    """Element of the dilation one-parameter subgroup."""
    return GroupElement(complex(math.cosh(phi / 2.0)), 1j * math.sinh(phi / 2.0))


class RepLabel(namedtuple("RepLabel", "m0")):
    """Lower-bounded tower starting at m0 = L+1; Casimir value m0(1-m0)."""

    __slots__ = ()

    def __new__(cls, m0: int) -> "RepLabel":
        if not isinstance(m0, (int, numbers.Real)) or not 1 <= m0 < math.inf or m0 != int(m0):
            raise ValueError(f"m0 must be a positive integer, got {m0!r}")
        return tuple.__new__(cls, (m0,))


def _finite_transform(m0: int, m_row: int, m_col: int, alpha: complex, beta: complex) -> complex:
    """Closed-form matrix element for m_row <= m_col, any integer m0 <= m_row.

    Phase convention: raising matrix elements positive.  The square root
    of the exact factorial ratio and the series are assembled in log space
    so towers up to m ~ 10^2 and large boosts, where the series alone
    exceeds the float range, do not overflow.
    """
    from fractions import Fraction

    f = math.factorial
    mp_, m = m_row, m_col
    d = m - mp_
    lnmag = 0.5 * ln_abs(Fraction(f(m + m0 - 1) * f(m - m0), f(mp_ + m0 - 1) * f(mp_ - m0) * f(d) ** 2))
    series = hyp2f1_terminating(m0 - mp_, 1 - m0 - mp_, d + 1, -abs(beta) ** 2)
    if series == 0.0:
        return 0.0 + 0.0j

    bstar = beta.conjugate()
    astar = alpha.conjugate()
    lnmag += d * math.log(abs(bstar)) if d else 0.0
    lnmag -= (m + mp_) * math.log(abs(astar))
    lnmag += ln_abs(series)
    sign = -1.0 if series < 0 else 1.0
    phase = cmath.exp(1j * (d * cmath.phase(bstar) - (m + mp_) * cmath.phase(astar)))
    return sign * math.exp(lnmag) * phase


def rep_matrix_element(label: RepLabel, m_row: int, m_col: int, u: GroupElement) -> complex:
    """Discrete-series matrix element (m_row| U(u) |m_col).

    Indices below the tower bottom m0 address nonexistent states and give
    exactly zero.  Elements with m_row > m_col are obtained from the
    unitarity relation U(u^{-1}) = U(u)^dagger, so a single series is the
    only closed form in play.
    """
    if not abs(u.det_defect()) <= DET_TOLERANCE * max(1.0, abs(u.alpha) ** 2):
        raise ValueError("group element violates the determinant invariant")
    m0 = label.m0
    if m_row < m0 or m_col < m0:
        return 0.0 + 0.0j
    if u.beta == 0:
        if m_row != m_col:
            return 0.0 + 0.0j
        return u.alpha.conjugate() ** (-2 * m_row)
    if m_row > m_col:
        return _finite_transform(m0, m_col, m_row, u.alpha.conjugate(), -u.beta).conjugate()
    return _finite_transform(m0, m_row, m_col, u.alpha, u.beta)
