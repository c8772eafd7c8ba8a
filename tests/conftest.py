from fractions import Fraction
from functools import lru_cache

import pytest

from lambshift.oracles import shift_via_eps_real_axis
from lambshift.shifts import QuantumState


@lru_cache(maxsize=None)
def _eps_point(N: int, L: int, eps: float) -> complex:
    return complex(shift_via_eps_real_axis(QuantumState(N=N, L=L), eps))


@pytest.fixture(scope="session")
def eps_shift():
    """eps_shift(N, L, eps) = shift_via_eps_real_axis(QuantumState(N, L), eps).

    Each point is computed once per session: criterion 7 and the eps tests
    of test_oracles read the same nine points.
    """
    return _eps_point


def _exact_jacobi_step(k: int, alpha: int, beta: int) -> tuple[float, float, float]:
    """Step k's divided coefficients (c1, c0, c2) of P^{(alpha, beta)}, integer
    alpha and beta, each the exact rational rounded once to a float."""
    if k == 1:
        return float(Fraction(alpha + beta + 2, 2)), float(Fraction(alpha - beta, 2)), 0.0
    s = 2 * k + alpha + beta
    lead = 2 * k * (k + alpha + beta) * (s - 2)
    return (
        float(Fraction((s - 1) * s * (s - 2), lead)),
        float(Fraction((s - 1) * (alpha * alpha - beta * beta), lead)),
        float(Fraction(2 * (k + alpha - 1) * (k + beta - 1) * s, lead)),
    )


@pytest.fixture(scope="session")
def exact_jacobi_step():
    """exact_jacobi_step(k, alpha, beta), the reference of specfun._jacobi_steps.

    For integers whose products stay below 2^53, every product of the
    float recurrence is exact and its one division rounds correctly, so
    each step it gives equals this one bit for bit.
    """
    return _exact_jacobi_step
