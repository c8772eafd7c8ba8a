"""Dipole decay rates against Gordon's closed-form radial integrals, in exact rationals.

W. Gordon (Ann. Phys. 394, 1031 (1929); Bethe and Salpeter, Quantum
Mechanics of One- and Two-Electron Atoms, eq. (63.2)) gives the hydrogen
dipole integral int_0^inf r^3 R_{n,l} R_{m,l-1} dr as a difference of two
terminating 2F1 series times square roots of factorials.  Its square is
rational, and so is

    omega^3 sum_{l = L +- 1} max(L, l)/(2L + 1) |<n l| r |N L>|^2,

the part of the dipole rate from (N, L) to shell n that depends on the
states (atomic units, Z = 1, omega = 1/(2n^2) - 1/(2N^2)).  Its ratio to
the 2p -> 1s value leaves no physical constant to type in: the reference
is the exact ratio rounded once to a float.  Gordon's form is checked
against the direct sum over both Laguerre polynomials, whose terms are
k!/a^{k+1} with a = 1/N + 1/n.  Neither shares anything with the SU(1,1)
residues behind shifts.decay_rates.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from lambshift.shifts import DipoleOptions, QuantumState, decay_rates

DIPOLE = DipoleOptions(enabled=True)

# The tier-1 bound on the relative error of a rate ratio, N <= 20: the worst
# measured is 1.4e-13, at (20, 1) -> 18.
TIER1_REL_TOL = 1e-12
# The bound of the opt-in sweep to N = 200 (tests/optin_exact_rates.py).
SWEEP_REL_TOL = 1e-10


def radial_moment_squared(N: int, L: int, n: int, l: int, power: int = 3) -> Fraction:
    """|int_0^inf r^power R_{N,L}(r) R_{n,l}(r) dr|^2 exactly (atomic units, Z = 1).

    R_{n,l} = c_{n,l} (2r/n)^l L_{n-l-1}^{(2l+1)}(2r/n) e^{-r/n} with
    c_{n,l}^2 = 4 (n-l-1)!/(n^4 (n+l)!).  With the Laguerre sums over m and q,
    each term is an integer over (N+n)^{p+1}, p = power + L + l + m + q; all
    of them share the denominator (N+n)^{top+1}, so the sum is one integer.
    """
    top = power + N + n - 2
    total = 0
    for m in range(N - L):
        outer = (-1) ** m * comb(N + L, N - L - 1 - m) * 2**m * n ** (L + m + power + 1)
        for q in range(n - l):
            p = power + L + l + m + q
            multinomial = factorial(p) // (factorial(m) * factorial(q))
            total += (
                outer * (-1) ** q * comb(n + l, n - l - 1 - q) * 2 ** (L + l + q) * multinomial
                * N ** (l + q + power + 1) * (N + n) ** (top - p)
            )
    norms = Fraction(4 * factorial(N - L - 1), N**4 * factorial(N + L)) * Fraction(
        4 * factorial(n - l - 1), n**4 * factorial(n + l)
    )
    return norms * Fraction(total, (N + n) ** (top + 1)) ** 2


def _terminating_2f1(a: int, b: int, c: int, x: Fraction) -> Fraction:
    """2F1(a, b; c; x) for a negative integer a or b, exactly."""
    total, term, k = Fraction(0), Fraction(1), 0
    while term:
        total += term
        term *= Fraction((a + k) * (b + k), (c + k) * (k + 1)) * x
        k += 1
    return total


def gordon_squared(n: int, l: int, m: int) -> Fraction:
    """|int_0^inf r^3 R_{n,l}(r) R_{m,l-1}(r) dr|^2 exactly, n != m (Gordon's integral)."""
    x = Fraction(-4 * n * m, (n - m) ** 2)
    bracket = _terminating_2f1(l + 1 - n, l - m, 2 * l, x) - Fraction(n - m, n + m) ** 2 * _terminating_2f1(
        l - 1 - n, l - m, 2 * l, x
    )
    factorials = Fraction(
        factorial(n + l) * factorial(m + l - 1),
        16 * factorial(2 * l - 1) ** 2 * factorial(n - l - 1) * factorial(m - l),
    )
    powers = Fraction((4 * n * m) ** (2 * l + 2), (n + m) ** (2 * (n + m))) * Fraction(n - m) ** (2 * (n + m - 2 * l - 2))
    return factorials * powers * bracket**2


@lru_cache(maxsize=None)
def dipole_strength(N: int, L: int, n: int) -> Fraction:
    """omega^3 sum_{l = L +- 1, l < n} max(L, l)/(2L + 1) |<n l| r |N L>|^2, exact."""
    total = Fraction(0)
    if 1 <= L <= n:  # l = L - 1
        total += Fraction(L, 2 * L + 1) * gordon_squared(N, L, n)
    if L + 1 < n:  # l = L + 1
        total += Fraction(L + 1, 2 * L + 1) * gordon_squared(n, L + 1, N)
    return Fraction(N * N - n * n, 2 * N * N * n * n) ** 3 * total


def rate_ratio(N: int, L: int, n: int) -> float:
    """The dipole rate (N, L) -> shell n over the 2p -> 1s rate, from Gordon's integrals."""
    return float(dipole_strength(N, L, n) / dipole_strength(2, 1, 1))


def worst_rate_error(N: int, L: int) -> tuple[float, int]:
    """(worst relative error, its shell n) of decay_rates' dipole rates of (N, L) over 2p -> 1s."""
    unit = decay_rates(QuantumState(N=2, L=1), DIPOLE)[0][1]
    worst = (0.0, 0)
    for n, rate in decay_rates(QuantumState(N=N, L=L), DIPOLE):
        want = rate_ratio(N, L, n)
        if want == 0.0:  # an s state to 1s: no dipole channel
            assert rate == 0.0, (N, L, n)
            continue
        worst = max(worst, (abs(rate / unit - want) / want, n))
    return worst


class TestReference:
    def test_radial_functions_are_orthonormal(self):
        for N, n, l in ((1, 1, 0), (2, 2, 1), (3, 3, 1), (5, 5, 2), (2, 3, 0), (3, 5, 1), (4, 7, 3)):
            assert radial_moment_squared(N, l, n, l, power=2) == (1 if N == n else 0), (N, n, l)

    def test_gordon_equals_the_direct_sums(self):
        for n in range(2, 10):
            for l in range(1, n):
                for m in range(l, 10):
                    if m != n:
                        assert gordon_squared(n, l, m) == radial_moment_squared(n, l, m, l - 1), (n, l, m)

    def test_2p_1s_integral(self):
        # <1s| r |2p> = 2^7 sqrt(6)/3^5 in atomic units
        assert gordon_squared(2, 1, 1) == Fraction(2**14 * 6, 3**10)

    def test_lyman_beta_over_alpha(self):
        # A(3p -> 1s)/A(2p -> 1s) = 1.6725e8/6.2649e8 (NIST)
        assert rate_ratio(3, 1, 1) == pytest.approx(1.6725 / 6.2649, rel=1e-4)


def test_dipole_rates_match_gordon_up_to_n_20():
    errors = {(N, L): worst_rate_error(N, L) for N in range(2, 21) for L in range(N)}
    worst = max(errors, key=errors.get)
    assert errors[worst][0] <= TIER1_REL_TOL, (worst, errors[worst])
