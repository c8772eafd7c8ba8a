import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambshift.specfun import (
    _jacobi_recurrence,
    digamma,
    hyp2f1_terminating,
    ln_abs,
    ln_gamma_ratio,
    _NeumaierAcc,
)


class TestHyp2f1Terminating:
    def test_empty_series_is_one(self):
        assert hyp2f1_terminating(0, -3, 1, 5.7) == 1.0

    def test_single_linear_term(self):
        for z in (0.3, -4.0, 17.5):
            assert hyp2f1_terminating(-1, -3, 1, z) == pytest.approx(1.0 + 3.0 * z, rel=1e-15)

    def test_two_term_value(self):
        assert hyp2f1_terminating(-1, -2, 1, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_rejects_non_terminating(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(0.5, 1, 1, 0.2)
        with pytest.raises(ValueError):
            hyp2f1_terminating(2, 1, 1, 0.2)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(-2, 1, 0, 0.2)

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (-5, -7, 1, -3.2),
            (-12, -14, 1, 25.0),
            (-3, 9, 4, -0.7),
            (-8, -8, 2, 1.0e3),
        ],
    )
    def test_against_mpmath(self, a, b, c, z):
        mp.mp.dps = 40
        expected = float(mp.hyp2f1(a, b, c, z))
        assert hyp2f1_terminating(a, b, c, z) == pytest.approx(expected, rel=1e-13)

    def test_cancellation_fallback_path(self):
        # alternating series with term sum ~1e16 times the result
        mp.mp.dps = 60
        a, b, c, z = -40, -50, 1, -30.0
        expected = float(mp.hyp2f1(a, b, c, z))
        assert hyp2f1_terminating(a, b, c, z) == pytest.approx(expected, rel=1e-13)

    def test_large_argument_contract(self):
        # |z| up to 1e6 and |a| up to 60 stay within 1e-13 relative
        # (restricted to parameter combinations whose value fits a double)
        mp.mp.dps = 80
        for (a, b, z) in ((-60, -2, 1.0e6), (-35, -35, -1.0e6), (-60, -60, -30.0), (-8, -8, 1.0e6)):
            expected = mp.hyp2f1(a, b, 1, z)
            got = hyp2f1_terminating(a, b, 1, z)
            assert abs(got - float(expected)) <= 1e-13 * abs(float(expected))

    def test_beyond_float_range_stays_exact(self):
        # the value ~1e400 does not fit a double; its log magnitude does
        mp.mp.dps = 40
        a, b, c, z = -10, -12, 1, -1.0e40
        got = hyp2f1_terminating(a, b, c, z)
        expected = mp.hyp2f1(a, b, c, z)
        assert isinstance(got, Fraction) and got > 0
        assert ln_abs(got) == pytest.approx(float(mp.log(abs(expected))), rel=1e-15)
        assert ln_abs(-2.5) == math.log(2.5)

    def test_complex_argument(self):
        mp.mp.dps = 30
        z = complex(0.3, -1.2)
        expected = complex(mp.hyp2f1(-4, -6, 1, mp.mpc(z)))
        assert hyp2f1_terminating(-4, -6, 1, z) == pytest.approx(expected, rel=1e-13)

    @given(
        a=st.integers(min_value=-20, max_value=0),
        b=st.integers(min_value=-20, max_value=20),
        c=st.integers(min_value=1, max_value=6),
    )
    def test_unit_argument_zero(self, a, b, c):
        assert hyp2f1_terminating(a, b, c, 0.0) == 1.0


def _jacobi_bruteforce(n, alpha, beta, x):
    """Direct sum over the binomial representation, exact rationals."""
    total = Fraction(0)
    xq = Fraction(x)
    for s in range(n + 1):
        c1 = _binom_frac(n + alpha, s)
        c2 = _binom_frac(n + beta, n - s)
        total += c1 * c2 * ((xq - 1) / 2) ** (n - s) * ((xq + 1) / 2) ** s
    return float(total)


def _binom_frac(top, k):
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(top - i, i + 1)
    return out


def _jacobi_negative_beta(n, m, x):
    """P_n^{(0,-m)}(x) = ((x+1)/2)^m P_{n-m}^{(0,m)}(x) for n >= m, the factored
    form behind the Jacobi form of the real-time kernel (oracles.kernel_q)."""
    return ((x + 1.0) / 2.0) ** m * _jacobi_recurrence(n - m, 0.0, float(m), x)


class TestJacobi:
    def test_degree_zero(self):
        assert _jacobi_recurrence(0, 0.0, 3.0, 0.77) == 1.0
        assert _jacobi_recurrence(0, 2.0, 5.0, -4.0) == 1.0

    def test_degree_one_matches_formula(self):
        for w in (-1.5, 0.0, 2.0):
            assert _jacobi_recurrence(1, 0.0, 3.0, w) == pytest.approx(2.5 * w - 1.5, rel=1e-15)

    def test_kernel_identity_small_case(self):
        # degree N+L with (0, -1-2L) matches the terminating Gauss series
        N, L, w = 2, 1, 2.0
        z = (w - 1.0) / (w + 1.0)
        lhs = hyp2f1_terminating(L + 1 - N, -L - N, 1, z)
        rhs = (1.0 - z) ** (L + N) * _jacobi_negative_beta(N + L, 2 * L + 1, w)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("n,alpha,beta", [(3, 0, -3), (5, 0, -3), (4, 0, -1), (8, 0, -5), (6, 0, 3), (7, 2, 1)])
    def test_against_bruteforce_expansion(self, n, alpha, beta):
        for x in (-0.9, -0.3, 0.4, 1.0, 2.5, -7.0):
            expected = _jacobi_bruteforce(n, alpha, beta, x)
            if beta < 0:
                got = _jacobi_negative_beta(n, -beta, x)
            else:
                got = _jacobi_recurrence(n, float(alpha), float(beta), x)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_large_degree_against_mpmath(self):
        mp.mp.dps = 40
        for (n, alpha, beta, x) in ((60, 0, 3, 0.42), (40, 0, 9, -0.8)):
            expected = float(mp.jacobi(n, alpha, beta, x))
            assert _jacobi_recurrence(n, float(alpha), float(beta), x) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_large_degree(self):
        # (0, -m) at degree >= m hits a vanishing leading coefficient, for
        # float and array arguments alike; kernel_q factors it out instead
        for x in (1.7, np.array([1.7, -0.2])):
            with pytest.raises(ValueError):
                _jacobi_recurrence(61, 0.0, -3.0, x)

    def test_unsupported_degenerate_combination(self):
        with pytest.raises(ValueError):
            _jacobi_recurrence(5, 1.0, -3.0, 0.3)
        with pytest.raises(ValueError):
            _jacobi_recurrence(5, np.array([0.0, 1.0]), -3.0, 0.3)


class TestLnGammaRatio:
    def test_simple_ratio(self):
        assert ln_gamma_ratio(5, 3) == pytest.approx(math.log(12.0), rel=1e-15)

    @given(st.integers(min_value=1, max_value=80))
    @settings(max_examples=30)
    def test_identity(self, k):
        assert ln_gamma_ratio(k, k) == 0.0

    def test_big_factorial_against_exact_integer(self):
        expected = math.log(math.factorial(39))
        assert ln_gamma_ratio(40, 1) == pytest.approx(expected, rel=1e-14)

    def test_inverse_antisymmetry(self):
        assert ln_gamma_ratio(17, 60) == pytest.approx(-ln_gamma_ratio(60, 17), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_gamma_ratio(0, 3)
        with pytest.raises(ValueError):
            ln_gamma_ratio(4, -1)

    def test_error_bound_against_lgamma(self):
        for num, den in ((123, 7), (61, 60), (2, 90)):
            expected = math.lgamma(num) - math.lgamma(den)
            got = ln_gamma_ratio(num, den)
            assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


class TestDigamma:
    # the closed-form tau integral calls digamma once, at 1 - nu + floor(nu)
    # in (0, 1], and reaches psi(b + j) for j up to ~60 beyond 2N by
    # recurrence; the shifted arguments check where that recurrence lands
    STARTS = np.linspace(0.0, 1.0, 201)[1:]

    def test_start_interval_against_mpmath(self):
        with mp.workdps(30):
            for x in self.STARTS.tolist():
                want = mp.digamma(x)
                assert abs(digamma(x) - want) <= 1e-15 * max(1.0, abs(want)), x

    def test_shifted_arguments_against_mpmath(self):
        with mp.workdps(30):
            for x in self.STARTS[::10].tolist():
                for i in range(1, 90):
                    want = mp.digamma(x + i)
                    assert abs(digamma(x + i) - want) <= 1e-15 * max(1.0, abs(want)), (x, i)

    def test_rejects_nonpositive(self):
        for x in (0.0, -0.5, -3.0):
            with pytest.raises(ValueError):
                digamma(x)


def test_neumaier_handles_cancellation():
    values = [1.0e16, 1.0, -1.0e16]
    acc = _NeumaierAcc()
    for v in values:
        acc.add(v)
    assert acc.value == 1.0
    assert sum(values) == 0.0  # plain summation loses the 1.0
