import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambshift.specfun import (
    hyp2f1_terminating,
    hyp2f1_terminating_dz,
    jacobi_p,
    jacobi_p_dw,
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

    def test_derivative_is_shifted_series(self):
        a, b, c, z = -4, -9, 1, 0.37
        h = 1e-6
        fd = (hyp2f1_terminating(a, b, c, z + h) - hyp2f1_terminating(a, b, c, z - h)) / (2 * h)
        assert hyp2f1_terminating_dz(a, b, c, z) == pytest.approx(fd, rel=1e-9)
        assert hyp2f1_terminating_dz(0, -3, 1, z) == 0.0


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


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_p(0, 0, -3, 0.77) == 1.0
        assert jacobi_p(0, 2, 5, -4.0) == 1.0

    def test_degree_one_matches_formula(self):
        for w in (-1.5, 0.0, 2.0):
            assert jacobi_p(1, 0, -3, w) == pytest.approx(1.5 - w / 2.0, rel=1e-15)

    def test_kernel_identity_small_case(self):
        # degree N+L with (0, -1-2L) matches the terminating Gauss series
        N, L, w = 2, 1, 2.0
        z = (w - 1.0) / (w + 1.0)
        lhs = hyp2f1_terminating(L + 1 - N, -L - N, 1, z)
        rhs = (1.0 - z) ** (L + N) * jacobi_p(N + L, 0, -1 - 2 * L, w)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("n,alpha,beta", [(3, 0, -3), (5, 0, -3), (4, 0, -1), (8, 0, -5), (6, 0, 3), (7, 2, 1)])
    def test_against_bruteforce_expansion(self, n, alpha, beta):
        for x in (-0.9, -0.3, 0.4, 1.0, 2.5, -7.0):
            expected = _jacobi_bruteforce(n, alpha, beta, x)
            assert jacobi_p(n, alpha, beta, x) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_large_degree_against_mpmath(self):
        mp.mp.dps = 40
        for (n, alpha, beta, x) in ((60, 0, 3, 0.42), (40, 0, 9, -0.8)):
            expected = float(mp.jacobi(n, alpha, beta, x))
            assert jacobi_p(n, alpha, beta, x) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_large_degree(self):
        # reduction path: P_n^{(0,-m)} = ((x+1)/2)^m P_{n-m}^{(0,m)}
        mp.mp.dps = 40
        n, m, x = 61, 3, 1.7
        expected = float(((mp.mpf(x) + 1) / 2) ** m * mp.jacobi(n - m, 0, m, x))
        assert jacobi_p(n, 0, -m, x) == pytest.approx(expected, rel=1e-12)

    def test_unsupported_degenerate_combination(self):
        with pytest.raises(ValueError):
            jacobi_p(5, 1, -3, 0.3)

    def test_derivative_relation(self):
        for (n, alpha, beta, w) in ((4, 0, 3, 0.3), (6, 0, 5, -0.6)):
            h = 1e-6
            fd = (jacobi_p(n, alpha, beta, w + h) - jacobi_p(n, alpha, beta, w - h)) / (2 * h)
            assert jacobi_p_dw(n, alpha, beta, w) == pytest.approx(fd, rel=1e-8)


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


def test_neumaier_handles_cancellation():
    values = [1.0e16, 1.0, -1.0e16]
    acc = _NeumaierAcc()
    for v in values:
        acc.add(v)
    assert acc.value == 1.0
    assert sum(values) == 0.0  # plain summation loses the 1.0
