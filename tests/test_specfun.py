import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambshift import specfun
from lambshift.oracles import digamma
from lambshift.specfun import (
    _JACOBI_STEPS,
    STRIP_IM_MAX,
    _jacobi_recurrence,
    _jacobi_steps,
    hyp2f1_terminating,
    ln_abs,
)


class TestHyp2f1Terminating:
    def test_empty_series_is_one(self):
        assert hyp2f1_terminating(0, -3, 1, 5.7) == 1.0

    def test_single_linear_term(self):
        for z in (0.3, -4.0, 17.5):
            assert hyp2f1_terminating(-1, -3, 1, z) == pytest.approx(1.0 + 3.0 * z, rel=1e-15, abs=0)

    def test_two_term_value(self):
        assert hyp2f1_terminating(-1, -2, 1, 1.0) == pytest.approx(3.0, rel=1e-15, abs=0)

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
        assert ln_abs(got) == pytest.approx(float(mp.log(abs(expected))), rel=1e-15, abs=0)
        assert ln_abs(-2.5) == math.log(2.5)

    def test_correctly_rounded_on_grid(self):
        # the exact sum rounds to the nearest double, cancelling or not,
        # for integer and non-integer b alike
        mp.mp.dps = 80
        off = []
        for a in range(-1, -16, -1):
            for b in (-20, -9, -3, -2.25, 0.5, 2, 7):
                for c in (1, 2, 5):
                    for z in (-30.0, -2.5, -0.7, 0.3, 1.7, 25.0):
                        expected = float(mp.hyp2f1(a, b, c, z))
                        if hyp2f1_terminating(a, b, c, z) != expected:
                            off.append((a, b, c, z))
        assert off == []

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
            assert _jacobi_recurrence(1, 0.0, 3.0, w) == pytest.approx(2.5 * w - 1.5, rel=1e-15, abs=0)

    def test_kernel_identity_small_case(self):
        # degree N+L with (0, -1-2L) matches the terminating Gauss series
        N, L, w = 2, 1, 2.0
        z = (w - 1.0) / (w + 1.0)
        lhs = hyp2f1_terminating(L + 1 - N, -L - N, 1, z)
        rhs = (1.0 - z) ** (L + N) * _jacobi_negative_beta(N + L, 2 * L + 1, w)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=0)

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
            assert _jacobi_recurrence(n, float(alpha), float(beta), x) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("L", [0, 3])
    def test_array_alpha_equals_scalar_bit_for_bit(self, L):
        # alpha = j - N over a 96-element series tail, as kernel._tail_weights
        # passes it beyond j = N
        alpha = np.arange(1.0, 97.0)
        beta = 2.0 * L + 1.0
        for n in range(20):
            for w in (-0.9, 0.2, 0.95):
                got = np.broadcast_to(_jacobi_recurrence(n, alpha, beta, w), alpha.shape)
                assert got.tolist() == [_jacobi_recurrence(n, a, beta, w) for a in alpha.tolist()]
                assert _jacobi_recurrence(n, np.float64(7.0), beta, w) == _jacobi_recurrence(n, 7.0, beta, w)

    def test_degenerate_large_degree(self):
        # (0, -m) at degree >= m hits a vanishing leading coefficient, for
        # float and array arguments alike; kernel_q factors it out instead
        for x in (1.7, np.array([1.7, -0.2])):
            with pytest.raises(ValueError, match="degenerate Jacobi recurrence at degree 3"):
                _jacobi_recurrence(61, 0.0, -3.0, x)

    def test_unsupported_degenerate_combination(self):
        with pytest.raises(ValueError):
            _jacobi_recurrence(5, 1.0, -3.0, 0.3)
        with pytest.raises(ValueError):
            _jacobi_recurrence(5, np.array([0.0, 1.0]), -3.0, 0.3)


class TestJacobiTable:
    @pytest.mark.parametrize("beta", [1.0, 7.0])
    def test_table_equals_on_the_fly_steps_bit_for_bit(self, beta, exact_jacobi_step):
        # the shared scalar table and an array alpha (as kernel tail chunks
        # pass it) hold the exact coefficients correctly rounded, element by
        # element
        alphas = np.arange(0.0, 40.0)
        table = {a: _jacobi_steps(15, a, beta)[:15] for a in alphas.tolist()}
        for k, arrays in enumerate(_jacobi_steps(15, alphas, beta), 1):
            arrays = [np.broadcast_to(c, alphas.shape).tolist() for c in arrays]
            for i, a in enumerate(alphas.tolist()):
                exact = exact_jacobi_step(k, int(a), int(beta))
                assert table[a][k - 1] == exact
                assert tuple(c[i] for c in arrays) == exact

    @pytest.mark.parametrize("beta", [1, 3, 39])
    def test_integer_families_grown_in_steps_equal_fresh_steps(self, beta, monkeypatch, exact_jacobi_step):
        # kernel._row_table keys the families by the ints (N - j, 2L + 1)
        # and grows each as its row tables grow: whatever the increments,
        # a family holds the steps of one call for its whole degree, each
        # the exact coefficient correctly rounded
        monkeypatch.setattr(specfun, "_JACOBI_STEPS", {})
        for degree in (3, 9, 40):
            for alpha in range(40):
                assert len(_jacobi_steps(degree, alpha, beta)) == degree
        grown = specfun._JACOBI_STEPS
        assert set(grown) == {(alpha, beta) for alpha in range(40)}
        monkeypatch.setattr(specfun, "_JACOBI_STEPS", {})
        for alpha in range(40):
            exact = [exact_jacobi_step(k, alpha, beta) for k in range(1, 41)]
            assert _jacobi_steps(40, alpha, beta) == grown[alpha, beta] == exact, alpha

    def test_failed_extension_keeps_the_valid_steps(self, monkeypatch, exact_jacobi_step):
        # (0, -3) degenerates at degree 3: the steps below it stay in the
        # family, each its exact value, and a retry raises at the same degree
        monkeypatch.setattr(specfun, "_JACOBI_STEPS", {})
        valid = [exact_jacobi_step(k, 0, -3) for k in (1, 2)]
        for _ in range(2):
            with pytest.raises(ValueError, match="degenerate Jacobi recurrence at degree 3"):
                _jacobi_steps(10, 0.0, -3.0)
            assert specfun._JACOBI_STEPS[0.0, -3.0] == valid
        assert _jacobi_steps(2, 0.0, -3.0) == valid

    def test_table_grows_on_demand_and_only_for_scalars(self):
        key = (123.0, 5.0)
        _JACOBI_STEPS.pop(key, None)
        low = _jacobi_steps(3, *key)
        assert len(_JACOBI_STEPS[key]) == 3
        high = _jacobi_steps(9, *key)
        assert high is low and len(high) == 9
        assert _jacobi_steps(4, *key) is high  # never shrinks, never recomputes
        size = len(_JACOBI_STEPS)
        _jacobi_steps(6, np.array([123.0, 124.0]), 5.0)
        assert len(_JACOBI_STEPS) == size
        _JACOBI_STEPS.pop(key)

    def test_recurrence_reads_the_table(self):
        # the degree-n value uses the first n steps of a longer table
        _jacobi_steps(30, 2.0, 3.0)
        expected = float(mp.jacobi(11, 2, 3, 0.37))
        assert _jacobi_recurrence(11, 2.0, 3.0, 0.37) == pytest.approx(expected, rel=1e-13, abs=0)


class TestDigamma:
    # oracles.digamma, the scalar reference of specfun.digamma's strip form,
    # at the strip's real points 1 - nu + floor(nu) in (0, 1] and at
    # psi(b + j), j up to ~60 beyond 2N, where the kernel's recurrence lands
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


class TestStripDigamma:
    # specfun.digamma, the closed-form tau integral's one array call per
    # block: heads psi(1 - nu + floor(nu)), Re in (0, 1], at real nu and at
    # nu + i eps, |Im| = eps <= EPS_MAX
    STARTS = TestDigamma.STARTS

    @staticmethod
    def _complex_points():
        rng = np.random.default_rng(20261021)
        re = 1.0 - rng.uniform(0.0, 1.0, 400)  # (0, 1]
        im = rng.uniform(-STRIP_IM_MAX, STRIP_IM_MAX, 400)
        corners = [complex(r, i) for r in (1e-12, 0.5, 1.0) for i in (-STRIP_IM_MAX, STRIP_IM_MAX)]
        return np.concatenate((re + 1j * im, corners))

    def test_start_interval_against_mpmath(self):
        got = specfun.digamma(self.STARTS)
        assert got.dtype == float
        with mp.workdps(30):
            for x, value in zip(self.STARTS.tolist(), got.tolist()):
                want = mp.digamma(x)
                assert abs(value - want) <= 1e-15 * max(1.0, abs(want)), x

    def test_complex_strip_against_mpmath(self):
        points = self._complex_points()
        got = specfun.digamma(points)
        assert got.dtype == complex
        with mp.workdps(20):
            for x, value in zip(points.tolist(), got.tolist()):
                want = mp.digamma(x)
                assert abs(value - want) <= 1e-15 * max(1.0, abs(want)), x

    def test_block_of_one_equals_block(self):
        # each element's float is its own, whatever else the array holds
        for points in (self.STARTS, self._complex_points()[:90]):
            block = specfun.digamma(points).tolist()
            assert block == [specfun.digamma(points[i : i + 1])[0] for i in range(points.size)]
            assert block[:15] == specfun.digamma(points[:15]).tolist()

    def test_rejects_points_off_the_strip(self):
        for x in (0.0, -0.5, 1.0 + 1e-15, 1.5, math.nan, complex(0.5, STRIP_IM_MAX * 1.01), complex(math.nan, 0.1),
                  complex(0.0, 0.1), complex(0.5, math.nan)):
            with pytest.raises(ValueError, match="digamma needs 0 < Re x <= 1"):
                specfun.digamma(np.array([0.5, x]))


class TestComplexDigamma:
    # the reference at complex points beyond the strip: the eps oracle's
    # Euler form at nu + i eps recurs from 1 - nu' + floor(Re nu'), Im = -eps
    def test_random_points_against_mpmath(self):
        rng = np.random.default_rng(20261018)
        # Re in (0, 20], |Im| <= 1
        points = (20.0 - rng.uniform(0.0, 20.0, 2000) + 1j * rng.uniform(-1.0, 1.0, 2000)).tolist()
        with mp.workdps(20):
            for x in points:
                want = mp.digamma(x)
                got = digamma(x)
                assert isinstance(got, complex)
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), x

    def test_float_argument_gives_float(self):
        assert type(digamma(0.37)) is float
        assert type(digamma(23.5)) is float

    def test_rejects_nonpositive_real_part(self):
        for x in (0j, -0.5 + 0.1j, complex(-3.0, -1.0), 0.0 + 2.0j):
            with pytest.raises(ValueError):
                digamma(x)
