import cmath
import math
import random
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from lambshift.kernel import PhiKernel, dilation_weights, residue_coeffs
from lambshift.oracles import kernel_q, kernel_via_spectral_series, tau_integral_by_quadrature
from lambshift.su11 import RepLabel, rep_matrix_element, scaling_coords


def _mp_coeffs(N, L, phi, j0, j1):
    """q_j0 .. q_{j1-1} of the exponential series, expanded at 60 digits."""
    with mp.workdps(60):
        half = mp.mpf(phi) / 2
        sh2, ch2 = mp.sinh(half) ** 2, mp.cosh(half) ** 2
        t2 = sh2 / ch2
        a, b = L + 1 - N, -L - N
        # pi(u) = sum_k A_k u^{N-1-k} (1-u)^{2k+2}, A_k from 2F1(a, b; 1; z)
        poly = [mp.mpf(0)] * (2 * N - L + 1)
        t_k = mp.mpf(1)
        for k in range(N - L):
            if k:
                t_k *= mp.mpf((a + k - 1) * (b + k - 1)) / (k * k)
            amp = -t_k * (sh2 * ch2) ** k / (4 * ch2 ** (2 * N))
            for j in range(2 * k + 3):
                poly[N - 1 - k + j] += amp * mp.binomial(2 * k + 2, j) * (-1) ** j
        # times (1 - u t^2)^{-2N} = sum_m C(2N-1+m, m) t^{2m} u^m
        geom = [mp.binomial(2 * N - 1 + m, m) * t2**m for m in range(j1)]
        return [
            float(mp.fsum(poly[i] * geom[n - i] for i in range(min(n + 1, len(poly)))))
            for n in range(j0, j1)
        ]


def _mp_dilation_weight(N, L, j, phi):
    """|D_{N,j}(phi)|^2 from the Gauss series of the matrix element, at 80 digits."""
    m0 = L + 1
    if j < m0:
        return mp.mpf(0)
    lo, hi = min(N, j), max(N, j)
    d = hi - lo
    with mp.workdps(80):
        b2 = mp.sinh(mp.mpf(phi) / 2) ** 2
        a, b, c = m0 - lo, 1 - m0 - lo, d + 1
        term = series = mp.mpf(1)
        for k in range(-a):
            term *= mp.mpf((a + k) * (b + k)) / ((c + k) * (k + 1)) * -b2
            series += term
        gammas = mp.factorial(hi + L) * mp.factorial(hi - m0) / (
            mp.factorial(lo + L) * mp.factorial(lo - m0)
        )
        return gammas / mp.factorial(d) ** 2 * b2**d * (1 + b2) ** -(hi + lo) * series**2


# every L for N <= 4, the lowest, a middle and the highest L up to N = 20
SAMPLED_STATES = [(N, L) for N in (1, 2, 3, 4) for L in range(N)] + [
    (N, L) for N in (7, 12, 17, 20) for L in (0, N // 2, N - 1)
]


class TestDilationWeights:
    @pytest.mark.parametrize("N, L", SAMPLED_STATES)
    def test_weights_match_reference_route_and_mpmath(self, N, L):
        # both sides of j = N, at a sample of the poles ln(N/n) and off them
        poles = [math.log(N / n) for n in range(1, N)]
        label = RepLabel(L + 1)
        for phi in poles[:: max(1, len(poles) // 3)] + [0.3, 1.7, 4.0, 12.0]:
            got = dilation_weights(N, L, phi, N + 4)[0][1:]  # j = 0 .. N+3
            want = [_mp_dilation_weight(N, L, j, phi) for j in range(N + 4)]
            u = scaling_coords(phi)
            ref = [abs(rep_matrix_element(label, N, j, u)) ** 2 for j in range(N + 4)]
            scale = float(max(want))
            for j in range(N + 4):
                assert abs(got[j] - want[j]) <= 1e-12 * scale, (j, phi)
                assert abs(got[j] - ref[j]) <= 1e-12 * scale, (j, phi)

    @pytest.mark.parametrize("N, L", SAMPLED_STATES)
    def test_decay_channel_residues_match_mpmath(self, N, L):
        # q_n at its pole ln(N/n) fixes the partial rate of channel n; the
        # closed channels (n = 1 of s states) vanish up to the rounding of
        # ln(N/n), below 3e-16 of the weights, the open ones exceed 3e-2
        for n in range(max(1, L), N):
            phi0 = math.log(N / n)
            d = [_mp_dilation_weight(N, L, j, phi0) for j in (n - 1, n, n + 1)]
            with mp.workdps(80):
                want = d[1] / 2 - d[0] / 4 - d[2] / 4
                if abs(want) <= 1e-12 * max(d):
                    continue
            got = residue_coeffs(N, L, phi0, n)
            assert abs(got - want) <= 1e-12 * abs(want), n


def test_hot_path_never_calls_reference_route(monkeypatch):
    # the matrix-element route and its Gauss series are for cross-checks only
    import lambshift.kernel as K
    import lambshift.su11 as su11
    from lambshift.shifts import DipoleOptions, QuantumState, decay_rates, lamb_shift

    def reference_route(*args, **kwargs):
        raise AssertionError("reference route called on the hot path")

    monkeypatch.setattr(K, "rep_matrix_element", reference_route)
    monkeypatch.setattr(su11, "rep_matrix_element", reference_route)
    monkeypatch.setattr(su11, "hyp2f1_terminating", reference_route)
    assert math.fsum(residue_coeffs(6, 2, 0.7, n) for n in range(2, 6)) != 0.0
    state = QuantumState(N=4, L=1)
    assert decay_rates(state) and decay_rates(state, DipoleOptions(enabled=True))
    series, closed = PhiKernel(3, 0, 1.0), PhiKernel(8, 0, 4.0)
    assert series._use_series() and not closed._use_series()
    assert series.tau_integral()[3] and closed.tau_integral()[3]
    assert lamb_shift(QuantumState(N=2, L=1)).converged


class TestKernelQ:
    def test_zero_time(self):
        assert kernel_q(3, 1, 0.0, 0.9) == 0.0

    def test_zero_phi_closed_form(self):
        for (N, L, T) in ((1, 0, 0.7), (4, 2, 2.9), (2, 1, 5.0)):
            got = kernel_q(N, L, T, 0.0)
            want = math.sin(T / 2.0) ** 2 * cmath.exp(-1j * N * T)
            assert got == pytest.approx(want, rel=1e-14)

    def test_matches_spectral_series(self):
        got = kernel_q(3, 1, 1.3, 0.7)
        ref = kernel_via_spectral_series(3, 1, 1.3, 0.7, 200)
        assert abs(got - ref.value) < 1e-10

    def test_direct_gauss_series_form_agrees(self):
        # same value through the alternating terminating series with the
        # explicit phase split, wherever it is well conditioned
        from lambshift.specfun import hyp2f1_terminating

        rng = random.Random(21)
        for _ in range(40):
            N = rng.randint(1, 6)
            L = rng.randint(0, N - 1)
            T = rng.uniform(0.1, 6.0)
            phi = rng.uniform(0.0, 3.0)
            f = complex(math.cos(T / 2), math.sin(T / 2) * math.cosh(phi))
            z = 1.0 - abs(f) ** 2
            direct = math.sin(T / 2) ** 2 * f ** (-2 * N) * hyp2f1_terminating(
                L + 1 - N, -L - N, 1, z
            )
            got = kernel_q(N, L, T, phi)
            assert got == pytest.approx(direct, rel=1e-10, abs=1e-13)

    def test_rejects_bad_quantum_numbers(self):
        with pytest.raises(ValueError):
            kernel_q(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            kernel_q(0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kernel_q(2, 1, 1.0, -0.1)


class TestResidues:
    def test_circular_state_closed_form(self):
        # -1/(4 cosh^{4N}(phi/2)) at cosh(phi) = 5/4
        got = residue_coeffs(2, 1, math.log(2.0), 1)
        assert got == pytest.approx(-1024.0 / 6561.0, rel=1e-13)

    def test_circular_family_any_phi(self):
        for N in (2, 3, 5):
            phi = 0.8
            want = -1.0 / (4.0 * math.cosh(phi / 2.0) ** (4 * N))
            assert residue_coeffs(N, N - 1, phi, N - 1) == pytest.approx(want, rel=1e-12)

    def test_identity_dilation_single_entry(self):
        assert residue_coeffs(4, 1, 0.0, 3) == -0.25
        assert residue_coeffs(4, 1, 0.0, 1) == 0.0 and residue_coeffs(4, 1, 0.0, 2) == 0.0

    def test_ground_tower_single_entry(self):
        phi = 1.3
        want = -0.25 / math.cosh(phi / 2.0) ** 4
        assert residue_coeffs(1, 0, phi, 0) == pytest.approx(want, rel=1e-13)
        with pytest.raises(ValueError):
            residue_coeffs(1, 0, phi, 1)

    @pytest.mark.parametrize("N, L", SAMPLED_STATES)
    def test_equals_phi_kernel_residues(self, N, L):
        # one formula behind both: the scalar residue and the closed branch's
        # table, at the pole of channel max(1, (N+L)//2) (phi = 0 for N = 1)
        for phi in (math.log(N / max(1, (N + L) // 2)), 0.3, 4.0):
            table = PhiKernel(N, L, phi).residues
            for n in range(L, N):
                assert residue_coeffs(N, L, phi, n) == table[n], (phi, n)

    @pytest.mark.parametrize("N, L", [(1, 0), (3, 1), (6, 5), (12, 6)])
    def test_rejects_index_outside_channels(self, N, L):
        for n in (L - 1, N):
            with pytest.raises(ValueError):
                residue_coeffs(N, L, 0.7, n)

    def test_matches_series_coefficients(self):
        # the u-expansion of the closed form, at 60 digits
        for (N, L, phi) in ((2, 0, 0.4), (4, 1, 1.7), (6, 3, 2.8), (5, 0, 3.6)):
            want = _mp_coeffs(N, L, phi, 0, N)
            scale = max(abs(x) for x in want)
            for n in range(L, N):
                assert abs(residue_coeffs(N, L, phi, n) - want[n]) <= 1e-13 * scale

    def test_large_boost_stays_finite(self):
        # every |D|^2 here is ~e^{-180}: the sech^4 prefactor of the Jacobi
        # form carries that scale and the polynomial at w ~ -1 is moderate,
        # so nothing overflows or cancels
        N, L, phi = 10, 0, 90.0
        want = _mp_coeffs(N, L, phi, 0, N)
        scale = max(abs(x) for x in want)
        for n in range(N):
            got = residue_coeffs(N, L, phi, n)
            assert math.isfinite(got)
            assert abs(got - want[n]) <= 1e-11 * scale

    @pytest.mark.parametrize("N", (8, 10, 12))
    @pytest.mark.parametrize("phi", (3.5, 5.0))
    def test_closed_branch_residues_match_mpmath(self, N, phi):
        # at these phi the closed branch subtracts the residues; expanding
        # the closed form in double precision loses 2e-10..9e-7 of the scale
        L = 0
        ker = PhiKernel(N, L, phi)
        assert not ker._use_series()
        want = _mp_coeffs(N, L, phi, 0, N)
        scale = max(abs(x) for x in want)
        for n in range(N):
            assert abs(ker.residues[n] - want[n]) <= 1e-12 * scale

    def test_completeness_with_spectral_tail(self):
        # sum of all exponential coefficients vanishes (kernel is 0 at T=0);
        # the tail from the reference route, one scalar matrix element per
        # j, independent of the Jacobi form that dilation_weights uses
        for (N, phi) in ((2, 0.5), (4, 1.5), (6, 3.0)):
            L = 0
            label = RepLabel(L + 1)
            u = scaling_coords(phi)
            dsq = {}
            for n in range(L, 402):
                dsq[n] = abs(rep_matrix_element(label, N, n, u)) ** 2 if n >= L + 1 else 0.0
            tail_sum = 0.0
            tail_bound = 0.0
            for n in range(N, 400):
                c_n = 0.5 * dsq[n] - 0.25 * dsq[n + 1] - 0.25 * dsq[n - 1]
                tail_sum += c_n
                tail_bound = abs(c_n)
            total = math.fsum(residue_coeffs(N, L, phi, n) for n in range(L, N)) + tail_sum
            assert abs(total) <= max(1e-12, 400 * tail_bound)


class TestRemainder:
    def test_zero_phi_closed_form(self):
        for (N, L) in ((1, 0), (3, 1), (5, 2)):
            for tau in (0.2, 1.0, 4.0):
                got = PhiKernel(N, L, 0.0).remainder(tau)
                want = 0.5 * math.exp(-N * tau) - 0.25 * math.exp(-(N + 1) * tau)
                assert got == pytest.approx(want, rel=1e-13)

    def test_zero_tau_is_minus_residue_sum(self):
        for (N, L, phi) in ((2, 0, 0.8), (4, 1, 1.9), (3, 2, 3.4)):
            got = PhiKernel(N, L, phi).remainder(0.0)
            want = -math.fsum(residue_coeffs(N, L, phi, n) for n in range(L, N))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-15)

    def test_matches_spectral_tail(self):
        N, L, tau, phi = 4, 0, 0.9, 1.1
        ker = PhiKernel(N, L, phi)
        got = ker.remainder(tau)
        tail = ker._coeff_range(N, 300)
        want = float(np.sum(tail * np.exp(-np.arange(N, 300) * tau)))
        assert got == pytest.approx(want, rel=1e-12)
        # and against the independent matrix-element series
        full = kernel_via_spectral_series(N, L, tau, phi, 300, imaginary_time=True).value.real
        sub = sum(residue_coeffs(N, L, phi, n) * math.exp(-n * tau) for n in range(L, N))
        assert got == pytest.approx(full - sub, rel=1e-10)

    @pytest.mark.parametrize("N, L, phi", [(5, 0, 2.8), (8, 3, 2.5), (12, 0, 2.0)])
    def test_tail_coefficients_match_mpmath(self, N, L, phi):
        # the series branch sums these q_j (j >= N); an expanded-polynomial
        # convolution in double precision is off by 5e-8, 3e-7 and 0.1 here
        got = PhiKernel(N, L, phi)._coeff_range(N, N + 40)
        want = _mp_coeffs(N, L, phi, N, N + 40)
        scale = max(abs(x) for x in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale

    @pytest.mark.parametrize("N, L, phi", [(1, 0, 2.0), (4, 1, 2.9), (3, 0, 10.1)])
    def test_chunked_coefficients_equal_single_call(self, N, L, phi):
        # the cached weights are extended, never rebuilt, and the result
        # does not depend on how the range was split
        whole = PhiKernel(N, L, phi)._coeff_range(0, 5000)
        ker = PhiKernel(N, L, phi)
        splits = ((0, N), (N, 96), (96, 97), (97, 2000), (2000, 5000))
        pieces = [ker._coeff_range(a, b) for a, b in splits]
        assert np.array_equal(np.concatenate(pieces), whole)
        assert np.array_equal(ker._coeff_range(10, 300), whole[10:300])
        head = None
        for _, b in splits:
            head = dilation_weights(N, L, phi, b + 1, head)
        single = dilation_weights(N, L, phi, 5001)
        assert np.array_equal(head[0], single[0]) and head[1] == single[1]

    def test_reality_of_rotated_kernel(self):
        # the full rotated kernel is real; assert through the spectral sum
        for (N, L, tau, phi) in ((2, 0, 0.7, 1.2), (5, 3, 0.3, 2.1)):
            val = kernel_via_spectral_series(N, L, tau, phi, 300, imaginary_time=True).value
            assert abs(val.imag) <= 1e-13 * abs(val)

    def test_decay_order(self):
        N, L, phi = 3, 1, 1.4
        ker = PhiKernel(N, L, phi)
        r1, r2 = abs(ker.remainder(6.0)), abs(ker.remainder(9.0))
        assert r2 < r1 * math.exp(-N * 2.9)  # at least e^{-N tau} decay

    def test_branches_agree_midrange(self):
        import lambshift.kernel as K

        for (N, L, phi, tau) in ((3, 0, 2.2, 0.6), (5, 2, 2.8, 1.1)):
            series = PhiKernel(N, L, phi).remainder(tau)
            old = K.SERIES_T2_MAX
            K.SERIES_T2_MAX = -1.0
            try:
                closed = PhiKernel(N, L, phi).remainder(tau)
            finally:
                K.SERIES_T2_MAX = old
            assert series == pytest.approx(closed, rel=1e-11)


class TestRemainderDerivative:
    def test_zero_phi_closed_form(self):
        for (N, L) in ((2, 0), (4, 3)):
            for tau in (0.1, 1.7):
                got = PhiKernel(N, L, 0.0).remainder_dtau(tau)
                want = -N / 2.0 * math.exp(-N * tau) + (N + 1) / 4.0 * math.exp(-(N + 1) * tau)
                assert got == pytest.approx(want, rel=1e-12)

    def test_against_central_differences(self):
        rng = random.Random(4)
        step = 1e-5
        for _ in range(50):
            N = rng.randint(1, 6)
            L = rng.randint(0, N - 1)
            tau = rng.uniform(0.05, 3.0)
            phi = rng.uniform(0.02, 3.5)
            ker = PhiKernel(N, L, phi)
            fd = (ker.remainder(tau + step) - ker.remainder(tau - step)) / (2 * step)
            an = ker.remainder_dtau(tau)
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_specific_spec_point(self):
        N, L, tau, phi = 2, 1, 0.5, 0.8
        step = 1e-5
        ker = PhiKernel(N, L, phi)
        fd = (ker.remainder(tau + step) - ker.remainder(tau - step)) / (2 * step)
        assert ker.remainder_dtau(tau) == pytest.approx(fd, rel=1e-6)

    def test_tail_decay_bound(self):
        N, L, phi = 3, 0, 1.1
        ker = PhiKernel(N, L, phi)
        scale = abs(ker.remainder_dtau(1.0))
        for tau in (6.0, 10.0):
            assert abs(ker.remainder_dtau(tau)) <= 40.0 * scale * math.exp(-N * tau)


def _mp_closed_dtau(N, L, phi, tau, residues):
    """d/dtau of the closed u-form minus the residue sum at 30 digits, with its scale.

    Q(u) = sum_k A_k u^{N-1-k} (1-u)^{2k+2} (1 - u t^2)^{-2N} is built from
    the terminating-series coefficients C(N-L-1, k) C(N+L, k) and
    differentiated numerically by mpmath; the residues are the kernel's own
    floats, so only the closed branch's arithmetic is under test.  The scale
    is |dQ/dtau| + sum_n |n R_n u^n|, the size of the parts that cancel.
    """
    with mp.workdps(30):
        half = mp.mpf(phi) / 2
        sh2, ch2 = mp.sinh(half) ** 2, mp.cosh(half) ** 2
        t2 = sh2 / ch2

        def q(u):
            pi = mp.fsum(
                -mp.binomial(N - L - 1, k) * mp.binomial(N + L, k) * (sh2 * ch2) ** k
                / (4 * ch2 ** (2 * N)) * u ** (N - 1 - k) * (1 - u) ** (2 * k + 2)
                for k in range(N - L)
            )
            return pi * (1 - u * t2) ** (-2 * N)

        u = mp.exp(-mp.mpf(tau))
        dq = -u * mp.diff(q, u)
        res = [n * mp.mpf(residues[n]) * u**n for n in range(L, N)]
        return dq + mp.fsum(res), abs(dq) + mp.fsum(abs(r) for r in res)


class TestClosedBranchArrays:
    """The numpy closed branch that tau_integral evaluates a panel at a time."""

    TAUS = np.geomspace(1e-6, 30.0, 25)

    @pytest.mark.parametrize("phi", [3.0, 5.0, 8.0, 10.0])
    @pytest.mark.parametrize("N, L", [(2, 0), (4, 1)])
    def test_against_mpmath(self, N, L, phi):
        ker = PhiKernel(N, L, phi)
        assert not ker._use_series()
        got = ker._closed_remainder_dtau(self.TAUS)
        for g, tau in zip(got.tolist(), self.TAUS):
            want, scale = _mp_closed_dtau(N, L, phi, tau, ker.residues)
            assert abs(g - want) <= 1e-12 * scale, tau

    @pytest.mark.parametrize("phi", [3.0, 5.0, 8.0, 10.0])
    @pytest.mark.parametrize("N, L", [(2, 0), (4, 1)])
    def test_array_equals_scalar_bit_for_bit(self, N, L, phi):
        ker = PhiKernel(N, L, phi)
        got = ker._closed_remainder_dtau(self.TAUS).tolist()
        assert got == [ker.remainder_dtau(float(tau)) for tau in self.TAUS]


class TestTauIntegral:
    def test_series_vs_quadrature_branches(self):
        # the hot path (series at these phi, the Euler form beyond phi ~ 2.89)
        # against the oracle's adaptive quadrature of the closed u-form
        for (N, L, phi) in (
            (2, 0, 2.0), (4, 1, 2.5), (3, 0, 2.9), (6, 5, 1.5), (2, 0, 4.0), (4, 1, 5.0), (3, 0, 3.5),
        ):
            value = PhiKernel(N, L, phi).tau_integral()[0]
            quad = tau_integral_by_quadrature(N, L, phi)
            assert quad.converged
            assert value == pytest.approx(quad.value, rel=2e-10)

    def test_against_mpmath_quadrature(self):
        import mpmath as mp

        N, L, phi = 2, 0, 1.0
        ker = PhiKernel(N, L, phi)
        got = ker.tau_integral()[0]
        mp.mp.dps = 30
        nu = N * math.exp(-phi)
        f = lambda tau: mp.e ** (nu * tau) * ker.remainder_dtau(float(tau))
        want = float(mp.quad(f, [0, 1, 2, 4, 8, 16, 32, 64]))
        assert got == pytest.approx(want, rel=1e-9)

    def test_closed_branch_evaluates_no_integrand(self, monkeypatch):
        import lambshift.kernel as K

        def no_quadrature(*args, **kwargs):
            raise AssertionError("the closed branch integrated numerically")

        monkeypatch.setattr(K, "integrate_semi_infinite", no_quadrature)
        for (N, L, phi) in ((1, 0, 3.0), (4, 1, 5.0), (8, 3, 12.0)):
            ker = PhiKernel(N, L, phi)
            assert not ker._use_series()
            value, error, evaluations, converged = ker.tau_integral()
            pieces = ker._euler_pieces()
            assert (value, evaluations, converged) == (math.fsum(pieces), 0, True)
            assert error == 1e-15 * math.fsum(abs(x) for x in pieces)

    @pytest.mark.parametrize("N, L, phi", [(20, 0, 2.99), (30, 0, 3.1), (25, 5, 3.05)])
    def test_closed_form_with_nu_above_one(self, N, L, phi):
        # nu >= 1 on the closed branch (N >= 18): the digammas recur from
        # the first positive argument 1 - nu + floor(nu) in both directions;
        # the residue poles nu = n cancel between the pieces, so the value
        # stays finite but loses digits close to them (here nu - 1 >= 0.006)
        import lambshift.kernel as K

        ker = PhiKernel(N, L, phi)
        assert not ker._use_series() and ker.nu > 1.0
        closed = ker.tau_integral()[0]
        old = K.SERIES_T2_MAX
        K.SERIES_T2_MAX = 1.0
        try:
            series = PhiKernel(N, L, phi).tau_integral()[0]
        finally:
            K.SERIES_T2_MAX = old
        assert closed == pytest.approx(series, rel=1e-11)


def _mp_digits(phi):
    """30 digits plus one per two units of phi: 1 - t^2 ~ 4 e^{-phi} must survive in t^2."""
    return 30 + int(phi / 2)


@lru_cache(maxsize=None)
def _mp_beta_gauss(N, k, phi):
    """B(b, q+1) 2F1(2N, b; b+q+1; t^2), b = N-1-k - nu, q = 2k+2, by mpmath's own 2F1.

    It does not depend on L, which only truncates the terms at k < N - L.
    """
    with mp.workdps(_mp_digits(phi)):
        nu = N * mp.exp(-mp.mpf(phi))
        b, q = N - 1 - k - nu, 2 * k + 2
        return mp.beta(b, q + 1) * mp.hyp2f1(2 * N, b, b + q + 1, mp.tanh(mp.mpf(phi) / 2) ** 2)


def _mp_euler_form(N, L, phi, residues):
    """The closed-form tau integral in mpmath: (value, sum of the pieces' magnitudes).

    I = sum_n n R_n/(n - nu) - nu sum_k A_k B(b, q+1) 2F1(2N, b; b+q+1; t^2)
    with A_k = -C(N-L-1, k) C(N+L, k) t^{2k} sech^{4N-4k}(phi/2)/4.  The
    residues are the kernel's own floats, so only the Euler form's
    arithmetic is under test.
    """
    with mp.workdps(_mp_digits(phi)):
        half = mp.mpf(phi) / 2
        w, t2 = mp.sech(half) ** 2, mp.tanh(half) ** 2
        nu = N * mp.exp(-mp.mpf(phi))
        pieces = [n * mp.mpf(residues[n]) / (n - nu) for n in range(max(L, 1), N)]
        for k in range(N - L):
            amp = -mp.binomial(N - L - 1, k) * mp.binomial(N + L, k) * t2**k * w ** (2 * N - 2 * k) / 4
            pieces.append(-nu * amp * _mp_beta_gauss(N, k, phi))
        return mp.fsum(pieces), mp.fsum(abs(x) for x in pieces)


class TestEulerForm:
    @pytest.mark.parametrize("N", range(1, 13))
    def test_against_mpmath(self, N):
        # every L, phi from the switch to far beyond; the pieces cancel by up
        # to ~2100x (at N = 11, L = 0, phi = 3.2), so the bound is on their
        # sum of magnitudes
        for L in range(N):
            for phi in (2.95, 4.0, 6.0, 8.0, 10.0, 12.8, 20.0, 40.0):
                ker = PhiKernel(N, L, phi)
                assert not ker._use_series()
                got = ker.tau_integral()[0]
                want, pieces = _mp_euler_form(N, L, phi, ker.residues)
                assert abs(got - want) <= 1e-13 * (abs(want) + pieces), (L, phi)


def test_closed_vs_spectral_both_contours_64_points():
    rng = random.Random(64)
    worst = 0.0
    for _ in range(64):
        N = rng.randint(1, 6)
        L = rng.randint(0, N - 1)
        phi = rng.uniform(0.05, 3.0)
        if rng.random() < 0.5:
            T = rng.uniform(0.05, 6.0)
            got = kernel_q(N, L, T, phi)
            ref = kernel_via_spectral_series(N, L, T, phi, 320).value
        else:
            tau = rng.uniform(0.05, 2.5)
            ker = PhiKernel(N, L, phi)
            got = ker.q_imag_time(tau)
            ref = kernel_via_spectral_series(N, L, tau, phi, 320, imaginary_time=True).value.real
        # floor at the kernel's natural O(1) scale: near its zeros the
        # 320-term oracle sum carries ~n*eps of roundoff of its own
        scale = max(abs(ref), 1e-3)
        worst = max(worst, abs(got - ref) / scale)
    assert worst < 1e-10
