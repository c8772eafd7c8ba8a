import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from lambshift.kernel import PhiKernel
from lambshift.oracles import (
    _dq_dt_grid,
    _inner_t_integral_grid,
    _inner_t_integral_spectral,
    _kernel_matrix_element_grid,
    bethe_log_by_cutoffs,
    kernel_via_spectral_series,
    neville_extrapolate,
    pv_term_by_principal_values,
    q_imag_time,
    shift_via_eps_real_axis,
)
from lambshift.quadrature import kronrod_nodes_weights
from lambshift.shifts import DipoleOptions, QuantumState, bethe_log, lamb_shift


def _mp_damped_inner(N, L, phi, nu, eps):
    """int_0^inf e^{(i nu - eps)T} dQ/dT dT at 20 digits, from one period.

    Q(T) = sin^2(T/2) f^{-2N} 2F1(a, b; 1; z) with f = cos(T/2) + i sin(T/2)
    cosh(phi), z = -(sin(T/2) sinh(phi))^2, a = L+1-N and b = -L-N; dQ/dT is
    2 pi-periodic, so the damped tail is a geometric series of periods.
    """
    with mp.workdps(20):
        a, b = L + 1 - N, -L - N
        ch, sh = mp.cosh(phi), mp.sinh(phi)
        s = 1j * mp.mpf(nu) - mp.mpf(eps)
        # the terminating 2F1 as its polynomial in z, highest power first
        coeffs = [mp.rf(a, j) * mp.rf(b, j) / mp.factorial(j) ** 2 for j in range(N - L)][::-1]

        def integrand(T):
            sn, cs = mp.sin(T / 2), mp.cos(T / 2)
            f = cs + 1j * sn * ch
            df = (-sn + 1j * cs * ch) / 2
            z = -((sn * sh) ** 2)
            dz = -mp.sin(T) * sh**2 / 2
            poly, dpoly_dz = mp.polyval(coeffs, z, derivative=True)
            dpoly = dpoly_dz * dz
            dq = f ** (-2 * N) * (
                mp.sin(T) / 2 * poly + sn**2 * (dpoly - 2 * N * df / f * poly)
            )
            return mp.exp(s * T) * dq

        # the integrand bursts at frequency ~ N cosh(phi) near T = 0 and 2 pi;
        # mp.quad raises the degree on each panel until it converges
        panels = mp.linspace(0, 2 * mp.pi, int(N * ch / 2) + 9)
        period = mp.quad(integrand, panels, method="gauss-legendre")
        return complex(period / (1 - mp.exp(2 * mp.pi * s)))


class TestSpectralSeries:
    def test_rejects_short_truncation(self):
        with pytest.raises(ValueError):
            kernel_via_spectral_series(3, 0, 1.0, 1.0, 12)

    def test_zero_phi_is_single_term(self):
        for n_max in (15, 60):
            got = kernel_via_spectral_series(4, 1, 1.3, 0.0, n_max).value
            want = math.sin(0.65) ** 2 * cmath.exp(-4j * 1.3)
            assert got == pytest.approx(want, rel=1e-14)

    def test_zero_time_vanishes(self):
        assert kernel_via_spectral_series(2, 0, 0.0, 0.9, 50).value == 0.0

    def test_truncation_monitor_decreases(self):
        prev = None
        for n_max in (20, 40, 80, 160):
            r = kernel_via_spectral_series(2, 0, 1.0, 0.5, n_max, imaginary_time=True)
            if prev is not None:
                assert r.last_term < prev
            prev = r.last_term

    def test_imaginary_time_matches_closed_form(self):
        got = kernel_via_spectral_series(2, 0, 1.0, 0.5, 200, imaginary_time=True).value
        want = q_imag_time(PhiKernel(2, 0, 0.5), 1.0)
        assert got.real == pytest.approx(want, rel=1e-10)
        assert abs(got.imag) < 1e-15


def _mp_spectral_tail(N, L, phi, nu, eps):
    """-sum_m m q_m/(m - nu') at 50 digits, nu' = nu + i eps, from mpmath's own Beta and 2F1.

    The residue terms cancel those of the Euler form, which leaves
    -nu' sum_k A_k B(p_k - nu', 2k+3) 2F1(2N, p_k - nu'; p_k - nu' + 2k+3; t^2),
    A_k = -C(N-L-1, k) C(N+L, k) t^{2k} w^{2N-2k}/4, p_k = N-1-k, w = sech^2(phi/2).
    """
    with mp.workdps(50):
        half = mp.mpf(phi) / 2
        w, t2 = mp.sech(half) ** 2, mp.tanh(half) ** 2
        nu = mp.mpc(nu, eps)
        total = 0
        for k in range(N - L):
            amp = -mp.binomial(N - L - 1, k) * mp.binomial(N + L, k) * t2**k * w ** (2 * N - 2 * k) / 4
            b = N - 1 - k - nu
            total += amp * mp.beta(b, 2 * k + 3) * mp.hyp2f1(2 * N, b, b + 2 * k + 3, t2)
        return complex(-nu * total)


def _matrix_element(N, L, T, phi):
    """M(T) and dM/dT = e^{-2iN chi} (dA/dT - 2iN A dchi/dT) from the grid's factors."""
    phase, amp, damp, dchi = _kernel_matrix_element_grid(N, L, T, phi)
    return phase * amp, phase * (damp - 2j * N * amp * dchi)


class TestEpsilonAxis:
    def test_rejects_bad_inputs(self, monkeypatch):
        # a NaN eps would reach the spectral nodes, whose log series cannot
        # end on NaN; the integral must not start, so reaching it fails
        from lambshift import oracles

        def no_integral(*args):
            raise AssertionError("the eps route started on a bad eps")

        monkeypatch.setattr(oracles, "_phi_breakpoints", no_integral)
        for eps in (0.0, -0.01, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                shift_via_eps_real_axis(QuantumState(N=1, L=0), eps)

    # At 2N = 24 the grid's terms cancel 5.1e3-fold in the sum, so roundoff
    # alone leaves ~1e-12 (1.7e-12 measured); every other case meets 1e-12.
    PERIOD_REL = {(12, 5): 5e-12}

    @pytest.mark.parametrize(
        "N, L, phi, eps", [(1, 0, 3.4, 0.0125), (2, 1, 1.0, 0.00625), (3, 0, 3.4, 0.05), (12, 5, 3.4, 0.025)]
    )
    def test_inner_grid_matches_mpmath_period(self, N, L, phi, eps):
        nodes, weights, _ = kronrod_nodes_weights()
        nu = N * math.exp(-phi)
        got = _inner_t_integral_grid(N, L, phi, nu, eps, np.asarray(nodes), np.asarray(weights))
        want = _mp_damped_inner(N, L, phi, nu, eps)
        assert abs(got - want) <= self.PERIOD_REL.get((N, L), 1e-12) * abs(want)

    def test_dm_dt_matches_central_differences(self):
        # the analytic dM/dT behind dQ/dT, including the Jacobi derivative
        # (n+2L+2)/2 P_{n-1}^{(1,2L+2)}, against the grid's own M
        T = np.linspace(0.05, 2.0 * math.pi - 0.05, 61)
        step = 1e-6
        for (N, L, phi) in ((1, 0, 0.8), (2, 0, 1.7), (4, 1, 0.3), (6, 2, 2.4)):
            _, dm = _matrix_element(N, L, T, phi)
            fd = (_matrix_element(N, L, T + step, phi)[0] - _matrix_element(N, L, T - step, phi)[0]) / (2 * step)
            assert np.max(np.abs(dm - fd)) <= 1e-8 * np.max(np.abs(dm)), (N, L, phi)

    @pytest.mark.parametrize("N, L", [(1, 0), (3, 1), (6, 2), (12, 5)])
    def test_matrix_element_block_equals_per_phi_calls(self, N, L):
        # a row of times against a column of phi, the blocks of the T grid,
        # gives each phi's own call
        T = np.linspace(0.0, math.pi, 97)[None, :]
        phis = np.array([0.0, 0.4, 1.3, 2.77, 3.5])
        block = _matrix_element(N, L, T, phis[:, None])
        for i, phi in enumerate(phis):
            for got, want in zip(block, _matrix_element(N, L, T[0], float(phi))):
                assert got.shape == (phis.size, T.size)
                assert np.max(np.abs(got[i] - want)) <= 1e-14 * np.max(np.abs(want)), phi

    def test_phase_is_the_angle_of_f(self):
        # (conj(f)^2/(1-z))^N is e^{-2iN arg f} without an angle taken
        T = np.linspace(0.0, 2.0 * math.pi, 81)
        for N, phi in ((1, 0.3), (4, 2.0), (150, 3.5), (200, 3.5)):
            f = np.cos(T / 2) + 1j * np.sin(T / 2) * math.cosh(phi)
            phase = _kernel_matrix_element_grid(N, 0, T, phi)[0]
            assert np.max(np.abs(phase - np.exp(-2j * N * np.angle(f)))) <= 2e-15 * N, (N, phi)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("N, L", [(200, 0), (150, 75)])
    def test_grid_finite_at_high_n(self, N, L):
        # the phase is normalised before its power is taken: conj(f)^{2N}
        # alone would overflow at phi = 3.5 for N ~ 125 and beyond
        nodes, weights, _ = (np.asarray(x) for x in kronrod_nodes_weights())
        phi = 3.5
        phase, amp, damp, dchi = _kernel_matrix_element_grid(N, L, np.linspace(0.0, math.pi, 4001), phi)
        assert all(np.all(np.isfinite(x)) for x in (phase, amp, damp, dchi))
        value = _inner_t_integral_grid(N, L, phi, N * math.exp(-phi), 0.0125, nodes, weights)
        assert cmath.isfinite(value)

    @pytest.mark.parametrize(
        "N, L, phi", [(1, 0, 0.3), (2, 1, 1.0), (3, 0, 2.2), (4, 2, 3.5), (6, 0, 2.9), (5, 4, 0.05)]
    )
    def test_dq_dt_reflection(self, N, L, phi):
        # dQ/dT(2 pi - T) = -conj dQ/dT(T), which folds the period onto [0, pi]
        T = np.linspace(0.0, math.pi, 257)
        dq = _dq_dt_grid(N, L, T, phi)
        mirror = _dq_dt_grid(N, L, 2.0 * math.pi - T, phi)
        assert np.max(np.abs(mirror + np.conj(dq))) <= 1e-12 * np.max(np.abs(dq))

    @pytest.mark.parametrize("N, L, eps", [(1, 0, 0.0125), (3, 1, 0.05)])
    def test_batched_grid_equals_scalar_calls(self, N, L, eps):
        # one call over a GK15 panel's 15 phi (different T-grid sizes) gives
        # each phi's scalar value
        nodes, weights, _ = (np.asarray(x) for x in kronrod_nodes_weights())
        phis = 1.75 + 1.75 * nodes
        nus = N * np.exp(-phis)
        batch = _inner_t_integral_grid(N, L, phis, nus, eps, nodes, weights)
        assert batch.shape == (15,)
        for phi, nu, got in zip(phis, nus, batch):
            one = _inner_t_integral_grid(N, L, float(phi), float(nu), eps, nodes, weights)
            assert isinstance(one, complex)
            assert abs(got - one) <= 1e-14 * abs(one)

    @pytest.mark.parametrize(
        "N, L, phi, eps",
        [(3, 0, 3.4, 0.05), (3, 0, 3.5, 0.0125), (2, 1, 3.5, 0.05), (4, 1, 3.5, 0.0125)],
    )
    def test_inner_spectral_matches_grid(self, N, L, phi, eps):
        # the two inner routes meet at PHI_OSCILLATORY_MAX = 3.5: the T grid
        # over one folded period against the kernel's exponential series in
        # closed form (residue terms plus the Euler form at nu + i eps)
        nodes, weights, _ = kronrod_nodes_weights()
        nu = N * math.exp(-phi)
        grid = _inner_t_integral_grid(N, L, phi, nu, eps, np.asarray(nodes), np.asarray(weights))
        spectral = _inner_t_integral_spectral(N, L, phi, nu, eps)
        assert abs(spectral - grid) <= 1e-12 * abs(grid)

    @pytest.mark.parametrize("N, L", [(1, 0), (2, 1), (3, 2), (4, 1), (6, 2), (20, 10)])
    def test_inner_spectral_against_mpmath_euler_form(self, N, L):
        # up to phi = 12.69, 2p's phi_max + 3, where t^2 = 1 - 1.2e-5
        for phi in (3.5, 6.0, 9.0, 12.69):
            for eps in (0.05, 0.0125, 0.003):
                nu = N * math.exp(-phi)
                got = _inner_t_integral_spectral(N, L, phi, nu, eps)
                want = _mp_spectral_tail(N, L, phi, nu, eps)
                assert abs(got - want) <= 1e-13 * abs(want), (phi, eps)

    def test_inner_spectral_forms_no_weight_row(self, monkeypatch):
        # the spectral route reads only the Euler pieces: a phi node of the
        # eps route pays for no |D_{N,j}|^2 row and no residues
        from lambshift import kernel

        def no_row(*args):
            raise AssertionError("the spectral route formed a weight row")

        monkeypatch.setattr(kernel, "_row_weights", no_row)
        monkeypatch.setattr(kernel, "_row_table", no_row)
        for N, L, phi in ((1, 0, 3.5), (4, 1, 6.0), (20, 10, 9.0)):
            value = _inner_t_integral_spectral(N, L, phi, N * math.exp(-phi), 0.0125)
            assert cmath.isfinite(value)

    def test_single_eps_near_primary(self, eps_shift):
        # one finite-damping point lands within O(eps) of the converged shift
        value = eps_shift(1, 0, 0.05)
        primary = lamb_shift(QuantumState(N=1, L=0)).lamb_shift_MHz
        assert value.real == pytest.approx(primary, rel=0.02)
        # ground state: no decay channel, imaginary part is O(eps) only
        assert abs(value.imag) < 0.1 * abs(value.real)

    def test_imag_part_tracks_decay_rate(self, eps_shift):
        # at finite eps the imaginary part approximates -Gamma/(4 pi) in MHz
        value = eps_shift(2, 1, 0.05)
        result = lamb_shift(QuantumState(N=2, L=1))
        expected = -result.total_rate / (4.0 * math.pi)
        assert value.imag == pytest.approx(expected, rel=0.1)


# shift_via_eps_real_axis (MHz, real and imaginary part) before the inner
# integrals were folded onto half a period and summed in real arithmetic;
# the route may move by roundoff only
EPS_ROUTE_PINS = {
    (1, 0, 0.05): (7870.4461761353614, 368.54505190704208),
    (1, 0, 0.025): (7908.0684116642633, 195.43603138698774),
    (1, 0, 0.0125): (7923.291297877633, 102.81406335924312),
    (2, 0, 0.05): (1004.2797270932034, 45.606603954373533),
    (2, 0, 0.025): (1010.3583712115854, 23.488416099309589),
    (2, 0, 0.0125): (1013.0014374641721, 11.986233314829375),
    (2, 1, 0.05): (8.2076055412215698, -45.822865736766587),
    (2, 1, 0.025): (6.2292482881373932, -47.596524916846548),
    (2, 1, 0.0125): (5.1815647680836028, -48.601346592099453),
}


@pytest.mark.parametrize("N, L, eps", sorted(EPS_ROUTE_PINS))
def test_eps_route_pinned(N, L, eps, eps_shift):
    got = eps_shift(N, L, eps)
    want_re, want_im = EPS_ROUTE_PINS[(N, L, eps)]
    assert abs(got.real - want_re) <= 1e-12 * abs(want_re)
    assert abs(got.imag - want_im) <= 1e-12 * abs(want_im)


PV_ORACLE_SAMPLE = [
    *((N, L, 1, None) for N, L in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1))),
    (5, 0, 1, None), (8, 3, 1, None), (10, 9, 1, None), (20, 10, 1, None),
    (7, 3, 92, None), (12, 5, 92, None),
    (4, 1, 1, 1e3), (7, 2, 1, 1e3),
]


@pytest.mark.parametrize("N, L, Z, cutoff_x", PV_ORACLE_SAMPLE)
def test_shift_matches_principal_value_oracle(N, L, Z, cutoff_x):
    """The pole subtraction of lamb_shift against one folded principal value per channel.

    The sample is stratified: all seven Table-1 states; beyond the tables
    one s state, a mid-L state, the circular state of N = 10 and the mid-L
    state of N = 20 at Z = 1 (few and many channels, both sides of the
    series/closed switch); two Z = 92 states, where the weight saturates;
    and two dipole cutoff shifts, the finite-domain route of bethe_log.
    The (20,10) entry is the loosest: with the folded principal values the
    shift sits 5.5e-10 from a rel_tol 1e-12, abs_tol 1e-17 run of the
    subtraction, which the default run meets to 7e-13.
    """
    state = QuantumState(N=N, L=L, Z=Z)
    options = DipoleOptions(enabled=cutoff_x is not None, cutoff_x=cutoff_x)
    result = lamb_shift(state, options)
    assert result.converged
    pv = pv_term_by_principal_values(state, options)
    assert abs(result.lamb_shift_MHz - (result.tau_phi_term_MHz + pv)) <= 1e-9 * abs(result.lamb_shift_MHz)


class TestNeville:
    def test_exact_for_polynomial(self):
        xs = [0.05, 0.025, 0.0125, 0.00625]
        ys = [3.0 + 2.0 * x - 7.0 * x**2 + x**3 for x in xs]
        value, _ = neville_extrapolate(xs, ys)
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_residual_vanishes_when_degree_is_low(self):
        # a quadratic fitted by a cubic: the last elimination adds nothing
        xs = [0.05, 0.025, 0.0125, 0.00625]
        ys = [3.0 + 2.0 * x - 7.0 * x**2 for x in xs]
        value, residual = neville_extrapolate(xs, ys)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert residual < 1e-11

    def test_rejects_mismatched_input(self):
        with pytest.raises(ValueError):
            neville_extrapolate([1.0], [2.0])


@pytest.mark.parametrize(
    "N, L", [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (4, 3)]
)
def test_bethe_log_matches_cutoff_route(N, L):
    """The one convergent integral of bethe_log against Neville extrapolation
    of standalone dipole shifts at cutoffs 1e7 .. 1e9, where the cutoff
    route's s-state bias, about (Z a0)^2/x, is below 1e-13.
    """
    result = bethe_log(N, L)
    assert result.converged
    gamma, _ = bethe_log_by_cutoffs(N, L, (1e7, 3e7, 1e8, 3e8, 1e9))
    assert abs(result.gamma - gamma) <= 1e-12
