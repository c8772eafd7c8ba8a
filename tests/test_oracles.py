import cmath
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from lambshift.kernel import PhiKernel, _euler_block
from lambshift.oracles import (
    EPS_MAX,
    PHI_OSCILLATORY_MAX,
    _BLOCK_ELEMENTS,
    _inner_t_integral_grid,
    _inner_t_integral_spectral,
    _kernel_matrix_element_grid,
    _t_moments,
    _t_panels,
    bethe_log_by_cutoffs,
    circular_rate_closed_form,
    kernel_q,
    kernel_via_spectral_series,
    neville_extrapolate,
    pv_term_by_principal_values,
    q_imag_time,
    shift_via_eps_real_axis,
)
from lambshift.quadrature import kronrod_nodes_weights
from lambshift.shifts import DipoleOptions, QuantumState, _photon_weight, bethe_log, lamb_shift


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


def _q_grid(N, L, T, phi):
    """Q(T) = sin^2(T/2) e^{-2iN chi} A from the grid's factors, T and phi broadcast."""
    phase, amp = _kernel_matrix_element_grid(N, L, T, phi)
    return np.sin(T / 2.0) ** 2 * phase * amp


def _route_grid_nodes(N, L, eps):
    """The phi nodes of shift_via_eps_real_axis's T grid for (N, L) at eps."""
    from lambshift import oracles

    edges = oracles._phi_breakpoints(N, L, eps, 9.0 + math.log(N))
    centres, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes = np.asarray(kronrod_nodes_weights()[0])
    phis = (centres[:, None] + halves[:, None] * nodes).ravel()
    return phis[phis <= PHI_OSCILLATORY_MAX]


def _grid(N, L, phis, nus, eps):
    """The T grid's damped inner integral at the nodes (phis, nus): their moments, folded."""
    return _inner_t_integral_grid(_t_moments(N, L, phis, nus), nus, eps)


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
        # above EPS_MAX the T-moments of the grid no longer hold e^{+-eps T}
        for eps in (math.nextafter(EPS_MAX, math.inf), 0.3, 1.0):
            with pytest.raises(ValueError, match=f"at most EPS_MAX = {EPS_MAX}"):
                shift_via_eps_real_axis(QuantumState(N=1, L=0), eps)

    @pytest.mark.parametrize(
        "N, L, phi, eps",
        [(1, 0, 3.4, 0.0125), (2, 1, 1.0, 0.00625), (3, 0, 3.4, 0.05), (4, 1, 3.4, 0.0125), (12, 5, 3.4, 0.025)],
    )
    def test_inner_grid_matches_mpmath_period(self, N, L, phi, eps):
        # the grid integrates Q by parts; the reference integrates dQ/dT
        nu = N * math.exp(-phi)
        got = _grid(N, L, np.array([phi]), np.array([nu]), eps)[0]
        want = _mp_damped_inner(N, L, phi, nu, eps)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("N, L", [(1, 0), (2, 1), (12, 5)])
    @pytest.mark.parametrize("eps", [0.00625, 0.0125, 0.05, EPS_MAX])
    def test_moments_equal_direct_weighted_sums(self, N, L, eps):
        # sum_m (-+eps)^m mu_m against the row sums of -s e^{i nu T} Q with
        # the weights h W e^{-+eps T} themselves, over a GK15 panel's 15 phi
        # (several T-grid sizes) and the oscillatory end phi = 3.5
        nodes, weights, _ = (np.asarray(x) for x in kronrod_nodes_weights())
        phis = np.append(1.75 + 1.75 * nodes, PHI_OSCILLATORY_MAX)
        nus = N * np.exp(-phis)
        got = _grid(N, L, phis, nus, eps)
        for phi, nu, value, count in zip(phis, nus, got, _t_panels(N, phis).tolist()):
            half = 0.5 * math.pi / count
            t = ((2 * np.arange(count) + 1)[:, None] * half + half * nodes).ravel()
            w = np.tile(half * weights, count)
            v = np.exp(1j * nu * t) * _q_grid(N, L, t, phi)
            s = 1j * nu - eps
            wrap = cmath.exp(2.0 * math.pi * s)
            want = -s * (v @ (w * np.exp(-eps * t)) + wrap * np.conj(v @ (w * np.exp(eps * t)))) / (1.0 - wrap)
            assert abs(value - want) <= 1e-12 * abs(want), phi

    def test_eps_sweep_evaluates_each_grid_node_once(self, monkeypatch):
        # the 1s nodes do not move with eps: the three verify calls form
        # Q at each phi node of the T grid once and the weight column once,
        # and each call sums its phi > 3.5 nodes in one Euler block
        from lambshift import oracles

        seen, blocks, weighed = [], [], []

        def matrix_element(N, L, T, phi):
            seen.extend(np.ravel(phi).tolist())
            return _kernel_matrix_element_grid(N, L, T, phi)

        def euler_block(N, L, phis, nus):
            blocks.append(len(phis))
            return _euler_block(N, L, phis, nus)

        def photon_weight(*args):
            weight = _photon_weight(*args)

            def counted(phi):
                weighed.append(phi)
                return weight(phi)

            return counted

        monkeypatch.setattr(oracles, "_kernel_matrix_element_grid", matrix_element)
        monkeypatch.setattr(oracles, "_euler_block", euler_block)
        monkeypatch.setattr(oracles, "_photon_weight", photon_weight)
        oracles._grid_table.cache_clear()
        for eps in (0.05, 0.025, 0.0125):
            shift_via_eps_real_axis(QuantumState(N=1, L=0), eps)
        assert len(seen) == len(set(seen)) == 165  # 11 phi panels up to 3.5
        assert max(seen) <= PHI_OSCILLATORY_MAX
        assert blocks == [90, 90, 90]  # 6 phi panels from 3.5 to 9
        assert len(weighed) == len(set(weighed)) == 255  # one column for all three calls

    @pytest.mark.parametrize("N, L", [(1, 0), (2, 0), (2, 1), (12, 5)])
    def test_panel_counts_climb_the_ladder(self, N, L, monkeypatch):
        # each node's count is 4 * 2^k and at least its need of panels at
        # most min(0.8, 2/(N cosh phi)) wide; the nodes of one count share
        # blocks of at most 2925 (phi x T) elements, or are blocks of one
        from lambshift import oracles

        phis = _route_grid_nodes(N, L, 0.05)
        counts = _t_panels(N, phis)
        for phi, count in zip(phis.tolist(), counts.tolist()):
            need = math.ceil(math.pi / min(0.8, 2.0 / (N * math.cosh(phi))))
            k = round(math.log2(count / 4))
            assert count == 4 * 2**k and count >= need and (k == 0 or count < 2 * need), phi
        shapes = []

        def matrix_element(N, L, T, phi):
            shapes.append((np.size(phi), T.size))
            return _kernel_matrix_element_grid(N, L, T, phi)

        monkeypatch.setattr(oracles, "_kernel_matrix_element_grid", matrix_element)
        _t_moments(N, L, phis, N * np.exp(-phis))
        assert _BLOCK_ELEMENTS == 2925
        assert sum(rows for rows, _ in shapes) == phis.size
        assert all(rows * times <= 2925 or rows == 1 for rows, times in shapes)
        by_count = {times: rows for rows, times in shapes}
        assert sorted(by_count) == [15 * c for c in sorted(set(counts.tolist()))]
        if N == 1:  # 165 nodes: 96, 33, 22 and 14 at 4, 8, 16 and 32 panels, in 2 + 2 + 2 + 3 blocks
            assert Counter(counts.tolist()) == {4: 96, 8: 33, 16: 22, 32: 14} and len(shapes) == 9

    @pytest.mark.parametrize("N, L", [(1, 0), (2, 1), (4, 1)])
    def test_moments_hold_on_a_finer_grid(self, N, L, monkeypatch):
        # every node's T-moments against the same node's on a grid with four
        # times the panels, to 2e-15 of the node's largest moment
        from lambshift import oracles

        phis = _route_grid_nodes(N, L, 0.05)
        nus = N * np.exp(-phis)
        got = _t_moments(N, L, phis, nus)
        monkeypatch.setattr(oracles, "_t_panels", lambda N, phis: 4 * _t_panels(N, phis))
        fine = _t_moments(N, L, phis, nus)
        err = np.max(np.abs(got - fine), axis=1) / np.max(np.abs(fine), axis=1)
        assert err.max() <= 2e-15, phis[err.argmax()]

    def test_eps_range_lies_on_the_digamma_strip(self):
        # the spectral nodes' digamma heads sit at 1 - nu + floor(nu) - i eps,
        # so every eps the route accepts must lie on specfun.digamma's strip
        from lambshift.specfun import STRIP_IM_MAX

        assert EPS_MAX <= STRIP_IM_MAX
        for N, L in ((1, 0), (4, 1), (50, 49)):
            phis = np.array([3.6, 6.0, 12.69])
            value = _inner_t_integral_spectral(N, L, phis, N * np.exp(-phis), EPS_MAX)
            assert np.all(np.isfinite(value))

    def test_moment_cache_keeps_one_table(self):
        # the grids of N >= 2 move with eps and never repeat; only the 1s
        # sweep reads a table again, each eps right after the last
        from lambshift import oracles

        oracles._grid_table.cache_clear()
        for N, L in ((1, 0), (2, 0), (2, 1)):
            for eps in (0.05, 0.025, 0.0125):
                shift_via_eps_real_axis(QuantumState(N=N, L=L), eps)
        info = oracles._grid_table.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (2, 7, 1, 1)

    @pytest.mark.parametrize("N, L", [(1, 0), (3, 1), (6, 2), (12, 5)])
    def test_matrix_element_block_equals_per_phi_calls(self, N, L):
        # a row of times against a column of phi, the blocks of the T grid,
        # gives each phi's own call
        T = np.linspace(0.0, math.pi, 97)[None, :]
        phis = np.array([0.0, 0.4, 1.3, 2.77, 3.5])
        block = _kernel_matrix_element_grid(N, L, T, phis[:, None])
        for i, phi in enumerate(phis):
            for got, want in zip(block, _kernel_matrix_element_grid(N, L, T[0], float(phi))):
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
        phi = 3.5
        phase, amp = _kernel_matrix_element_grid(N, L, np.linspace(0.0, math.pi, 4001), phi)
        assert np.all(np.isfinite(phase)) and np.all(np.isfinite(amp))
        value = _grid(N, L, np.array([phi]), np.array([N * math.exp(-phi)]), 0.0125)
        assert np.all(np.isfinite(value))

    @pytest.mark.parametrize(
        "N, L, phi", [(1, 0, 0.3), (2, 1, 1.0), (3, 0, 2.2), (4, 2, 3.5), (6, 0, 2.9), (5, 4, 0.05)]
    )
    def test_dq_dt_reflection(self, N, L, phi):
        # Q(2 pi - T) = conj Q(T), so dQ/dT(2 pi - T) = -conj dQ/dT(T): it
        # folds the period onto [0, pi]; and Q(0) = Q(2 pi) = 0, the boundary
        # terms that integrating the period by parts drops
        T = np.linspace(0.0, math.pi, 257)
        q = _q_grid(N, L, T, phi)
        mirror = _q_grid(N, L, 2.0 * math.pi - T, phi)
        assert np.max(np.abs(mirror - np.conj(q))) <= 1e-12 * np.max(np.abs(q))
        assert kernel_q(N, L, 0.0, phi) == 0.0
        assert abs(kernel_q(N, L, 2.0 * math.pi, phi)) <= 2e-32  # sin^2(pi) = 1.5e-32 in double, |M| <= 1

    @pytest.mark.parametrize("N, L, eps", [(1, 0, 0.0125), (3, 1, 0.05)])
    def test_batched_grid_equals_scalar_calls(self, N, L, eps):
        # one call over a GK15 panel's 15 phi (different T-grid sizes) gives
        # each phi's value as a call of its own
        nodes = np.asarray(kronrod_nodes_weights()[0])
        phis = 1.75 + 1.75 * nodes
        nus = N * np.exp(-phis)
        batch = _grid(N, L, phis, nus, eps)
        assert batch.shape == (15,)
        for i, got in enumerate(batch):
            one = _grid(N, L, phis[i : i + 1], nus[i : i + 1], eps)
            assert one.shape == (1,)
            assert abs(got - one[0]) <= 1e-14 * abs(one[0])

    @pytest.mark.parametrize(
        "N, L, phi, eps",
        [(3, 0, 3.4, 0.05), (3, 0, 3.5, 0.0125), (2, 1, 3.5, 0.05), (4, 1, 3.5, 0.0125)],
    )
    def test_inner_spectral_matches_grid(self, N, L, phi, eps):
        # the two inner routes meet at PHI_OSCILLATORY_MAX = 3.5: the T grid
        # over one folded period against the kernel's exponential series in
        # closed form (residue terms plus the Euler form at nu + i eps)
        phis, nus = np.array([phi]), np.array([N * math.exp(-phi)])
        grid = _grid(N, L, phis, nus, eps)[0]
        spectral = _inner_t_integral_spectral(N, L, phis, nus, eps)[0]
        assert abs(spectral - grid) <= 1e-12 * abs(grid)

    @pytest.mark.parametrize("N, L", [(1, 0), (2, 1), (3, 2), (4, 1), (6, 2), (20, 10)])
    def test_inner_spectral_against_mpmath_euler_form(self, N, L):
        # up to phi = 12.69, 2p's phi_max + 3, where t^2 = 1 - 1.2e-5
        for phi in (3.5, 6.0, 9.0, 12.69):
            for eps in (0.05, 0.0125, 0.003):
                nu = N * math.exp(-phi)
                got = _inner_t_integral_spectral(N, L, np.array([phi]), np.array([nu]), eps)[0]
                want = _mp_spectral_tail(N, L, phi, nu, eps)
                assert abs(got - want) <= 1e-13 * abs(want), (phi, eps)

    def test_inner_spectral_forms_no_weight_row(self, monkeypatch):
        # the spectral route reads only the Euler pieces: a phi node of the
        # eps route pays for no |D_{N,j}|^2 row and no residues
        from lambshift import kernel

        def no_row(*args):
            raise AssertionError("the spectral route formed a weight row")

        monkeypatch.setattr(kernel, "_block_rows", no_row)
        monkeypatch.setattr(kernel, "_row_table", no_row)
        for N, L, phi in ((1, 0, 3.5), (4, 1, 6.0), (20, 10, 9.0)):
            value = _inner_t_integral_spectral(N, L, np.array([phi]), np.array([N * math.exp(-phi)]), 0.0125)
            assert np.all(np.isfinite(value))

    @pytest.mark.parametrize("N", [1, 4, 20, 50])
    @pytest.mark.parametrize("eps", [0.05, 0.0125])
    def test_complex_nu_block_equals_its_nodes_one_by_one(self, N, eps):
        # one block of nodes at nu + i eps gives each node's value bit for
        # bit; at N = 50 and phi = 3.6, int(nu) = 1, so that node's digammas
        # recur downwards as well as upwards
        phis = np.array([3.6, 4.1, 5.0, 6.5, 8.0, 10.0, 12.69])
        nus = N * np.exp(-phis)
        if N == 50:
            assert int(nus[0]) == 1 and int(nus[1]) == 0
        for L in sorted({0, N // 2, N - 1}):
            block = _inner_t_integral_spectral(N, L, phis, nus, eps)
            alone = [
                _inner_t_integral_spectral(N, L, phis[i : i + 1], nus[i : i + 1], eps)[0] for i in range(phis.size)
            ]
            assert block.tolist() == alone, L

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
    and two dipole cutoff shifts, the route of oracles.bethe_log_by_cutoffs.
    The loosest entries are (12,5) at Z = 92 and (20,10): with the folded
    principal values the shift sits 1.6e-12 and 1.3e-12 from a rel_tol
    1e-12 run of the subtraction, which their default runs meet to 2.0e-14
    and 2.1e-15.
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


@pytest.mark.parametrize(
    "route",
    [
        # each returned a number at Z = 200 (-1.2e10, 3.0e10 - 3.0e10j and 1.0e12)
        lambda state: pv_term_by_principal_values(state, DipoleOptions()),
        lambda state: shift_via_eps_real_axis(state, 0.05),
        lambda state: circular_rate_closed_form(state.N, state.Z),
        lambda state: bethe_log_by_cutoffs(state.N, state.L, (1.0e7,), Z=state.Z),
    ],
    ids=["pv", "eps", "circular", "cutoffs"],
)
def test_z_alpha0_of_one_or_more_raises(route):
    with pytest.raises(ValueError, match="Z alpha0"):
        route(QuantumState(N=2, L=1, Z=200))
