import cmath
import json
import math
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from lambshift import kernel as K
from lambshift.kernel import (
    PhiKernel,
    _euler_rows,
    _jacobi_point,
    _q,
    _row_table,
    _series_term_ratios,
    _tail_table,
    _tail_weights,
    residue_coeffs,
)
from lambshift import specfun
from lambshift.specfun import _JACOBI_STEPS, _jacobi_from_steps, _jacobi_steps
from lambshift.oracles import (
    _closed_remainder_dtau,
    kernel_q,
    kernel_via_spectral_series,
    remainder,
    remainder_dtau,
    tau_integral_by_quadrature,
)
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


def _on_series(phi):
    return math.tanh(phi / 2.0) ** 2 <= K.SERIES_T2_MAX


def _residues(N, L, phi):
    """R_0 .. R_{N-1} of one node (zero below L), as fill_tau_integrals forms them from its weight row."""
    row = K._block_rows(N, L, [phi])[1][0]
    return _q(row[:-2], row[1:-1], row[2:]).tolist()


def _weights(N, L, phi, j1):
    """|D_{N,j}|^2 of one node from j = -1 to j1 or past: _block_rows, then _tail_weights in the series' chunks."""
    points, rows = K._block_rows(N, L, [phi])
    w, t2, gain = points[0]
    weights, j0, chunk = [rows[0]], N, 96  # rows[0] holds j = -1 .. N
    while j0 < j1:
        tail, gain = _tail_weights(N, L, (w, t2, None), j0 + 1, j0 + chunk + 1, gain)
        weights.append(tail)
        j0, chunk = j0 + chunk, min(2 * chunk, 4096)
    return np.concatenate(weights)


def _stream(N, L, phi, j1):
    """q_N .. q_{j1-1} of one node, from the weights of _weights."""
    weights = _weights(N, L, phi, j1)
    return _q(weights[:-2], weights[1:-1], weights[2:])[N:j1]


class TestDilationWeights:
    @pytest.mark.parametrize("N, L", SAMPLED_STATES)
    def test_weights_match_reference_route_and_mpmath(self, N, L):
        # both sides of j = N, at a sample of the poles ln(N/n) and off them
        poles = [math.log(N / n) for n in range(1, N)]
        label = RepLabel(L + 1)
        for phi in poles[:: max(1, len(poles) // 3)] + [0.3, 1.7, 4.0, 12.0]:
            point = _jacobi_point(L, phi)
            tail = _tail_weights(N, L, point, N + 1, N + 4, point[2])[0].tolist()
            got = K._block_rows(N, L, [phi])[1][0, 1:].tolist() + tail  # j = 0 .. N+3
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

    @pytest.mark.parametrize("N", [*range(1, 21), 50, 86])
    def test_weights_obey_the_su11_sum_rules(self, N):
        # the hot-path weights of any N, no mpmath: D_{N,j}(phi) is a column
        # of a unitary representation of the boost exp(phi K1) of su(1,1)
        # with Casimir L(L+1), so its moments in j = K0 are those of K0
        # boosted: sum |D|^2 = 1, sum j |D|^2 = N cosh phi and
        # sum j^2 |D|^2 = N^2 cosh^2 phi + (N^2 - L(L+1)) sinh^2 phi/2; past
        # the mean the terms fall off like t^{2j} <= e^{-j/cosh^2(phi/2)}, so
        # the 40 cosh phi terms beyond 6N cosh phi shrink them by e^-40 or more
        for L in range(N) if N <= 20 else (0, N // 2, N - 1):
            for phi in (0.5, 1.5, 2.5, 3.5):
                c, s = math.cosh(phi), math.sinh(phi)
                j1 = math.ceil((6 * N + 40) * c)
                d = _weights(N, L, phi, j1)[: j1 + 2]
                j = np.arange(-1.0, j1 + 1)
                got = [math.fsum(d.tolist()), math.fsum((j * d).tolist()), math.fsum((j * j * d).tolist())]
                want = [1.0, N * c, N * N * c * c + (N * N - L * (L + 1)) * s * s / 2]
                for moment, (g, w) in enumerate(zip(got, want)):
                    assert abs(g - w) <= 1e-12 * w, (L, phi, moment)


def test_hot_path_never_calls_reference_route(monkeypatch):
    # the matrix-element route, its Gauss series and the closed u-form in
    # tau are for cross-checks only; the kernel does not even define the
    # u-form's functions
    import lambshift.kernel as K
    import lambshift.oracles as oracles
    import lambshift.su11 as su11
    from lambshift.shifts import DipoleOptions, QuantumState, _channels, decay_rates, lamb_shift

    def reference_route(*args, **kwargs):
        raise AssertionError("reference route called on the hot path")

    monkeypatch.setattr(K, "rep_matrix_element", reference_route)
    monkeypatch.setattr(su11, "rep_matrix_element", reference_route)
    monkeypatch.setattr(su11, "hyp2f1_terminating", reference_route)
    u_form = ("_closed_terms", "q_imag_time", "_closed_remainder_dtau", "remainder", "remainder_dtau")
    for name in u_form:
        monkeypatch.setattr(oracles, name, reference_route)
    for name in (*u_form, "_terms", "_term_residues", "_closed_remainder", "dilation_weights"):
        assert not hasattr(PhiKernel, name) and not hasattr(K, name), name
    assert not hasattr(PhiKernel(3, 0, 1.0), "_ln_sh2")
    assert math.fsum(residue_coeffs(6, 2, 0.7, n) for n in range(2, 6)) != 0.0
    state = QuantumState(N=4, L=1)
    _channels.cache_clear()  # so that the rates compute their residues here
    assert decay_rates(state) and decay_rates(state, DipoleOptions(enabled=True))
    series, closed = PhiKernel(3, 0, 1.0), PhiKernel(8, 0, 4.0)
    assert _on_series(series.phi) and not _on_series(closed.phi)
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
        with pytest.raises(ValueError, match="phi must be nonnegative, got -0.1"):
            PhiKernel(1, 0, -0.1)


class TestResidues:
    def test_circular_state_closed_form(self):
        # -1/(4 cosh^{4N}(phi/2)) at cosh(phi) = 5/4
        got = residue_coeffs(2, 1, math.log(2.0), 1)
        assert got == pytest.approx(-1024.0 / 6561.0, rel=1e-13, abs=0)

    def test_circular_family_any_phi(self):
        for N in (2, 3, 5):
            phi = 0.8
            want = -1.0 / (4.0 * math.cosh(phi / 2.0) ** (4 * N))
            assert residue_coeffs(N, N - 1, phi, N - 1) == pytest.approx(want, rel=1e-12, abs=0)

    def test_identity_dilation_single_entry(self):
        assert residue_coeffs(4, 1, 0.0, 3) == -0.25
        assert residue_coeffs(4, 1, 0.0, 1) == 0.0 and residue_coeffs(4, 1, 0.0, 2) == 0.0

    def test_ground_tower_single_entry(self):
        phi = 1.3
        want = -0.25 / math.cosh(phi / 2.0) ** 4
        assert residue_coeffs(1, 0, phi, 0) == pytest.approx(want, rel=1e-13, abs=0)
        with pytest.raises(ValueError):
            residue_coeffs(1, 0, phi, 1)

    @pytest.mark.parametrize("N, L", SAMPLED_STATES)
    def test_equals_phi_kernel_residues(self, N, L):
        # one table behind both: the scalar residue and the node's row, at
        # the pole of channel max(1, (N+L)//2) (phi = 0 for N = 1) and on
        # both sides of the series/closed switch
        for phi in (math.log(N / max(1, (N + L) // 2)), 0.3, 2.85, 2.95, 4.0):
            table = _residues(N, L, phi)
            for n in range(L, N):
                assert residue_coeffs(N, L, phi, n) == table[n], (phi, n)

    def test_decay_rate_domain_bit_for_bit(self):
        # every decay channel (N, L) -> n with N <= 20 at its pole ln(N/n):
        # the scalar residue against the residues of the phi node's weight row
        channels = 0
        for N in range(2, 21):
            for L in range(N):
                for n in range(max(1, L), N):
                    phi = math.log(N / n)
                    got = residue_coeffs(N, L, phi, n)
                    assert type(got) is float
                    assert got == _residues(N, L, phi)[n], (N, L, n)
                    channels += 1
        assert channels == 1520

    @pytest.mark.parametrize("N, L", [(1, 0), (3, 1), (6, 5), (12, 6)])
    def test_rejects_index_outside_channels(self, N, L):
        # an integral float is no index or quantum number: it must fail as a
        # ValueError, not deep in the kernel; numpy integers are integers
        for n in (L - 1, N, float(L)):
            with pytest.raises(ValueError, match="residue index"):
                residue_coeffs(N, L, 0.7, n)
        for args in ((float(N), L), (N, float(L))):
            with pytest.raises(ValueError, match="invalid quantum numbers"):
                residue_coeffs(*args, 0.7, L)
        want = residue_coeffs(N, L, 0.7, L)
        assert residue_coeffs(np.int64(N), np.int64(L), 0.7, np.int64(L)) == want

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
        assert not _on_series(ker.phi)
        want = _mp_coeffs(N, L, phi, 0, N)
        scale = max(abs(x) for x in want)
        residues = _residues(N, L, phi)
        for n in range(N):
            assert abs(residues[n] - want[n]) <= 1e-12 * scale

    def test_completeness_with_spectral_tail(self):
        # sum of all exponential coefficients vanishes (kernel is 0 at T=0);
        # the tail from the reference route, one scalar matrix element per
        # j, independent of the Jacobi form of _row_table and _tail_weights
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
    def test_negative_tau_raises(self):
        # on the series branch (phi = 1) and the closed branch (phi = 4)
        for ker in (PhiKernel(3, 0, 1.0), PhiKernel(8, 0, 4.0)):
            for route in (remainder, remainder_dtau):
                with pytest.raises(ValueError, match="tau must be nonnegative, got -0.5"):
                    route(ker, -0.5)

    def test_zero_phi_closed_form(self):
        for (N, L) in ((1, 0), (3, 1), (5, 2)):
            for tau in (0.2, 1.0, 4.0):
                got = remainder(PhiKernel(N, L, 0.0), tau)
                want = 0.5 * math.exp(-N * tau) - 0.25 * math.exp(-(N + 1) * tau)
                assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_zero_tau_is_minus_residue_sum(self):
        for (N, L, phi) in ((2, 0, 0.8), (4, 1, 1.9), (3, 2, 3.4)):
            got = remainder(PhiKernel(N, L, phi), 0.0)
            want = -math.fsum(residue_coeffs(N, L, phi, n) for n in range(L, N))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-15)

    def test_matches_spectral_tail(self):
        N, L, tau, phi = 4, 0, 0.9, 1.1
        ker = PhiKernel(N, L, phi)
        got = remainder(ker, tau)
        tail = _stream(N, L, phi, 300)
        want = float(np.sum(tail * np.exp(-np.arange(N, 300) * tau)))
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        # and against the independent matrix-element series
        full = kernel_via_spectral_series(N, L, tau, phi, 300, imaginary_time=True).value.real
        sub = sum(residue_coeffs(N, L, phi, n) * math.exp(-n * tau) for n in range(L, N))
        assert got == pytest.approx(full - sub, rel=1e-10, abs=0)

    @pytest.mark.parametrize("N, L, phi", [(5, 0, 2.8), (8, 3, 2.5), (12, 0, 2.0)])
    def test_tail_coefficients_match_mpmath(self, N, L, phi):
        # the series branch sums these q_j (j >= N); an expanded-polynomial
        # convolution in double precision is off by 5e-8, 3e-7 and 0.1 here
        got = _stream(N, L, phi, N + 40)
        want = _mp_coeffs(N, L, phi, N, N + 40)
        scale = max(abs(x) for x in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "N, L, phi",
        [(1, 0, 2.0), (4, 1, 2.9), (3, 0, 10.1), (7, 3, 6.0), (12, 0, 6.0), (12, 5, 9.7), (9, 8, 9.7)],
    )
    def test_chunked_coefficients_equal_single_call(self, N, L, phi):
        # every q_j is the same float whichever way the weights were split:
        # the stream's chunks (96, 192, ... from j = N), another split of
        # _tail_weights carrying its gain, and the residues all equal the
        # weights j <= N row by row and one _tail_weights call beyond
        J = 5000
        point = _jacobi_point(L, phi)
        head = K._block_rows(N, L, [phi])[1][0]
        whole = np.concatenate((head, _tail_weights(N, L, point, N + 1, J + 1, point[2])[0]))
        coeffs = _q(whole[:-2], whole[1:-1], whole[2:])  # q_0 .. q_{J-1}
        assert np.array_equal(_stream(N, L, phi, J), coeffs[N:])
        # each chunk's indices, as the stream gives them to its factor, are those of its q_j
        seen = []

        def factor(j, nu):
            seen.append(j)
            return j / (j - nu)

        K._series_sums(N, L, [phi], [N * math.exp(-phi)], factor)
        j0, chunk = N, 96
        for j in seen:
            assert j.dtype == float and np.array_equal(j, np.arange(j0, j0 + chunk))
            j0, chunk = j0 + chunk, min(2 * chunk, 4096)
        assert seen
        assert np.array_equal(_residues(N, L, phi), coeffs[:N])
        pieces, gain = [head], point[2]
        for a, b in ((N + 1, 97), (97, 98), (98, 2000), (2000, J + 1)):
            tail, gain = _tail_weights(N, L, point, a, b, gain)
            pieces.append(tail)
        assert np.array_equal(np.concatenate(pieces), whole)
        assert gain == _tail_weights(N, L, point, N + 1, J + 1, point[2])[1]

    def test_reality_of_rotated_kernel(self):
        # the full rotated kernel is real; assert through the spectral sum
        for (N, L, tau, phi) in ((2, 0, 0.7, 1.2), (5, 3, 0.3, 2.1)):
            val = kernel_via_spectral_series(N, L, tau, phi, 300, imaginary_time=True).value
            assert abs(val.imag) <= 1e-13 * abs(val)

    def test_decay_order(self):
        N, L, phi = 3, 1, 1.4
        ker = PhiKernel(N, L, phi)
        r1, r2 = abs(remainder(ker, 6.0)), abs(remainder(ker, 9.0))
        assert r2 < r1 * math.exp(-N * 2.9)  # at least e^{-N tau} decay

    def test_branches_agree_midrange(self):
        import lambshift.kernel as K

        for (N, L, phi, tau) in ((3, 0, 2.2, 0.6), (5, 2, 2.8, 1.1)):
            series = remainder(PhiKernel(N, L, phi), tau)
            old = K.SERIES_T2_MAX
            K.SERIES_T2_MAX = -1.0
            try:
                closed = remainder(PhiKernel(N, L, phi), tau)
            finally:
                K.SERIES_T2_MAX = old
            assert series == pytest.approx(closed, rel=1e-11, abs=0)


class TestRemainderDerivative:
    def test_zero_phi_closed_form(self):
        for (N, L) in ((2, 0), (4, 3)):
            for tau in (0.1, 1.7):
                got = remainder_dtau(PhiKernel(N, L, 0.0), tau)
                want = -N / 2.0 * math.exp(-N * tau) + (N + 1) / 4.0 * math.exp(-(N + 1) * tau)
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_against_central_differences(self):
        rng = random.Random(4)
        step = 1e-5
        for _ in range(50):
            N = rng.randint(1, 6)
            L = rng.randint(0, N - 1)
            tau = rng.uniform(0.05, 3.0)
            phi = rng.uniform(0.02, 3.5)
            ker = PhiKernel(N, L, phi)
            fd = (remainder(ker, tau + step) - remainder(ker, tau - step)) / (2 * step)
            an = remainder_dtau(ker, tau)
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_specific_spec_point(self):
        N, L, tau, phi = 2, 1, 0.5, 0.8
        step = 1e-5
        ker = PhiKernel(N, L, phi)
        fd = (remainder(ker, tau + step) - remainder(ker, tau - step)) / (2 * step)
        assert remainder_dtau(ker, tau) == pytest.approx(fd, rel=1e-6)

    def test_tail_decay_bound(self):
        N, L, phi = 3, 0, 1.1
        ker = PhiKernel(N, L, phi)
        scale = abs(remainder_dtau(ker, 1.0))
        for tau in (6.0, 10.0):
            assert abs(remainder_dtau(ker, tau)) <= 40.0 * scale * math.exp(-N * tau)


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
    """The numpy closed branch that the tau quadrature oracle evaluates a panel at a time."""

    TAUS = np.geomspace(1e-6, 30.0, 25)

    @pytest.mark.parametrize("phi", [3.0, 5.0, 8.0, 10.0])
    @pytest.mark.parametrize("N, L", [(2, 0), (4, 1)])
    def test_against_mpmath(self, N, L, phi):
        ker = PhiKernel(N, L, phi)
        assert not _on_series(ker.phi)
        got = _closed_remainder_dtau(ker, self.TAUS)
        residues = _residues(N, L, phi)
        for g, tau in zip(got.tolist(), self.TAUS):
            want, scale = _mp_closed_dtau(N, L, phi, tau, residues)
            assert abs(g - want) <= 1e-12 * scale, tau

    @pytest.mark.parametrize("phi", [3.0, 5.0, 8.0, 10.0])
    @pytest.mark.parametrize("N, L", [(2, 0), (4, 1)])
    def test_array_equals_scalar_bit_for_bit(self, N, L, phi):
        ker = PhiKernel(N, L, phi)
        got = _closed_remainder_dtau(ker, self.TAUS).tolist()
        assert got == [remainder_dtau(ker, float(tau)) for tau in self.TAUS]


class TestTauIntegral:
    def test_series_vs_quadrature_branches(self):
        # the hot path (series at these phi, the Euler form beyond phi ~ 2.89)
        # against the oracle's adaptive quadrature of the closed u-form; at
        # (50, 49), (60, 59) and (86, 85) every term of the first tail chunk
        # is below 1e-15 and still rising, where an absolute floor stopped the
        # series at 5.6e-21, 3.0e-25 and 7.3e-36 instead of ~2.4e-8
        for (N, L, phi) in (
            (2, 0, 2.0), (4, 1, 2.5), (3, 0, 2.9), (6, 5, 1.5), (2, 0, 4.0), (4, 1, 5.0), (3, 0, 3.5),
            (50, 49, 2.8), (60, 59, 2.7), (86, 85, 2.5),
        ):
            value = PhiKernel(N, L, phi).tau_integral()[0]
            quad = tau_integral_by_quadrature(N, L, phi)
            assert quad.converged
            assert value == pytest.approx(quad.value, rel=2e-10, abs=0)

    def test_quadrature_oracle_domain(self):
        # nu = 1.35 >= max(1, L): the e^{nu tau} weight would amplify the
        # roundoff of the subtracted residues until a node overflows
        with pytest.raises(ValueError, match=r"max\(1, L\) = 1"):
            tau_integral_by_quadrature(30, 0, 3.1)
        # nu = 1.18 exceeds 1 but stays below L = 5
        quad = tau_integral_by_quadrature(25, 5, 3.05)
        assert quad.converged
        assert quad.value == pytest.approx(PhiKernel(25, 5, 3.05).tau_integral()[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("N, L, phi", [(20, 19, 0.111), (10, 9, 0.125)])
    def test_quadrature_oracle_just_below_its_bound_ends_unconverged(self, N, L, phi):
        # nu = 18.0 and 8.8, just below L: the doubling panels reach tau where
        # e^{nu tau} overflows while u^N has left the double range; those
        # nodes raised IntegrandError (nan at tau = 62.9 and 126.7), and now
        # count as lost, so the result ends converged=False
        assert N * math.exp(-phi) < L
        quad = tau_integral_by_quadrature(N, L, phi)
        assert not quad.converged
        assert math.isfinite(quad.value) and math.isfinite(quad.error_estimate)

    @pytest.mark.parametrize(
        "N, L, phi", [(2, 0, 1.0), (4, 1, 2.5), (3, 0, 2.85), (6, 5, 1.5), (1, 0, 0.05), (50, 49, 2.8)]
    )
    def test_series_branch_returns_the_bound_it_met(self, monkeypatch, N, L, phi):
        ker = PhiKernel(N, L, phi)
        assert _on_series(ker.phi)
        value, error, evaluations, converged = ker.tau_integral()
        assert (evaluations, converged) == (0, True)
        assert error == 1e-13 * abs(value)
        monkeypatch.setattr(K, "TAU_REL_TOL", 1e-16)
        tighter = -K._series_sums(N, L, [phi], [ker.nu], lambda j, nu: j / (j - nu))[0]
        assert abs(value - tighter) <= error

    def test_against_mpmath_quadrature(self):
        import mpmath as mp

        N, L, phi = 2, 0, 1.0
        ker = PhiKernel(N, L, phi)
        got = ker.tau_integral()[0]
        mp.mp.dps = 30
        nu = N * math.exp(-phi)
        f = lambda tau: mp.e ** (nu * tau) * remainder_dtau(ker, float(tau))
        want = float(mp.quad(f, [0, 1, 2, 4, 8, 16, 32, 64]))
        assert got == pytest.approx(want, rel=1e-9)

    def test_closed_branch_evaluates_no_integrand(self, monkeypatch):
        import lambshift.kernel as K

        def no_quadrature(*args, **kwargs):
            raise AssertionError("the closed branch integrated numerically")

        monkeypatch.setattr(K, "integrate_semi_infinite", no_quadrature)
        for (N, L, phi) in ((1, 0, 3.0), (4, 1, 5.0), (8, 3, 12.0)):
            ker = PhiKernel(N, L, phi)
            assert not _on_series(ker.phi)
            value, error, evaluations, converged = ker.tau_integral()
            residue_terms = [n * residue_coeffs(N, L, phi, n) / (n - ker.nu) for n in range(max(L, 1), N)]
            pieces = residue_terms + K._euler_block(N, L, [phi], [ker.nu])[0].tolist()
            assert (value, evaluations, converged) == (math.fsum(pieces), 0, True)
            assert error == 1e-15 * np.abs(np.array(pieces)).sum()

    @pytest.mark.parametrize("N, L, phi", [(20, 0, 2.99), (30, 0, 3.1), (25, 5, 3.05), (40, 10, 2.92)])
    def test_closed_form_with_nu_above_one(self, N, L, phi):
        # nu >= 1 on the closed branch (N >= 18): the digammas recur from
        # the first positive argument 1 - nu + floor(nu) in both directions
        # (twice downwards at (40, 10), where nu = 2.16);
        # the residue poles nu = n cancel between the pieces, so the value
        # stays finite but loses digits close to them (here nu - 1 >= 0.006)
        import lambshift.kernel as K

        ker = PhiKernel(N, L, phi)
        assert not _on_series(ker.phi) and ker.nu > 1.0
        closed = ker.tau_integral()[0]
        old = K.SERIES_T2_MAX
        K.SERIES_T2_MAX = 1.0
        try:
            series = PhiKernel(N, L, phi).tau_integral()[0]
        finally:
            K.SERIES_T2_MAX = old
        assert closed == pytest.approx(series, rel=1e-11, abs=0)


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
                assert not _on_series(ker.phi)
                got = ker.tau_integral()[0]
                want, pieces = _mp_euler_form(N, L, phi, _residues(N, L, phi))
                assert abs(got - want) <= 1e-13 * (abs(want) + pieces), (L, phi)

    @pytest.mark.parametrize("N", [1, 4, 20, 50, 86])
    def test_digamma_rows_equal_the_scalar_recurrence(self, N):
        # int(nu) runs from 0 to 4 over these nodes (N = 86 at phi = 2.9),
        # so the rows recur upward and downward; real nu gives the loop's
        # floats, complex nu + i eps differs only in the rounding of
        # numpy's complex division, amplified where the running sum cancels.
        # The head is the strip form's at a block of one node
        def recurrence(nu):
            first = int(nu.real)
            psi = [0.0] * N
            psi[first] = specfun.digamma(np.array([1.0 - nu + first]))[0]
            for i in range(first + 1, N):
                psi[i] = psi[i - 1] + 1.0 / (i - nu)
            for i in range(first - 1, -1, -1):
                psi[i] = psi[i + 1] - 1.0 / (i + 1 - nu)
            return psi

        nus = [N * math.exp(-phi) for phi in (2.9, 3.0, 3.6, 4.5, 8.0, 12.69)]
        assert K._psi_rows(N, nus).tolist() == [recurrence(nu) for nu in nus]
        for eps in (0.05, 0.0125):
            rows = K._psi_rows(N, [complex(nu, eps) for nu in nus]).tolist()
            for got, nu in zip(rows, nus):
                want = recurrence(complex(nu, eps))
                scale = max(abs(b) for b in want)
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15 * scale, (nu, eps)

    def test_rows_beyond_the_double_range_name_the_state(self):
        # 1/(2N-3)! leaves the double range from N = 87 on, for every L
        assert _euler_rows(86, 0).first[0] > 0.0
        for L in (0, 43, 86):
            with pytest.raises(OverflowError, match=rf"\(N, L\) = \(87, {L}\) needs 1/171!.*N <= 86"):
                _euler_rows(87, L)


class TestKernelTables:
    """The phi-independent coefficients are tabulated once; the values are those computed on the fly."""

    @pytest.mark.parametrize("N, L", [(4, 1), (12, 0), (20, 7), (6, 5)])
    def test_weights_from_the_table_equal_on_the_fly_bit_for_bit(self, N, L, exact_jacobi_step):
        # the row table and the shared (alpha, beta) table hold each exact
        # factor correctly rounded, and a weight of the block row read from
        # them equals the one from factors computed on the spot
        for phi in (0.4, 2.0, 7.5):
            w, t2, gain = _jacobi_point(L, phi)
            row = K._block_rows(N, L, [phi])[1][0].tolist()  # j = -1 .. N
            assert len(row) == N + 2 and row[: L + 2] == [0.0] * (L + 2)
            for j in range(L + 1, N + 1):
                degree, beta = j - L - 1, 2 * L + 1
                fresh = [exact_jacobi_step(k, N - j, beta) for k in range(1, degree + 1)]
                assert _JACOBI_STEPS[N - j, beta][:degree] == fresh
                binom = math.comb(N + L, 2 * L + 1) / math.comb(j + L, 2 * L + 1)
                assert _row_table(N, L)[j - L - 1] == (binom, tuple(fresh))
                p = _jacobi_from_steps(fresh, w)
                power = 1.0  # t^{2(N-j)} as a running product, not pow
                for _ in range(N - j):
                    power *= t2
                want = binom * power * gain * p * p
                assert row[j + 1] == want

    def test_repeated_series_node_computes_no_jacobi_step(self, monkeypatch):
        # every chunk of the stream, the second (j - N up to 288) included,
        # is tabulated once: the same node again asks for no Jacobi steps
        PhiKernel(4, 1, 2.5).tau_integral()
        calls = []

        def counting(*args):
            calls.append(args)
            return _jacobi_steps(*args)

        monkeypatch.setattr(K, "_jacobi_steps", counting)
        PhiKernel(4, 1, 2.5).tau_integral()
        assert calls == []
        K._tables.cache_clear()  # the counter sees the chunks' steps once they are gone
        PhiKernel(4, 1, 2.5).tau_integral()
        assert calls

    def test_series_branch_tabulates_a_bounded_depth(self, monkeypatch):
        # the series branch stops within the first four chunks (j - N < 1441)
        # for every node up to the switch t^2 = 0.8, so the tail table has
        # a bounded number of entries per (N, L)
        depths = []

        def recording(N, L, point, j0, j1, gain):
            depths.append(j1 - N)
            return _tail_weights(N, L, point, j0, j1, gain)

        monkeypatch.setattr(K, "_tail_weights", recording)
        switch = 2.0 * math.atanh(math.sqrt(K.SERIES_T2_MAX))
        for N in (1, 4, 10, 20, 30):
            for L in sorted({0, N // 2, N - 1}):
                block = [PhiKernel(N, L, phi) for phi in (0.3, 1.5, switch)]
                K.fill_tau_integrals(block)
                for ker in block:
                    assert _on_series(ker.phi)
                    assert math.isfinite(ker.tau_integral()[0])
                    for tau in (0.0, 0.01, 1.0, 10.0):
                        assert math.isfinite(remainder(ker, tau) + remainder_dtau(ker, tau))
        assert depths and max(depths) <= 1441

    @pytest.mark.parametrize("N, L", [(1, 0), (4, 1), (9, 2), (20, 0)])
    def test_euler_series_table_equals_on_the_fly_bit_for_bit(self, N, L):
        def pieces(phi):
            return K._euler_block(N, L, [phi], [PhiKernel(N, L, phi).nu]).tolist()

        # each log-series table against its scalar formulas in Python integers
        rows = _euler_rows(N, L)
        for length in (1, 8, 40, 136):
            heads, steps = K._log_table(N, L, length)
            assert heads.shape == steps.shape == (N - L, length)
            for k in range(N - L):
                s, h = int(rows.s[k]), int(rows.h[k])
                a = 2 * N + h
                assert rows.amp[k] == -0.25 * _series_term_ratios(N, L)[k] and rows.first[k] == 1.0 / math.factorial(s)
                assert list(zip(heads[k].tolist(), steps[k].tolist())) == [
                    ((a + j) / ((j + 1) * (j + s + 1)), 1.0 / (a + j) - 1.0 / (j + 1) - 1.0 / (j + s + 1))
                    for j in range(length)
                ]
        # a node's pieces do not depend on the tables built before it
        K._tables.cache_clear()
        first = pieces(2.9)
        pieces(3.0)
        assert pieces(2.9) == first

    def test_tables_empty_after_import(self):
        # every table is built lazily, so importing the package builds none:
        # every cached function of kernel, shifts and specfun, found by its
        # cache_info, and the Jacobi steps
        src = str(Path(K.__file__).resolve().parents[1])
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import lambshift, lambshift.oracles; "
            "from lambshift import kernel, shifts, specfun; "
            "sizes = {f'{f.__module__}.{f.__name__}': f.cache_info().currsize "
            "for m in (kernel, shifts, specfun) for f in vars(m).values() "
            "if callable(getattr(f, 'cache_info', None))}; "
            "sizes['lambshift.specfun._JACOBI_STEPS'] = len(specfun._JACOBI_STEPS); "
            "print(json.dumps(sizes))"
        )
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        sizes = json.loads(out.stdout)
        tables = ("_tables", "_row_table")
        assert {*(f"lambshift.kernel.{name}" for name in tables), "lambshift.shifts._channels"} <= set(sizes)
        assert all(size == 0 for size in sizes.values()), sizes

    def test_values_do_not_depend_on_the_order_of_states(self):
        # the record holds one state's tables at a time: two fresh
        # interpreters run the same calls in orders where each state follows
        # a different one, and every value is the same float
        src = str(Path(K.__file__).resolve().parents[1])
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); from lambshift import kernel, oracles, shifts; "
            "S = shifts.QuantumState; "
            "shift = lambda N, L: (lambda r: (r.lamb_shift_MHz, r.partial_rates, r.pv_term_MHz))"
            "(shifts.lamb_shift(S(N=N, L=L))); "
            "calls = {'shift21': lambda: shift(2, 1), 'shift30': lambda: shift(3, 0), "
            "'bethe21': lambda: (lambda r: (r.gamma, r.estimates))(shifts.bethe_log(2, 1)), "
            "'rates52': lambda: shifts.decay_rates(S(N=5, L=2)), "
            "'eps10': lambda: oracles.shift_via_eps_real_axis(S(N=1, L=0), 0.025)}; "
            "values = {name: repr(calls[name]()) for name in sys.argv[2:]}; "
            "print(json.dumps([values, kernel._tables.cache_info().currsize]))"
        )
        orders = (
            ("shift21", "eps10", "bethe21", "shift30", "rates52"),
            ("shift30", "bethe21", "rates52", "eps10", "shift21"),
        )
        runs = []
        for order in orders:
            out = subprocess.run([sys.executable, "-c", code, src, *order], capture_output=True, text=True, timeout=60)
            assert out.returncode == 0, out.stderr
            runs.append(json.loads(out.stdout))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1] == 1

    def test_import_loads_no_fractions_decimal_csv_or_dataclasses(self):
        # fractions (which imports decimal) loads with the exact-rational
        # fallback of a reference series, csv with the published tables;
        # the record types are namedtuples, whose import generates no methods
        src = str(Path(K.__file__).resolve().parents[1])
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import lambshift, lambshift.oracles; "
            "print(json.dumps(sorted(m for m in ('fractions', 'decimal', 'csv', 'dataclasses') if m in sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == []

    def test_import_without_site_loads_no_importlib_resources(self):
        # under -S no .pth file preloads importlib.resources, which brings
        # pathlib, tempfile, shutil, bz2, lzma and random; the package
        # fixture paths import it when called
        src = str(Path(K.__file__).resolve().parents[1])
        numpy_parent = str(Path(np.__file__).resolve().parents[1])
        code = (
            "import json, sys; sys.path[:0] = sys.argv[1:3]; import lambshift, lambshift.oracles; "
            "print(json.dumps('importlib.resources' in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, src, numpy_parent], capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) is False

    @staticmethod
    def _counting_tail_table(monkeypatch):
        """The (N, L, j0, j1) of every tail chunk built from here on."""
        built = []

        def counting(*args):
            built.append(args)
            return _tail_table(*args)

        monkeypatch.setattr(K, "_tail_table", counting)
        return built

    def test_tail_table_keeps_a_bounded_number_of_chunks(self, monkeypatch):
        # a series that never stops asks for ~490 chunks before it raises at
        # j = 2e6; the record keeps the six below the stream's 4096-column
        # cap and builds each chunk at the cap afresh, where a table of
        # every chunk would hold 30.8 MB at (1, 0)
        built = self._counting_tail_table(monkeypatch)
        K._tables.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="did not converge"):
                K._series_sums(1, 0, [20.0], [math.exp(-20.0)], lambda j, nu: 1.0 + 0.0 * j)
            kept = [key for builder, key in K._tables(1, 0) if builder is K._tail_table]
        finally:
            K._tables.cache_clear()
        assert len(built) > 400 and len(set(built)) == len(built)
        assert len(kept) == 6 and all(j1 - j0 < 4096 for j0, j1 in kept)

    @pytest.mark.parametrize("route", ["lamb_shift", "bethe_log"])
    def test_tail_table_holds_every_chunk_of_a_pass(self, monkeypatch, route):
        # the Table-1 and Bethe states read their chunks only while they
        # work on their own state: every chunk lies below the cap, so the
        # record keeps it, and none is built twice
        from lambshift import shifts

        built = self._counting_tail_table(monkeypatch)
        K._tables.cache_clear()
        for N, L in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)):
            if route == "lamb_shift":
                shifts.lamb_shift(shifts.QuantumState(N=N, L=L))
            else:
                shifts.bethe_log(N, L)
        assert built and len(set(built)) == len(built)
        assert all(j1 - j0 < 4096 for _, _, j0, j1 in built)
        assert K._tables.cache_info().currsize == 1


class TestEulerBlock:
    """The closed branch of a block of kernels: each kernel's tau integral as in its block of one."""

    # w = sech^2(phi/2) from 0.2 at the switch (2.887) down to 1e-5 at the last node
    PHIS = (0.4, 1.7, 2.8, 2.889, 2.92, 2.97, 3.1, 3.6, 4.5, 6.0, 9.0, 2.0 * math.acosh(1e-5**-0.5))

    @pytest.mark.parametrize("N, L", [(1, 0), (4, 1), (18, 0), (20, 10), (30, 0), (50, 25)])
    def test_mixed_block_equals_blocks_of_one(self, N, L):
        # series and closed nodes in one block; from N = 18 on some closed
        # nodes have nu >= 1 (at N = 50 up to nu = 2.78, whose digammas also
        # recur downwards); every value and bound is that of the kernel alone
        alone = {phi: PhiKernel(N, L, phi).tau_integral() for phi in self.PHIS}
        block = [PhiKernel(N, L, phi) for phi in self.PHIS]
        assert {_on_series(ker.phi) for ker in block} == {True, False}
        if N >= 18:
            assert max(ker.nu for ker in block if not _on_series(ker.phi)) >= 1.0
        K.fill_tau_integrals(block)
        for ker in block:
            value, bound, _, _ = ker.tau_integral()
            assert (value, bound) == alone[ker.phi][:2], ker.phi
        w = [4.0 * math.exp(-phi) / (1.0 + math.exp(-phi)) ** 2 for phi in (self.PHIS[3], self.PHIS[-1])]
        assert w[0] > 0.19 and w[1] == pytest.approx(1e-5, rel=1e-9)

    def test_exact_pole_node_names_the_state(self):
        # N e^-phi rounds to exactly 1.0 at phi = ln 50: a residue pole of the
        # closed branch, where the value would divide by zero
        phi = math.log(50)
        with pytest.raises(ArithmeticError, match=rf"\(N, L, phi\) = \(50, 0, {phi!r}\)$"):
            PhiKernel(50, 0, phi).tau_integral()
        block = [PhiKernel(50, 0, x) for x in (3.0, phi, 4.0)]
        with pytest.raises(ArithmeticError, match=rf"residue pole .* \(50, 0, {phi!r}\)$"):
            K.fill_tau_integrals(block)

    def test_log_series_lengths_double_until_every_entry_ends(self, monkeypatch):
        # a length too short for every entry doubles until each meets its own
        # stopping test: the same values as from the estimated length
        N, L = 4, 0
        phis = [2.9, 3.3, 5.0]
        want = K._euler_block(N, L, phis, [N * math.exp(-phi) for phi in phis])
        monkeypatch.setattr(K, "_series_length", lambda N, w: 2)
        got = K._euler_block(N, L, phis, [N * math.exp(-phi) for phi in phis])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("N, L", [(1, 0), (3, 1)])
    def test_log_series_that_never_ends_raises(self, monkeypatch, N, L):
        # a NaN entry never meets the stopping test: the doubling stops at
        # _SERIES_MAX_STEPS and names the state.  The guard on the step table
        # ends the test instead if the bound is ever lost.  A NaN nu stops
        # earlier, at the digamma strip's check, so the NaN enters the log
        # series through a node's digamma head
        table, strip = K._log_table, K.digamma

        def guarded(N, L, length):
            assert length <= K._SERIES_MAX_STEPS, "the log series doubled past its bound"
            return table(N, L, length)

        def nan_last_head(x):
            heads = strip(x)
            heads[-1] = math.nan
            return heads

        nus = [complex(N * math.exp(-4.0), 0.0125), complex(N * math.exp(-5.0), 0.0125)]
        with pytest.raises(ValueError, match="digamma needs 0 < Re x <= 1"):
            K._euler_block(N, L, [4.0, 5.0], [nus[0], complex(nus[1].real, math.nan)])
        monkeypatch.setattr(K, "_log_table", guarded)
        monkeypatch.setattr(K, "digamma", nan_last_head)
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match=rf"\(N, L\) = \({N}, {L}\) has not ended"):
            K._euler_block(N, L, [4.0, 5.0], nus)


class TestBlockStream:
    """The series sums of a block of kernels come from one (kernels x j) stream, each row as alone."""

    # (20, 10): the pole ln(20/19) and the floats either side of it, nodes
    # that stop after 1, 2 and 3 chunks, closed-branch nodes and phi = 0
    POLE = math.log(20 / 19)
    PHIS = (0.5, math.nextafter(POLE, 0.0), 2.5, 3.0, POLE, 1.5, 0.0, math.nextafter(POLE, 1.0), 6.0, 2.7)

    @staticmethod
    def _chunks_taken(monkeypatch, run):
        """The open rows of each chunk of the streams that run starts."""
        rows = []

        def recording(N, L, point, j0, j1, gain):
            rows.append(np.size(gain))
            return _tail_weights(N, L, point, j0, j1, gain)

        with monkeypatch.context() as m:
            m.setattr(K, "_tail_weights", recording)
            run()
        return rows

    @pytest.mark.parametrize(
        "N, L, phis", [(20, 10, PHIS), (4, 1, (2.5, 0.2, 3.5, 2.0, 1.0, 2.8)), (1, 0, (0.05, 2.88))]
    )
    def test_block_equals_blocks_of_one_bit_for_bit(self, monkeypatch, N, L, phis):
        alone, chunks = {}, {}
        for phi in phis:
            ker = PhiKernel(N, L, phi)
            if phi == 0.0:
                continue
            chunks[phi] = len(self._chunks_taken(monkeypatch, ker.tau_integral)) if _on_series(phi) else 0
            alone[phi] = repr(ker.tau_integral())
        block = [PhiKernel(N, L, phi) for phi in phis]
        filled = []
        open_rows = self._chunks_taken(monkeypatch, lambda: filled.append(K.fill_tau_integrals(block)))
        # one stream for the block: chunk c holds the rows that take c chunks or more alone
        depth = max(chunks.values())
        assert open_rows == [sum(n > c for n in chunks.values()) for c in range(depth)]
        if N == 20:
            assert {1, 2, 3} <= set(chunks.values()) and 0 in chunks.values()
        # every kernel is filled but the phi = 0 one, left to tau_integral to
        # raise, and the returned residues are each kernel's own
        assert [ker._tau is None for ker in block] == [phi == 0.0 for phi in phis]
        assert filled[0].tolist() == [_residues(N, L, phi) for phi in phis]
        for ker in block:
            if ker.phi == 0.0:
                with pytest.raises(ValueError, match="diverges at phi = 0"):
                    ker.tau_integral()
            else:
                assert repr(ker.tau_integral()) == alone[ker.phi], ker.phi

    @pytest.mark.parametrize("N, L", [(4, 1), (20, 0)])
    def test_a_large_block_is_one_stream_and_one_log_series_slab(self, monkeypatch, N, L):
        # 42 series nodes and 21 closed ones at w = 0.199 .. 1e-5, mixed: more
        # than 32 rows of one stream and, at (20, 0), more than 2048
        # log-series entries, the old caps
        series = np.linspace(0.06, 2.87, 42).tolist()
        closed = [2.0 * math.acosh(w**-0.5) for w in np.geomspace(0.199, 1e-5, 21).tolist()]
        phis = series[::2] + closed + series[1::2]
        assert sum(map(_on_series, phis)) == 42 and len(phis) == 63
        alone = [repr(PhiKernel(N, L, phi).tau_integral()) for phi in phis]
        chunks, calls, lengths = [], [], []
        log_series, series_length = K._log_series, K._series_length

        def chunk(N, L, point, j0, j1, gain):
            chunks.append((j0, np.size(gain)))
            return _tail_weights(N, L, point, j0, j1, gain)

        def recording(*args):
            calls.append((args, log_series(*args)))
            return calls[-1][1]

        def measured(N, w):
            lengths.append(w)
            return series_length(N, w)

        block = [PhiKernel(N, L, phi) for phi in phis]
        with monkeypatch.context() as m:
            m.setattr(K, "_tail_weights", chunk)
            m.setattr(K, "_log_series", recording)
            m.setattr(K, "_series_length", measured)
            K.fill_tau_integrals(block)
        assert [repr(ker.tau_integral()) for ker in block] == alone
        # one stream: a single first chunk, holding every series node
        assert [rows for j0, rows in chunks if j0 == N + 1] == [42]
        # one slab, sized once at the largest w, whose entries are those of the nodes one by one
        ((_, _, bh, g, w), slab), = calls
        assert bh.shape == (21, N - L) and lengths == [max(w[:, 0].tolist())]
        for i in range(21):
            node = log_series(N, L, bh[i : i + 1], g[i : i + 1], w[i : i + 1])
            assert repr(node.tolist()) == repr(slab[i : i + 1].tolist()), i

    def test_any_factor_sums_as_in_a_block_of_one(self, monkeypatch):
        # the oracles' remainder factors u^j and j u^j, and a factor that reads
        # each row's nu, at the default and at a tighter TAU_REL_TOL
        phis = [2.5, 0.2, 2.0, 1.0, 2.8]
        nus = [PhiKernel(4, 1, phi).nu for phi in phis]
        factors = [
            (lambda j, nu: 0.4**j, K.TAU_REL_TOL),
            (lambda j, nu: j * 0.99**j, K.TAU_REL_TOL),
            (lambda j, nu: j / (j - nu), 1e-16),
        ]
        for factor, rel_tol in factors:
            with monkeypatch.context() as m:
                m.setattr(K, "TAU_REL_TOL", rel_tol)
                sums = K._series_sums(4, 1, phis, np.array(nus), factor)
                alone = [K._series_sums(4, 1, [phi], [nu], factor)[0] for phi, nu in zip(phis, nus)]
            assert repr(sums) == repr(alone)
        u = math.exp(-0.9)
        whole = K._series_sums(4, 1, phis, nus, lambda j, nu: u**j)
        assert remainder(PhiKernel(4, 1, 2.5), 0.9) == whole[0]

    def test_zero_phi_raises_without_a_numpy_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for N, L in ((1, 0), (3, 1), (20, 10)):
                block = [PhiKernel(N, L, 0.0), PhiKernel(N, L, 0.4)]
                K.fill_tau_integrals(block)
                assert block[0]._tau is None and block[1]._tau is not None
                for ker in (block[0], PhiKernel(N, L, 0.0)):
                    with pytest.raises(ValueError, match="diverges at phi = 0"):
                        ker.tau_integral()

    def test_nonconvergence_is_an_arithmetic_error_naming_the_open_kernels(self, monkeypatch):
        # at phi = 20 and 25 t^2 rounds to within 1e-8 of 1, so with the
        # series forced there, a factor that does not decay leaves the tail
        # bound open until j = 2e6; phi = 0.5 converges and is not named
        monkeypatch.setattr(K, "SERIES_T2_MAX", 1.0)
        phis = [20.0, 0.5, 25.0]
        try:
            with pytest.raises(ArithmeticError) as info:
                K._series_sums(1, 0, phis, [math.exp(-phi) for phi in phis], lambda j, nu: 1.0 + 0.0 * j)
        finally:
            K._tables.cache_clear()  # the first chunks of (1, 0)
        message = str(info.value)
        assert "did not converge" in message
        assert "(1, 0, 20.0)" in message and "(1, 0, 25.0)" in message and "0.5" not in message
