"""Residue coefficients and the inner tau integral of the rotated contour.

The kernel is Q(T, phi) = sin^2(T/2) sum_n |D_{N,n}(phi)|^2 e^{-i n T}, D
the dilation matrix of the discrete series.  On the rotated contour T = -i
tau it is the exponential series sum_j q_j u^j in u = e^{-tau}, with
q_j = |D_{N,j}|^2/2 - |D_{N,j+1}|^2/4 - |D_{N,j-1}|^2/4 for every j (_q, the
one place the formula is written), every |D|^2 from one Jacobi closed form
(_row_weights for j <= N, _tail_weights beyond;
su11.rep_matrix_element is only an independent reference).  The q_j with
j < N are the residues R_j and the j >= N tail is the remainder Q~, whose
coefficients come as one forward stream of chunks (PhiKernel._coeff_chunks)
that forms each weight once, read by the series branch.  A phi node forms
its weights j = -1 .. N once, eagerly, in one pass over _row_table when
PhiKernel is constructed, for its residues and the first tail coefficients
alike.  Summing the tail directly removes the
catastrophic cancellation that subtracting the finite series from the
closed form would cause at small phi, where the integrand weight
e^{nu tau} grows almost as fast as the kernel decays.
Every phi-independent coefficient of the per-node loops is computed once,
lazily, and then read: the binomial ratios, powers and Jacobi steps of
the weights j <= N (_row_table, its steps from specfun._jacobi_steps,
keyed by (N - j, 2L + 1) and so shared by every N), the indices, gain
ratios and steps of every tail chunk (_tail_table,
the only source of them; the series branch stops within a bounded depth
for each (N, L), so the table stays bounded) and the factors of each
Euler log series with its first term 1/s! (the rows of _euler_rows).
At large phi the series converges too slowly (ratio t^2 -> 1,
t = tanh(phi/2)) and the closed u-form Q = pi(u) (1 - u t^2)^{-2N}, pi a
polynomial of degree 2N - L, takes over without ever being evaluated in
tau: Euler's integral turns the inner integral int e^{nu tau} dQ~/dtau
dtau into one Gauss function per factored term of pi, each summed in
closed form around t^2 = 1 (_euler_pieces, to which
PhiKernel.tau_integral adds the residue terms); the same Gauss pieces at
the complex nu + i eps are the eps oracle's inner integral at large phi,
reached without a PhiKernel and so without a weight row.
Only the checks evaluate kernels: the u-form and the remainder Q~ in tau
(oracles.q_imag_time, oracles.remainder), the real-time kernel
(oracles.kernel_q) and the adaptive quadrature of the inner integral
(oracles.tau_integral_by_quadrature).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .specfun import _jacobi_from_steps, _jacobi_steps, digamma

# Unused here; kept bound because perfbench/tracing.py wraps
# kernel.integrate_semi_infinite and kernel.rep_matrix_element.
from .quadrature import integrate_semi_infinite  # noqa: F401
from .su11 import rep_matrix_element  # noqa: F401

# Switch from the exponential series to the Euler closed form once the
# series ratio tanh^2(phi/2) exceeds this (phi ~ 2.89).
SERIES_T2_MAX = 0.80
EULER_GAMMA = 0.57721566490153286061


def validate_quantum_numbers(N: int, L: int) -> None:
    if N != int(N) or L != int(L) or N < 1 or L < 0 or L > N - 1:
        raise ValueError(f"invalid quantum numbers N={N!r}, L={L!r} (need 0 <= L <= N-1)")


def _jacobi_point(L: int, phi: float) -> tuple[float, float, float]:
    """(w, t^2, G_N) of the Jacobi form: w = 1 - 2t^2, G_N = cosh^{-4(L+1)}(phi/2)."""
    sech2 = math.cosh(phi / 2.0) ** -2
    return 2.0 * sech2 - 1.0, math.tanh(phi / 2.0) ** 2, sech2 ** (2 * (L + 1))


@lru_cache(maxsize=None)
def _row_table(N: int, L: int) -> tuple:
    """The phi-independent factors of the weights L < j <= N, kept per (N, L).

    Entry j - L - 1 is (C(N+L, 2L+1)/C(j+L, 2L+1), N - j, the Jacobi
    steps of degree 1 .. j - L - 1 at (N - j, 2L + 1) from specfun's table):
    the binomial ratio of G_j, the power of t^2 in it and the recurrence of
    its Jacobi polynomial (see _row_weights).
    """
    top, rows = math.comb(N + L, 2 * L + 1), []
    for j in range(L + 1, N + 1):
        degree = j - L - 1
        steps = tuple(_jacobi_steps(degree, N - j, 2 * L + 1)[:degree])
        rows.append((top / math.comb(j + L, 2 * L + 1), N - j, steps))
    return tuple(rows)


def _row_weights(N: int, L: int, point, j0: int, j1: int) -> list[float]:
    """|D_{N,j}|^2 for j0 <= j < j1, L < j1 <= N + 1 (zero for j <= L), point from _jacobi_point.

    Bargmann's closed form makes each weight a Jacobi polynomial at a point
    in [-1, 1], symmetric in N and j, free of alternating sums; with
    l = min(N, j), h = max(N, j) and t = tanh(phi/2),

        |D_{N,j}|^2 = G_j P_{l-L-1}^{(h-l, 2L+1)}(1 - 2t^2)^2,
        G_j = C(h+L, 2L+1)/C(l+L, 2L+1) t^{2(h-l)} cosh^{-4(L+1)}(phi/2).

    Here j <= N, and every phi-independent factor comes from _row_table;
    the zeros j <= L never index it.
    """
    w, t2, gain = point
    lo = max(j0, L + 1)
    return [0.0] * (lo - j0) + [
        ratio * t2**power * gain * _jacobi_from_steps(steps, w) ** 2
        for ratio, power, steps in _row_table(N, L)[lo - L - 1 : j1 - L - 1]
    ]


def _q(below, at, above):
    """q_j from |D_{j-1}|^2, |D_j|^2 and |D_{j+1}|^2: floats or arrays, the same IEEE operations."""
    return 0.5 * at - 0.25 * above - 0.25 * below


@lru_cache(maxsize=None)
def _tail_table(N: int, L: int, j0: int, j1: int):
    """The phi-independent part of _tail_weights over j0 <= j < j1, kept per (N, L, j0, j1).

    (j - 1, ratios, steps) over the array j as floats: j - 1 indexes the
    q_{j-1} that weight j completes (its last neighbour), the gain ratios
    are (j+L)/(j-L-1) and the Jacobi steps are at alpha = j - N.
    """
    j = np.arange(j0, j1, dtype=float)
    degree = N - L - 1
    return j - 1.0, (j + L) / (j - L - 1), _jacobi_steps(degree, j - N, 2.0 * L + 1.0) if degree else ()


def _tail_weights(N: int, L: int, point, j0: int, j1: int, gain: float):
    """|D_{N,j}|^2 for N < j0 <= j < j1 and the gain G at j1 - 1, given G at j0 - 1.

    The one route for the weights beyond _row_weights: one cumulative
    product of G_j/G_{j-1} = t^2 (j+L)/(j-L-1), which is sequential, so
    carrying the float G across a split changes no value.  Its
    coefficients come from _tail_table, built once per (N, L, j0, j1).
    """
    w, t2, _ = point
    _, ratios, steps = _tail_table(N, L, j0, j1)
    gains = t2 * ratios
    gains[0] *= gain
    np.cumprod(gains, out=gains)
    return gains * _jacobi_from_steps(steps, w) ** 2, float(gains[-1])


def residue_coeffs(N: int, L: int, phi: float, n: int) -> float:
    """Residue R_n = q_n of e^{-n tau} in the kernel series, L <= n <= N-1.

    Only the three weights j = n-1, n, n+1 are computed, as plain floats
    from the entries of _row_table that PhiKernel's rows read, and _q
    combines them: a scalar call (one per decay channel, for its rate or
    its pole strength in a shift) would spend more on a whole row of
    weights or on a numpy array than on the arithmetic.  It equals
    PhiKernel(N, L, phi).residues[n] bit for bit.
    """
    validate_quantum_numbers(N, L)
    if n != int(n) or not L <= n < N:
        raise ValueError(f"residue index n={n!r} outside [L, N-1] = [{L}, {N - 1}]")
    return _q(*_row_weights(N, L, _jacobi_point(L, phi), n - 1, n + 2))


@lru_cache(maxsize=None)
def _series_term_ratios(N: int, L: int) -> tuple[float, ...]:
    """Terminating-series coefficients t_k of 2F1(L+1-N, -L-N; 1; z)."""
    a, b = L + 1 - N, -L - N
    ratios = [1.0]
    for k in range(N - L - 1):
        ratios.append(ratios[-1] * (a + k) * (b + k) / ((k + 1) * (k + 1)))
    return tuple(ratios)


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _euler_rows(N: int, L: int) -> tuple:
    """The phi-independent data of _euler_pieces, one row per factored term.

    Row (k, -t_k/4, s, h, finite, psi0, 1/s!, series): m = q_k + 1 - 2N,
    s = |m|, h = max(m, 0), finite = q!/(2N-1)! (q+1)_j (s-j-1)!/j! for
    j < s (empty when m = 1), psi0 = -psi(1) - psi(s+1) + psi(2N+h) =
    gamma - H_s + H_{2N+h-1}, the integer digammas of the log series at
    j = 0, and 1/s! its first term.  series holds the log series'
    phi-independent factors from _log_series_step, grown by _euler_pieces
    to the longest series summed so far.
    """
    rows = []
    for k, tk in enumerate(_series_term_ratios(N, L)):
        q = 2 * k + 2
        m = q + 1 - 2 * N
        s, h = abs(m), max(m, 0)
        finite = tuple(
            math.factorial(q + j) * math.factorial(s - j - 1)
            / (math.factorial(2 * N - 1) * math.factorial(j))
            for j in range(s if m < 0 else 0)
        )
        psi0 = EULER_GAMMA - _harmonic(s) + _harmonic(2 * N + h - 1)
        rows.append((k, -0.25 * tk, s, h, finite, psi0, 1.0 / math.factorial(s), []))
    return tuple(rows)


def _log_series_step(a: int, s: int, j: int) -> tuple[float, float]:
    """(a+j)/((j+1)(j+s+1)) and 1/(a+j) - 1/(j+1) - 1/(j+s+1): the parts of step j
    of a log series S_k (_euler_pieces) that do not depend on phi."""
    return (a + j) / ((j + 1) * (j + s + 1)), 1.0 / (a + j) - 1.0 / (j + 1) - 1.0 / (j + s + 1)


def _ln_cosh2(phi: float) -> float:
    """ln cosh^2(phi/2), overflow-safe for any phi."""
    return phi - 2.0 * math.log(2.0) + 2.0 * math.log1p(math.exp(-phi))


def _euler_pieces(N: int, L: int, phi: float, nu) -> list:
    """The Gauss pieces of the inner tau integral at nu, by Euler's integral.

    The u-form's polynomial is pi(u) = sum_k A_k u^{p_k} (1-u)^{q_k}
    with p_k = N-1-k and q_k = 2k+2, k < N-L (oracles._closed_terms).
    Integrating by parts (Q(u = 1) = 0 since every q_k >= 2) and
    applying Euler's integral (DLMF 15.6.1), continued analytically in
    nu so that the residue poles are subtracted, gives

        I = sum_n n R_n/(n - nu)
            - nu sum_k A_k B(b, q_k+1) 2F1(2N, b; b+q_k+1; t^2),  b = p_k - nu.

    c - a - b = m = q_k + 1 - 2N is an odd integer <= 1, so each 2F1 is
    expanded around z = 1 in w = 1 - t^2 = sech^2(phi/2) <= 0.2 by the
    degenerate formula (DLMF 15.8.10, after Euler's transformation when
    m < 0).  Gamma(b) of the beta function cancels there.  With
    A_k = base_k w^-m, base_k = -t_k t^{2k} w^3/4, s = |m|,
    h = max(m, 0), a = 2N + h and

        S_k = sum_j (a)_j (b+h)_j/(j! (j+s)!) w^j
              [ln w - psi(j+1) - psi(j+s+1) + psi(a+j) + psi(b+h+j)],

    the Gauss terms are

        m < 0:  A_k B F = base_k [sum_{j<s} f_j (b-s)_j (-w)^j - (b-s)_s (-w)^s S_k],
        m = 1:  A_k B F = A_k/b + 2N base_k S_k,  and -nu A_k/b = A_k,

    f_j from _euler_rows.  What is left are Pochhammer polynomials in b,
    one finite sum and one log series in w per term; every psi(b+h+j)
    follows from one digamma by recurrence, and w = 4 e^-phi/(1+e^-phi)^2
    is formed directly, never as 1 - t^2.  The pieces returned are
    these Gauss terms only, two per k; PhiKernel.tau_integral adds the
    residue terms n R_n/(n - nu).  All of it is analytic in nu, which may be
    complex: the eps oracle passes nu + i eps, where the Gauss terms
    alone are its damped integral (oracles._inner_t_integral_spectral).
    """
    e = math.exp(-phi)
    w = 4.0 * e / (1.0 + e) ** 2
    ln_w = -_ln_cosh2(phi)
    t2 = math.tanh(phi / 2.0) ** 2
    pieces = []
    # psi(1 - nu + i), i < N, by recurrence from the first positive argument
    first = int(nu.real)
    psi = [0.0] * N
    psi[first] = digamma(1.0 - nu + first)
    for i in range(first + 1, N):
        psi[i] = psi[i - 1] + 1.0 / (i - nu)
    for i in range(first - 1, -1, -1):
        psi[i] = psi[i + 1] - 1.0 / (i + 1 - nu)
    for k, amp, s, h, finite, psi0, term, series in _euler_rows(N, L):
        p = N - 1 - k
        bh = p - nu + h
        amp *= t2**k
        # the log series S_k, its bracket g updated by the digamma recurrences
        g, total, j = ln_w + psi0 + psi[p + h - 1], 0.0, 0
        while True:
            value = term * g
            total += value
            try:
                head, step = series[j]
            except IndexError:
                series.append(_log_series_step(2 * N + h, s, j))
                head, step = series[j]
            x = bh + j
            ratio = head * x * w
            r = abs(ratio)
            if r < 1.0 and abs(value * ratio) <= 1.0e-17 * (1.0 - r) * abs(total):
                break
            g += step + 1.0 / x
            term *= ratio
            j += 1
        base = amp * w**3
        if h:
            pieces += (amp * w * w, -2 * N * nu * base * total)
            continue
        fin, poch = 0.0, 1.0  # poch ends as (b-s)_s (-w)^s
        for j, f in enumerate(finite):
            fin += f * poch
            poch *= (p - nu - s + j) * -w
        pieces += (-nu * base * fin, nu * base * poch * total)
    return pieces


class PhiKernel:
    """Kernel data at fixed (N, L, phi): series coefficients and closed branch."""

    def __init__(self, N: int, L: int, phi: float):
        validate_quantum_numbers(N, L)
        if phi < 0.0:
            raise ValueError(f"phi must be nonnegative, got {phi}")
        self.N = N
        self.L = L
        self.phi = phi
        self.nu = N * math.exp(-phi)
        self._point = point = _jacobi_point(L, phi)
        self.t2 = point[1]
        # |D_{N,j}|^2 for j = -1 .. N, formed once: the residues
        # R_0 .. R_{N-1} (zero below L) and the stream's first edge
        row = _row_weights(N, L, point, -1, N + 1)
        self.residues = tuple(map(_q, row, row[1:], row[2:]))
        self._edge = row[-2:]

    def _coeff_chunks(self):
        """The tail q_j, j >= N, as (j, q_j) in chunks of 96 doubling to 4096, j the indices as floats.

        Each |D_{N,j}|^2 is formed once.  A chunk extends the weights by
        _tail_weights from the gain of the last one and carries only its
        last two weights into the next chunk, so a chunk costs the same
        whatever came before it, and every q_j equals its value from one
        _tail_weights call over the whole range bit for bit.  The consumer
        decides when to stop.
        """
        N, L, point = self.N, self.L, self._point
        edge = np.array(self._edge)
        gain, j0, chunk = point[2], N, 96
        while True:
            j1 = j0 + chunk
            tail, gain = _tail_weights(N, L, point, j0 + 1, j1 + 1, gain)
            weights = np.concatenate((edge, tail))
            yield _tail_table(N, L, j0 + 1, j1 + 1)[0], _q(weights[:-2], weights[1:-1], weights[2:])
            edge = weights[-2:]
            j0 = j1
            chunk = min(2 * chunk, 4096)

    def _use_series(self) -> bool:
        return self.t2 <= SERIES_T2_MAX

    def _series_sum(self, factor, rel_tol: float = 1.0e-13, abs_tol: float = 1.0e-300) -> float:
        """sum_{j >= N} q_j * factor(j) for positive decreasing-enough factors."""
        total = 0.0
        for j, q in self._coeff_chunks():
            terms = q * factor(j)
            total += float(terms.sum())
            tail = np.abs(terms[-8:]).max()
            j1 = int(j[-1]) + 1
            ratio = min(0.999, self.t2 * (1.0 + 2.0 * self.N / j1))
            bound = tail * ratio / (1.0 - ratio)
            if bound <= max(rel_tol * abs(total), abs_tol):
                return total
            if j1 > 2_000_000:
                raise RuntimeError(f"kernel series did not converge at phi={self.phi}")

    def tau_integral(self):
        """int_0^inf e^{nu tau} dQ~/dtau dtau, the inner integral of the shift.

        Returns (value, error_bound, evaluations, converged), with no
        evaluations of an integrand on either branch.  In the series regime
        the integral is the exact sum -sum_j j q_j/(j - nu), summed until the
        tail bound meets max(1e-13 |value|, 1e-15), which is the bound
        returned; otherwise it is the closed form, the residue terms
        n R_n/(n - nu) plus the Gauss pieces of _euler_pieces, whose error
        bound is the roundoff 1e-15 sum |pieces|.
        """
        nu = self.nu
        if nu >= self.N:  # phi = 0: the j = N denominator vanishes
            raise ValueError("the weighted tau integral diverges at phi = 0")
        if self._use_series():
            rel_tol, abs_tol = 1.0e-13, 1.0e-15
            value = -self._series_sum(lambda j: j / (j - nu), rel_tol, abs_tol)
            return value, max(rel_tol * abs(value), abs_tol), 0, True
        res = self.residues
        pieces = [n * res[n] / (n - nu) for n in range(max(self.L, 1), self.N)]
        pieces += _euler_pieces(self.N, self.L, self.phi, nu)
        return math.fsum(pieces), 1.0e-15 * math.fsum(map(abs, pieces)), 0, True
