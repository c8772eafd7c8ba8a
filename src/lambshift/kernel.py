"""Residue coefficients, the rotated-contour remainder and its inner tau integral.

The kernel is Q(T, phi) = sin^2(T/2) sum_n |D_{N,n}(phi)|^2 e^{-i n T}, D
the dilation matrix of the discrete series.  On the rotated contour T = -i
tau it is the exponential series sum_j q_j u^j in u = e^{-tau}, with
q_j = |D_{N,j}|^2/2 - |D_{N,j+1}|^2/4 - |D_{N,j-1}|^2/4 for every j, every
|D|^2 from one Jacobi closed form (dilation_weights; su11.rep_matrix_element
is only an independent reference).  The q_j with j < N are the residues R_j
and the j >= N tail is the remainder Q~.  Summing the tail directly removes
the catastrophic cancellation that subtracting the finite series from the
closed form would cause at small phi, where the integrand weight e^{nu tau}
grows almost as fast as the kernel decays.  At large phi the series
converges too slowly (ratio t^2 -> 1, t = tanh(phi/2)) and the closed u-form
Q = pi(u) (1 - u t^2)^{-2N}, pi a polynomial of degree 2N - L, takes over.
There the inner integral int e^{nu tau} dQ~/dtau dtau is not integrated
numerically: Euler's integral turns it into one Gauss function per
factored term of pi, each summed in closed form around t^2 = 1
(PhiKernel.tau_integral).  The real-time kernel Q(T, phi) is a cross-check
only (oracles.kernel_q), and so is the adaptive quadrature of the inner
integral (oracles.tau_integral_by_quadrature).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .quadrature import QuadratureSpec
from .specfun import _jacobi_recurrence, digamma

# Unused here; kept bound because perfbench/tracing.py wraps
# kernel.integrate_semi_infinite and kernel.rep_matrix_element.
from .quadrature import integrate_semi_infinite  # noqa: F401
from .su11 import rep_matrix_element  # noqa: F401

# Switch from the exponential series to the closed u-form once the series
# ratio tanh^2(phi/2) exceeds this (phi ~ 2.89).
SERIES_T2_MAX = 0.80
EULER_GAMMA = 0.57721566490153286061


def validate_quantum_numbers(N: int, L: int) -> None:
    if N != int(N) or L != int(L) or N < 1 or L < 0 or L > N - 1:
        raise ValueError(f"invalid quantum numbers N={N!r}, L={L!r} (need 0 <= L <= N-1)")


def _jacobi_point(L: int, phi: float) -> tuple[float, float, float]:
    """(w, t^2, G_N) of the Jacobi form: w = 1 - 2t^2, G_N = cosh^{-4(L+1)}(phi/2)."""
    sech2 = math.cosh(phi / 2.0) ** -2
    return 2.0 * sech2 - 1.0, math.tanh(phi / 2.0) ** 2, sech2 ** (2 * (L + 1))


def _weight_upto_row(N: int, L: int, j: int, point) -> float:
    """|D_{N,j}|^2 for j <= N (zero for j <= L), point from _jacobi_point."""
    if j <= L:
        return 0.0
    w, t2, gain = point
    return (
        math.comb(N + L, 2 * L + 1) / math.comb(j + L, 2 * L + 1) * t2 ** (N - j) * gain
        * _jacobi_recurrence(j - L - 1, N - j, 2.0 * L + 1.0, w) ** 2
    )


def dilation_weights(N: int, L: int, phi: float, j1: int, head=None):
    """Squared dilation matrix elements |D_{N,j}(phi)|^2 for -1 <= j < j1.

    Returns (weights, gain), weights[i] for j = i - 1 (zero for j <= L), at
    least up to j = N.  Bargmann's closed form makes each a Jacobi polynomial
    at a point in [-1, 1], symmetric in N and j, free of alternating sums;
    with l = min(N, j), h = max(N, j) and t = tanh(phi/2),

        |D_{N,j}|^2 = G_j P_{l-L-1}^{(h-l, 2L+1)}(1 - 2t^2)^2,
        G_j = C(h+L, 2L+1)/C(l+L, 2L+1) t^{2(h-l)} cosh^{-4(L+1)}(phi/2),

    and gain is G at the last j.  Passing a result for the same N, L and
    phi as head extends it beyond j = N with one cumulative product of
    G_j/G_{j-1}, so no value depends on how the range was split.
    """
    point = _jacobi_point(L, phi)
    w, t2, gain_n = point
    if head is None:
        head = (np.array([_weight_upto_row(N, L, j, point) for j in range(-1, N + 1)]), gain_n)
    weights, gain = head
    if j1 <= weights.size - 1:
        return head
    j = np.arange(weights.size - 1, j1, dtype=float)
    gains = np.cumprod(np.concatenate(([gain], t2 * (j + L) / (j - L - 1))))
    tail = gains[1:] * _jacobi_recurrence(N - L - 1, j - N, 2.0 * L + 1.0, w) ** 2
    return np.concatenate((weights, tail)), float(gains[-1])


def _series_coeffs(weights: np.ndarray) -> np.ndarray:
    """q_j = |D_j|^2/2 - |D_{j+1}|^2/4 - |D_{j-1}|^2/4 at the interior of weights."""
    return 0.5 * weights[1:-1] - 0.25 * weights[2:] - 0.25 * weights[:-2]


def residue_coeffs(N: int, L: int, phi: float, n: int) -> float:
    """Residue R_n = q_n of e^{-n tau} in the kernel series, L <= n <= N-1.

    Only the three weights j = n-1, n, n+1 are computed; the value equals
    PhiKernel(N, L, phi).residues[n] bit for bit.
    """
    validate_quantum_numbers(N, L)
    if n != int(n) or not L <= n < N:
        raise ValueError(f"residue index n={n!r} outside [L, N-1] = [{L}, {N - 1}]")
    point = _jacobi_point(L, phi)
    weights = np.array([_weight_upto_row(N, L, j, point) for j in (n - 1, n, n + 1)])
    return float(_series_coeffs(weights)[0])


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
    """The phi-independent data of PhiKernel._euler_pieces, one row per factored term.

    Row (k, t_k, s, h, finite, psi0): m = q_k + 1 - 2N, s = |m|,
    h = max(m, 0), finite = q!/(2N-1)! (q+1)_j (s-j-1)!/j! for j < s (empty
    when m = 1) and psi0 = -psi(1) - psi(s+1) + psi(2N+h) = gamma - H_s +
    H_{2N+h-1}, the integer digammas of the log series at j = 0.
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
        rows.append((k, tk, s, h, finite, EULER_GAMMA - _harmonic(s) + _harmonic(2 * N + h - 1)))
    return tuple(rows)


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
        self.t2 = math.tanh(phi / 2.0) ** 2
        # log of cosh^2(phi/2) and sinh^2(phi/2), overflow-safe for any phi
        self._ln_ch2 = phi - 2.0 * math.log(2.0) + 2.0 * math.log1p(math.exp(-phi))
        self._ln_sh2 = (
            phi - 2.0 * math.log(2.0) + 2.0 * math.log1p(-math.exp(-phi))
            if phi > 0.0
            else -math.inf
        )
        self._weights = None  # dilation_weights, extended on demand

    @cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The polynomial as factored terms A_k u^{p_k} (1-u)^{q_k}: arrays (A, p, q).

        p_k = N-1-k and q_k = 2k+2 for k = 0 .. N-L-1, so p runs over the
        residue indices N-1 .. L.  Evaluating these products directly (never
        expanding in powers of u) keeps pi(u) and pi'(u) relatively accurate
        near u = 1, where the expanded coefficients would cancel to roundoff
        and the geometric factor (1 - u t^2)^{-2N} amplifies the noise at
        large phi.
        """
        N, L = self.N, self.L
        ln_shch2 = self._ln_sh2 + self._ln_ch2
        amps = []
        for k, tk in enumerate(_series_term_ratios(N, L)):
            ln_amp = (k * ln_shch2 if k else 0.0) - 2 * N * self._ln_ch2
            amps.append(0.0 if ln_amp == -math.inf else -0.25 * tk * math.exp(ln_amp))
        k = np.arange(N - L, dtype=float)
        return np.array(amps), N - 1.0 - k, 2.0 * k + 2.0

    def _closed_terms(self, tau):
        """(u, 1 - u, g, u^p, u^p (1-u)^{q-1}) at tau of any shape, g = 1 - u t^2.

        1 - u is exact (expm1), and g is summed as sech^2(phi/2) + t^2 (1 - u),
        free of the cancellation near u = 1 at large phi that g^{-2N} would
        amplify.  Every array has a trailing axis, of length one for u, 1 - u
        and g and running over the factored terms otherwise.
        """
        _, p, q = self._terms
        mt = -np.asarray(tau, dtype=float)[..., None]
        u = np.exp(mt)
        omu = -np.expm1(mt)
        up = u**p
        return u, omu, math.exp(-self._ln_ch2) + self.t2 * omu, up, up * omu ** (q - 1.0)

    @cached_property
    def _term_residues(self) -> tuple[np.ndarray, np.ndarray]:
        """(R_p, p R_p) at the terms' exponents p, so residue sums reuse u^p."""
        p = self._terms[1]
        res = np.array(self.residues)[p.astype(int)]
        return res, p * res

    def _coeff_range(self, j0: int, j1: int) -> np.ndarray:
        """Exponential-series coefficients q_j for j0 <= j < j1."""
        self._weights = dilation_weights(self.N, self.L, self.phi, j1 + 1, self._weights)
        return _series_coeffs(self._weights[0][j0 : j1 + 2])

    @cached_property
    def residues(self) -> tuple[float, ...]:
        """R_0 .. R_{N-1} (zero below L), needed only by the closed branch."""
        return tuple(self._coeff_range(0, self.N).tolist())

    def q_imag_time(self, tau):
        """Full kernel Q(-i tau, phi) via the closed u-form, tau a float or an array."""
        _, omu, g, _, base = self._closed_terms(tau)
        return np.add.reduce(self._terms[0] * base * (omu * g ** (-2 * self.N)), axis=-1)

    def _closed_remainder(self, tau):
        up = self._closed_terms(tau)[3]
        return self.q_imag_time(tau) - np.add.reduce(self._term_residues[0] * up, axis=-1)

    def _closed_remainder_dtau(self, tau):
        """dQ~/dtau = sum_n n R_n u^n - u dQ/du on the closed branch, tau a float or an array.

        With Q = pi(u) g^{-2N} and a_k = A_k u^p (1-u)^{q-1} per factored
        term, pi = sum a_k (1-u) and u pi' = sum a_k (p (1-u) - q u), so

            u dQ/du = g^{-2N} sum_k a_k [p (1-u) - q u + 2N t^2 u (1-u)/g],

        no power of u is negative, and since p runs over the residue
        indices the whole derivative is one sum over the terms.
        """
        amp, p, q = self._terms
        u, omu, g, up, base = self._closed_terms(tau)
        inner = p * omu - q * u + (2 * self.N * self.t2) * u * omu / g
        terms = self._term_residues[1] * up - g ** (-2 * self.N) * amp * base * inner
        return np.add.reduce(terms, axis=-1)

    def _use_series(self) -> bool:
        return self.t2 <= SERIES_T2_MAX

    def _series_sum(self, factor, rel_tol: float = 1.0e-13, abs_tol: float = 1.0e-300) -> float:
        """sum_{j >= N} q_j * factor(j) for positive decreasing-enough factors."""
        total = 0.0
        j0 = self.N
        chunk = 96
        while True:
            j1 = j0 + chunk
            q = self._coeff_range(j0, j1)
            terms = q * factor(np.arange(j0, j1))
            total += float(terms.sum())
            tail = np.abs(terms[-8:]).max()
            ratio = min(0.999, self.t2 * (1.0 + 2.0 * self.N / j1))
            bound = tail * ratio / (1.0 - ratio)
            if bound <= max(rel_tol * abs(total), abs_tol):
                return total
            j0 = j1
            chunk = min(2 * chunk, 4096)
            if j0 > 2_000_000:
                raise RuntimeError(f"kernel series did not converge at phi={self.phi}")

    # The closed branch is evaluated on a one-element array, not a numpy
    # scalar (whose powers take another code path), so each value equals the
    # one tau_integral computes in a batch of nodes bit for bit.
    def remainder(self, tau: float) -> float:
        if tau < 0.0:
            raise ValueError(f"tau must be nonnegative, got {tau}")
        if self._use_series():
            u = math.exp(-tau)
            return self._series_sum(lambda j: u**j.astype(float), abs_tol=1.0e-320)
        return float(self._closed_remainder(np.array([tau]))[0])

    def remainder_dtau(self, tau: float) -> float:
        if tau < 0.0:
            raise ValueError(f"tau must be nonnegative, got {tau}")
        if self._use_series():
            u = math.exp(-tau)
            return -self._series_sum(lambda j: j * u**j.astype(float), abs_tol=1.0e-320)
        return float(self._closed_remainder_dtau(np.array([tau]))[0])

    def _euler_pieces(self) -> list[float]:
        """The terms whose sum is the inner tau integral, by Euler's integral.

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
        is formed directly, never as 1 - t^2.
        """
        N, L, nu = self.N, self.L, self.nu
        e = math.exp(-self.phi)
        w = 4.0 * e / (1.0 + e) ** 2
        ln_w = -self._ln_ch2
        res = self.residues
        pieces = [n * res[n] / (n - nu) for n in range(max(L, 1), N)]
        # psi(1 - nu + i), i < N, by recurrence from the first positive argument
        first = int(nu)
        psi = [0.0] * N
        psi[first] = digamma(1.0 - nu + first)
        for i in range(first + 1, N):
            psi[i] = psi[i - 1] + 1.0 / (i - nu)
        for i in range(first - 1, -1, -1):
            psi[i] = psi[i + 1] - 1.0 / (i + 1 - nu)
        for k, tk, s, h, finite, psi0 in _euler_rows(N, L):
            p = N - 1 - k
            a, bh = 2 * N + h, p - nu + h
            amp = -0.25 * tk * self.t2**k
            # the log series S_k, its bracket g updated by the digamma recurrences
            term, g, total, j = 1.0 / math.factorial(s), ln_w + psi0 + psi[p + h - 1], 0.0, 0
            while True:
                value = term * g
                total += value
                ratio = (a + j) * (bh + j) * w / ((j + 1) * (j + s + 1))
                if abs(ratio) < 1.0 and abs(value * ratio) <= 1.0e-17 * (1.0 - abs(ratio)) * abs(total):
                    break
                g += 1.0 / (a + j) + 1.0 / (bh + j) - 1.0 / (j + 1) - 1.0 / (j + s + 1)
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

    def tau_integral(self, spec: QuadratureSpec | None = None):
        """int_0^inf e^{nu tau} dQ~/dtau dtau, the inner integral of the shift.

        Returns (value, error_bound, evaluations, converged), with no
        evaluations of an integrand on either branch.  In the series regime
        the integral is the exact sum -sum_j j q_j/(j - nu) to spec's
        tolerances; otherwise it is the closed form of _euler_pieces, whose
        error bound is the roundoff 1e-15 sum |pieces|.
        """
        spec = spec or QuadratureSpec(rel_tol=1.0e-10, abs_tol=1.0e-15)
        nu = self.nu
        if nu >= self.N:  # phi = 0: the j = N denominator vanishes
            raise ValueError("the weighted tau integral diverges at phi = 0")
        if self._use_series():
            value = -self._series_sum(
                lambda j: j / (j - nu), rel_tol=min(1.0e-13, spec.rel_tol), abs_tol=spec.abs_tol
            )
            return value, spec.rel_tol * abs(value) + spec.abs_tol, 0, True
        pieces = self._euler_pieces()
        return math.fsum(pieces), 1.0e-15 * math.fsum(map(abs, pieces)), 0, True
