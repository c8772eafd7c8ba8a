"""Effective-time kernel, residue coefficients, and the rotated-contour remainder.

The kernel is Q(T, phi) = sin^2(T/2) sum_n |D_{N,n}(phi)|^2 e^{-i n T}, D
the dilation matrix of the discrete series.  On the rotated contour T = -i
tau it is the exponential series sum_j q_j u^j in u = e^{-tau}, with
q_j = |D_{N,j}|^2/2 - |D_{N,j+1}|^2/4 - |D_{N,j-1}|^2/4 for every j, all
from dilation_weights: the q_j with j < N are the residue coefficients R_j,
and the j >= N tail is the remainder Q~.  Summing the tail directly removes the catastrophic
cancellation that subtracting the finite series from the closed form would
cause at small phi, where the integrand weight e^{nu tau} grows almost as
fast as the kernel decays.  At large phi the series converges too slowly
(ratio t^2 -> 1, t = tanh(phi/2)) and the closed u-form
Q = pi(u) (1 - u t^2)^{-2N}, pi a polynomial of degree 2N - L, takes over;
there the growth of e^{nu tau} is harmless because nu = N e^{-phi} is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .quadrature import QuadratureSpec, integrate_semi_infinite
from .specfun import _jacobi_recurrence
from .su11 import RepLabel, rep_matrix_element, scaling_coords

# Switch from the exponential series to the closed u-form once the series
# ratio tanh^2(phi/2) exceeds this (phi ~ 2.94); the series is kept longer
# when nu is large enough for the closed form's roundoff to be amplified.
SERIES_T2_MAX = 0.80
SERIES_NU_MIN = 0.5


def validate_quantum_numbers(N: int, L: int) -> None:
    if N != int(N) or L != int(L) or N < 1 or L < 0 or L > N - 1:
        raise ValueError(f"invalid quantum numbers N={N!r}, L={L!r} (need 0 <= L <= N-1)")


@dataclass(frozen=True)
class ResidueEntry:
    n: int
    value: float
    pole_phi: float | None  # ln(N/n); absent for the n = 0 edge


@dataclass(frozen=True)
class ResidueTable:
    """Coefficients R_n of e^{-n tau} in the kernel series, L <= n <= N-1."""

    N: int
    L: int
    phi: float
    entries: tuple[ResidueEntry, ...]

    def value(self, n: int) -> float:
        for e in self.entries:
            if e.n == n:
                return e.value
        return 0.0

    def pole_entries(self) -> tuple[ResidueEntry, ...]:
        return tuple(e for e in self.entries if e.pole_phi is not None)

    def total(self) -> float:
        return math.fsum(e.value for e in self.entries)


def dilation_weights(N: int, L: int, phi: float, j0: int, j1: int, head=None):
    """Squared dilation matrix elements |D_{N,j}(phi)|^2 for j0 <= j < j1.

    Returns (weights, gain), weights[i] for j = j0 + i (zero for j <= L).
    Up to j = N they are rep_matrix_element.  Beyond, a Pfaff transform
    turns the row-N series into a Jacobi polynomial of fixed degree N-L-1
    at a point inside [-1, 1], with no alternating sum:

        |D_{N,j}|^2 = G_j P_{N-L-1}^{(j-N, 2L+1)}(1 - 2t^2)^2,  t = tanh(phi/2),
        G_j = C(j+L, 2L+1)/C(N+L, 2L+1) t^{2(j-N)} cosh^{-4(L+1)}(phi/2),

    and gain is G at the last j.  Passing a result for the same N, L, phi
    and j0 as head extends it with one cumulative product, so no value
    depends on how the range was split.
    """
    if head is None:
        label, u = RepLabel(L + 1), scaling_coords(phi)
        low = [abs(rep_matrix_element(label, N, j, u)) ** 2 for j in range(max(j0, L + 1), N + 1)]
        head = (np.array([0.0] * (L + 1 - j0) + low), None)
    weights, gain = head
    if j1 <= j0 + weights.size:
        return head
    j = np.arange(j0 + weights.size, j1, dtype=float)
    t2 = math.tanh(phi / 2.0) ** 2
    sech2 = math.cosh(phi / 2.0) ** -2
    if gain is None:
        gain = sech2 ** (2 * (L + 1))  # G_N
    gains = np.cumprod(np.concatenate(([gain], t2 * (j + L) / (j - L - 1))))
    tail = gains[1:]
    if N - L - 1:
        tail = tail * _jacobi_recurrence(N - L - 1, j - N, 2.0 * L + 1.0, 2.0 * sech2 - 1.0) ** 2
    return np.concatenate((weights, tail)), float(gains[-1])


def _series_coeffs(weights: np.ndarray) -> np.ndarray:
    """q_j = |D_j|^2/2 - |D_{j+1}|^2/4 - |D_{j-1}|^2/4 at the interior of weights."""
    return 0.5 * weights[1:-1] - 0.25 * weights[2:] - 0.25 * weights[:-2]


def residue_coeffs(N: int, L: int, phi: float) -> ResidueTable:
    """Residue coefficients R_n = q_n, L <= n <= N-1, from dilation_weights.

    Pole locations ln(N/n) exist only for n >= 1.
    """
    validate_quantum_numbers(N, L)
    q = _series_coeffs(dilation_weights(N, L, phi, -1, N + 1)[0]).tolist()
    entries = tuple(
        ResidueEntry(n=n, value=q[n], pole_phi=math.log(N / n) if n >= 1 else None)
        for n in range(L, N)
    )
    return ResidueTable(N=N, L=L, phi=phi, entries=entries)


@lru_cache(maxsize=None)
def _series_term_ratios(N: int, L: int) -> tuple[float, ...]:
    """Terminating-series coefficients t_k of 2F1(L+1-N, -L-N; 1; z)."""
    a, b = L + 1 - N, -L - N
    ratios = [1.0]
    for k in range(N - L - 1):
        ratios.append(ratios[-1] * (a + k) * (b + k) / ((k + 1) * (k + 1)))
    return tuple(ratios)


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
        self._terms = self._build_terms()
        self._weights = {}  # dilation_weights from j = -1 (every q_j), j = N - 1 (tail)

    def _build_terms(self) -> tuple[tuple[float, int, int], ...]:
        """The polynomial as factored terms A_k u^{N-1-k} (1-u)^{2k+2}.

        Evaluating these products directly (never expanding in powers of u)
        keeps pi(u) and pi'(u) relatively accurate near u = 1, where the
        expanded coefficients would cancel to roundoff and the geometric
        factor (1 - u t^2)^{-2N} amplifies the noise at large phi.
        """
        N, L = self.N, self.L
        ln_shch2 = self._ln_sh2 + self._ln_ch2
        terms = []
        for k, tk in enumerate(_series_term_ratios(N, L)):
            ln_amp = (k * ln_shch2 if k else 0.0) - 2 * N * self._ln_ch2
            amp = 0.0 if ln_amp == -math.inf else -0.25 * tk * math.exp(ln_amp)
            terms.append((amp, N - 1 - k, 2 * k + 2))
        return tuple(terms)

    def _pi(self, u: float, omu: float) -> float:
        """pi(u) with omu = 1 - u supplied exactly."""
        return math.fsum(amp * u**p * omu**q for amp, p, q in self._terms)

    def _pi_du(self, u: float, omu: float) -> float:
        total = 0.0
        for amp, p, q in self._terms:
            term = -q * u**p * omu ** (q - 1)
            if p:
                term += p * u ** (p - 1) * omu**q
            total += amp * term
        return total

    def _coeff_range(self, j0: int, j1: int) -> np.ndarray:
        """Exponential-series coefficients q_j for j0 <= j < j1."""
        start = -1 if j0 < self.N else self.N - 1
        head = dilation_weights(self.N, self.L, self.phi, start, j1 + 1, self._weights.get(start))
        self._weights[start] = head
        return _series_coeffs(head[0][j0 - 1 - start : j1 + 1 - start])

    @cached_property
    def residues(self) -> tuple[float, ...]:
        """R_0 .. R_{N-1} (zero below L), needed only by the closed branch."""
        return tuple(self._coeff_range(0, self.N).tolist())

    def q_imag_time(self, tau: float) -> float:
        """Full kernel Q(-i tau, phi) via the closed u-form."""
        u = math.exp(-tau)
        omu = -math.expm1(-tau)
        return self._pi(u, omu) * (1.0 - u * self.t2) ** (-2 * self.N)

    def _closed_remainder(self, tau: float) -> float:
        u = math.exp(-tau)
        value = self.q_imag_time(tau)
        for n in range(self.L, self.N):
            value -= self.residues[n] * u**n
        return value

    def _closed_remainder_dtau(self, tau: float) -> float:
        u = math.exp(-tau)
        omu = -math.expm1(-tau)
        geom = (1.0 - u * self.t2) ** (-2 * self.N)
        dq_du = self._pi_du(u, omu) * geom + (
            2 * self.N * self.t2 * self._pi(u, omu) * geom / (1.0 - u * self.t2)
        )
        value = -u * dq_du
        res = self.residues
        for n in range(self.L, self.N):
            value += n * res[n] * u**n
        return value

    def _use_series(self) -> bool:
        return self.t2 <= SERIES_T2_MAX or self.nu >= SERIES_NU_MIN

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

    def remainder(self, tau: float) -> float:
        if tau < 0.0:
            raise ValueError(f"tau must be nonnegative, got {tau}")
        if self._use_series():
            u = math.exp(-tau)
            return self._series_sum(lambda j: u**j.astype(float), abs_tol=1.0e-320)
        return self._closed_remainder(tau)

    def remainder_dtau(self, tau: float) -> float:
        if tau < 0.0:
            raise ValueError(f"tau must be nonnegative, got {tau}")
        if self._use_series():
            u = math.exp(-tau)
            return -self._series_sum(lambda j: j * u**j.astype(float), abs_tol=1.0e-320)
        return self._closed_remainder_dtau(tau)

    def tau_integral(self, spec: QuadratureSpec | None = None):
        """int_0^inf e^{nu tau} dQ~/dtau dtau, the inner integral of the shift.

        Returns (value, error_bound, evaluations, converged).  In the
        series regime the integral is the exact sum -sum_j j q_j/(j - nu);
        otherwise e^{nu tau} times the closed-branch dQ~/dtau is integrated
        adaptively.
        """
        spec = spec or QuadratureSpec(rel_tol=1.0e-10, abs_tol=1.0e-15, max_subdivisions=400)
        nu = self.nu
        if nu >= self.N:  # phi = 0: the j = N denominator vanishes
            raise ValueError("the weighted tau integral diverges at phi = 0")
        if self._use_series():
            value = -self._series_sum(
                lambda j: j / (j - nu), rel_tol=min(1.0e-13, spec.rel_tol), abs_tol=spec.abs_tol
            )
            return value, spec.rel_tol * abs(value) + spec.abs_tol, 0, True

        def integrand(tau: float) -> float:
            return math.exp(nu * tau) * self._closed_remainder_dtau(tau)

        result = integrate_semi_infinite(integrand, spec)
        return result.value, result.error_estimate, result.evaluations, result.converged


def kernel_q(N: int, L: int, T: float, phi: float) -> complex:
    """Real-time kernel Q(T, phi) = sin^2(T/2) f^{-2N} 2F1(L+1-N, -L-N; 1; z).

    Evaluated through the Jacobi-polynomial form with the phase split off:
    the polynomial argument (1+z)/(1-z) stays in (-1, 1] on the real axis,
    where the direct terminating series would alternate violently.
    """
    validate_quantum_numbers(N, L)
    if phi < 0.0:
        raise ValueError(f"phi must be nonnegative, got {phi}")
    from .specfun import jacobi_p

    half = T / 2.0
    s = math.sin(half)
    if s == 0.0 and T == 0.0:
        return 0.0 + 0.0j
    sinh_phi = math.sinh(phi)
    z = -(s * sinh_phi) ** 2
    one_minus_z = 1.0 - z
    w = (1.0 + z) / one_minus_z
    chi = math.atan2(s * math.cosh(phi), math.cos(half))
    poly = jacobi_p(N + L, 0, -1 - 2 * L, w)
    magnitude = s * s * one_minus_z**L * poly
    phase = complex(math.cos(2 * N * chi), -math.sin(2 * N * chi))
    return magnitude * phase


def kernel_remainder(N: int, L: int, tau: float, phi: float) -> float:
    """Rotated-contour remainder Q~(-i tau, phi), purely real."""
    return PhiKernel(N, L, phi).remainder(tau)


def kernel_remainder_dtau(N: int, L: int, tau: float, phi: float) -> float:
    """Analytic tau-derivative of the rotated-contour remainder."""
    return PhiKernel(N, L, phi).remainder_dtau(tau)
