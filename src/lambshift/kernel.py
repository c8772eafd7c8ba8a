"""Effective-time kernel, residue coefficients, and the rotated-contour remainder.

On the rotated contour T = -i tau the kernel is, in the variable u = e^{-tau},

    Q(-i tau, phi) = pi(u) * (1 - u t^2)^{-2N},      t = tanh(phi/2),

where pi is a polynomial of degree 2N - L with coefficients computable in
closed form from the terminating Gauss series.  Expanding the geometric
factor turns Q into its exponential series sum_j q_j u^j: the coefficients
with j < N are the residue coefficients R_j, and the j >= N tail is the
remainder Q~.  The R_j always come from SU(1,1) matrix elements
(residue_coeffs): the expanded polynomial convolution loses digits to
cancellation as N grows, so it supplies only the tail.  Summing the tail
q_j directly removes the catastrophic cancellation that subtracting the
finite series from the closed form would cause at small phi, where the
integrand weight e^{nu tau} grows almost as fast as the kernel decays.  At
large phi the series converges too slowly (ratio t^2 -> 1) and the closed
u-form takes over; there the growth of e^{nu tau} is harmless because
nu = N e^{-phi} is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .quadrature import QuadratureSpec, integrate_semi_infinite
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


def residue_coeffs(N: int, L: int, phi: float) -> ResidueTable:
    """Residue coefficients from squared dilation matrix elements.

    R_n = |D_{N,n}|^2/2 - |D_{N,n+1}|^2/4 - |D_{N,n-1}|^2/4 with D the
    discrete-series matrix of the dilation element; indices outside the
    tower contribute zero.  Pole locations ln(N/n) exist only for n >= 1.
    """
    validate_quantum_numbers(N, L)
    label = RepLabel(L + 1)
    u = scaling_coords(phi)
    dsq = {n: abs(rep_matrix_element(label, N, n, u)) ** 2 for n in range(L + 1, N + 1)}

    entries = []
    for n in range(L, N):
        value = 0.5 * dsq.get(n, 0.0) - 0.25 * dsq.get(n + 1, 0.0) - 0.25 * dsq.get(n - 1, 0.0)
        pole = math.log(N / n) if n >= 1 else None
        entries.append(ResidueEntry(n=n, value=value, pole_phi=pole))
    return ResidueTable(N=N, L=L, phi=phi, entries=tuple(entries))


@lru_cache(maxsize=None)
def _series_term_ratios(N: int, L: int) -> tuple[float, ...]:
    """Terminating-series coefficients t_k of 2F1(L+1-N, -L-N; 1; z)."""
    a, b = L + 1 - N, -L - N
    ratios = [1.0]
    for k in range(N - L - 1):
        ratios.append(ratios[-1] * (a + k) * (b + k) / ((k + 1) * (k + 1)))
    return tuple(ratios)


class PhiKernel:
    """Kernel data at fixed (N, L, phi): polynomial, series tail, closed branch."""

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
        self._poly = self._build_poly()
        self._nb = np.ones(1)  # coefficients of the (1 - u t^2)^{-2N} expansion

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

    def _build_poly(self) -> np.ndarray:
        N, L = self.N, self.L
        coeffs = np.zeros(2 * N - L + 1)
        for amp, base, power in self._terms:
            coeffs[base : base + power + 1] += amp * _signed_binomial(power)
        return coeffs

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

    def _nb_upto(self, m: int) -> np.ndarray:
        """Binomial-series coefficients C(2N-1+m, m) t^{2m}, cached."""
        if m >= self._nb.size:
            i = np.arange(self._nb.size, m + 1)
            ratios = self.t2 * (2 * self.N - 1 + i) / i
            self._nb = np.concatenate((self._nb, self._nb[-1] * np.cumprod(ratios)))
        return self._nb

    def _coeff_range(self, j0: int, j1: int) -> np.ndarray:
        """Exponential-series coefficients q_j for j0 <= j < j1."""
        poly = self._poly
        nb = self._nb_upto(j1 - 1)
        out = np.zeros(j1 - j0)
        for i, c in enumerate(poly):
            if c == 0.0:
                continue
            lo, hi = j0 - i, j1 - i
            if hi <= 0:
                continue
            seg = nb[max(lo, 0) : hi]
            out[j1 - j0 - seg.size :] += c * seg
        return out

    @cached_property
    def residues(self) -> tuple[float, ...]:
        """R_0 .. R_{N-1} (zero below L), needed only by the closed branch."""
        table = residue_coeffs(self.N, self.L, self.phi)
        return (0.0,) * self.L + tuple(e.value for e in table.entries)

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


def _signed_binomial(n: int) -> np.ndarray:
    """Coefficients of (1 - u)^n in ascending powers of u."""
    row = np.zeros(n + 1)
    c = 1.0
    for j in range(n + 1):
        row[j] = c if j % 2 == 0 else -c
        c = c * (n - j) / (j + 1)
    return row


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
