"""Brute-force cross-check evaluators, kept off the primary result path.

Four independent routes back the closed forms used elsewhere: the kernel
as an explicit sum over the compact-generator eigenbasis, the disentangled
2x2 product behind the polar decomposition, the inner tau integral by
adaptive quadrature of the closed u-form, and the un-rotated real-axis
double integral at finite damping epsilon, whose real-time kernel Q(T, phi)
is written once (kernel_q).  Tolerances here are looser by construction;
the oscillatory epsilon route in particular only makes sense after
extrapolating the damping to zero.  Its inner time integral is exact at
every finite epsilon: one period of the 2 pi-periodic dQ/dT divided by
1 - e^{2 pi (i nu - eps)}, or the kernel's exponential series at large phi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, default_constants
from .kernel import PhiKernel, validate_quantum_numbers
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    integrate_semi_infinite,
    kronrod_nodes_weights,
)
from .shifts import QuantumState, neville_extrapolate, shift_prefactor, weight_nondipole
from .specfun import _jacobi_recurrence
from .su11 import BchCoordinates, RepLabel, rep_matrix_element, scaling_coords

# Defining-representation generators: j3 = sigma3/2, jpm = -sigma_pm/sqrt(2).
_J3 = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_JP = np.array([[0.0, -1.0 / math.sqrt(2.0)], [0.0, 0.0]], dtype=complex)
_JM = np.array([[0.0, 0.0], [-1.0 / math.sqrt(2.0), 0.0]], dtype=complex)


def bch_reconstruct_2x2(b: BchCoordinates) -> np.ndarray:
    """Product of the four disentangled factors in the defining representation."""
    t = math.tanh(b.rho)
    c = math.cosh(b.rho)
    phase = b.chi + b.psi
    raise_factor = _expm_nilpotent(-math.sqrt(2.0) * t * np.exp(1j * phase) * _JP)
    lower_factor = _expm_nilpotent(-math.sqrt(2.0) * t * np.exp(-1j * phase) * _JM)
    compact = np.diag([1.0 / c, c]).astype(complex)  # (1/cosh rho)^{2 j3}
    rotation = np.diag([np.exp(1j * b.chi), np.exp(-1j * b.chi)])
    return raise_factor @ compact @ lower_factor @ rotation


def _expm_nilpotent(m: np.ndarray) -> np.ndarray:
    return np.eye(2, dtype=complex) + m  # m^2 = 0 for pure ladder matrices


@dataclass
class SpectralKernelValue:
    value: complex
    last_term: float  # truncation monitor
    terms: int


def kernel_via_spectral_series(
    N: int,
    L: int,
    time: float,
    phi: float,
    n_max: int,
    imaginary_time: bool = False,
) -> SpectralKernelValue:
    """Kernel from the eigenbasis sum sin^2(T/2) sum_n |D_{N,n}|^2 e^{-i n T}.

    With imaginary_time=True the sum is evaluated at T = -i tau, where the
    prefactor becomes -sinh^2(tau/2) and every exponential is real.
    """
    validate_quantum_numbers(N, L)
    if n_max < N + 10:
        raise ValueError(f"n_max={n_max} too small; need at least N+10")
    label = RepLabel(L + 1)
    u = scaling_coords(phi)
    if imaginary_time:
        prefactor = -math.sinh(time / 2.0) ** 2
    else:
        prefactor = math.sin(time / 2.0) ** 2

    total = 0.0 + 0.0j
    last = 0.0
    for n in range(L + 1, n_max + 1):
        weight = abs(rep_matrix_element(label, N, n, u)) ** 2
        if imaginary_time:
            term = weight * math.exp(-n * time)
        else:
            term = weight * complex(math.cos(n * time), -math.sin(n * time))
        total += term
        last = abs(term)
    return SpectralKernelValue(value=prefactor * total, last_term=abs(prefactor) * last, terms=n_max - L)


def tau_integral_by_quadrature(
    N: int, L: int, phi: float, spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """int_0^inf e^{nu tau} dQ~/dtau dtau by adaptive Gauss-Kronrod quadrature.

    The integrand is the closed u-form minus the residues
    (PhiKernel.remainder_dtau's closed branch) at any phi, one array of
    nodes per call; an overflow becomes a non-finite node and raises
    IntegrandError.  Its absolute tolerance is multiplied by the dipole
    weight e^{2 phi} wherever the result is used, so it is an independent
    check of PhiKernel.tau_integral, not a replacement.
    """
    ker = PhiKernel(N, L, phi)
    spec = spec or QuadratureSpec(rel_tol=1.0e-10, abs_tol=1.0e-15, max_subdivisions=400)

    def integrand(tau: np.ndarray) -> np.ndarray:
        return np.exp(ker.nu * tau) * ker._closed_remainder_dtau(tau)

    with np.errstate(over="ignore", invalid="ignore"):
        return integrate_semi_infinite(integrand, spec)


def _kernel_matrix_element_grid(N: int, L: int, T: np.ndarray, phi: float):
    """Vectorized matrix element M(T) and derivative dM/dT on the real axis."""
    half = T / 2.0
    s, c = np.sin(half), np.cos(half)
    cosh_phi, sinh_phi = math.cosh(phi), math.sinh(phi)
    f = c + 1j * s * cosh_phi
    fp = 0.5 * (-s + 1j * c * cosh_phi)
    z = -((s * sinh_phi) ** 2)
    zp = -0.5 * np.sin(T) * sinh_phi**2
    one_minus_z = 1.0 - z
    w = (1.0 + z) / one_minus_z

    degree = N - L - 1
    poly = _jacobi_recurrence(degree, 0.0, 2.0 * L + 1.0, w)
    # dP_n^{(0, 2L+1)}/dw = (n + 2L + 2)/2 P_{n-1}^{(1, 2L+2)}
    dpoly = 0.0
    if degree:
        dpoly = (degree + 2 * L + 2) / 2.0 * _jacobi_recurrence(degree - 1, 1.0, 2.0 * L + 2.0, w)
    chi = np.angle(f)
    phase = np.exp(-2j * N * chi)
    radial = one_minus_z ** (-(L + 1))
    m_elem = phase * radial * poly

    dchi = (fp / f).imag
    dm = (
        m_elem * (-2j * N * dchi)
        + phase * zp * ((L + 1) * one_minus_z ** (-(L + 2)) * poly
                        + radial * dpoly * 2.0 / one_minus_z**2)
    )
    return m_elem, dm


def kernel_q(N: int, L: int, T: float, phi: float) -> complex:
    """Real-time kernel Q(T, phi) = sin^2(T/2) M(T) at one time T.

    M(T) = e^{-2iN chi} (1-z)^{-(L+1)} P_{N-L-1}^{(0, 2L+1)}(w) is the Jacobi
    form of f^{-2N} 2F1(L+1-N, -L-N; 1; z), whose argument w = (1+z)/(1-z)
    stays in (-1, 1] on the real axis, where the direct terminating series
    would alternate violently.
    """
    validate_quantum_numbers(N, L)
    if phi < 0.0:
        raise ValueError(f"phi must be nonnegative, got {phi}")
    m_elem, _ = _kernel_matrix_element_grid(N, L, np.array([T]), phi)
    return complex(math.sin(T / 2.0) ** 2 * m_elem[0])


def _dq_dt_grid(N: int, L: int, T: np.ndarray, phi: float) -> np.ndarray:
    """dQ/dT on the real axis for an array of times."""
    m_elem, dm = _kernel_matrix_element_grid(N, L, T, phi)
    s2 = np.sin(T / 2.0) ** 2
    return 0.5 * np.sin(T) * m_elem + s2 * dm


def _phi_breakpoints(N: int, L: int, eps: float, phi_max: float):
    """Panel edges refined around every pole phi = ln(N/n) at scale eps/n."""
    edges = set(np.linspace(0.0, 2.0, 9))
    edges.update(np.arange(2.5, 4.01, 0.5))
    edges.update(np.arange(5.0, phi_max + 0.5, 1.0))
    edges.add(phi_max)
    for n in range(max(1, L), N):
        pole = math.log(N / n)
        width = eps / n
        for k in (256.0, 64.0, 16.0, 4.0, 1.0, 0.25, 0.0625):
            for side in (-1.0, 1.0):
                point = pole + side * k * width
                if 0.0 < point < phi_max:
                    edges.add(point)
        edges.add(pole)
    return np.array(sorted(edges))


# The real-axis integrand bursts with instantaneous frequency ~ N cosh(phi)
# around T = 2 pi k; beyond this phi the oscillations are handed to the
# absolutely convergent eigenbasis sum instead (every pole nu = n sits at
# phi <= ln N, far below the switch, so the pole treatment under test is
# still probed entirely by direct T integration).
PHI_OSCILLATORY_MAX = 3.5


def _inner_t_integral_grid(N, L, phi, nu, eps, nodes, weights) -> complex:
    """int_0^inf e^{(i nu - eps) T} dQ/dT dT, exactly, from one period.

    dQ/dT is 2 pi-periodic, so the damped integral is the one over [0, 2 pi]
    divided by 1 - e^{2 pi (i nu - eps)}.  Panels of width 2/(N cosh phi), a
    third of the local oscillation period, hold ~1e-14 up to phi = 3.5.
    """
    width = min(0.25, 2.0 / (N * math.cosh(phi)))
    n_panels = int(math.ceil(2.0 * math.pi / width))
    edges = np.linspace(0.0, 2.0 * math.pi, n_panels + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    t_grid = (centers[:, None] + halves[:, None] * nodes[None, :]).ravel()
    t_weights = (halves[:, None] * weights[None, :]).ravel()
    dq = _dq_dt_grid(N, L, t_grid, phi)
    damped = np.exp((1j * nu - eps) * t_grid)
    period = complex(np.dot(t_weights, damped * dq))
    return period / (1.0 - cmath.exp(2.0 * math.pi * (1j * nu - eps)))


def _inner_t_integral_spectral(N, L, phi, nu, eps) -> complex:
    """Exact damped integral from the exponential series of the kernel.

    int_0^inf e^{(i nu - eps)T} dQ/dT = sum_m (-i m q_m)/(eps + i(m - nu)).
    """
    ker = PhiKernel(N, L, phi)
    total = 0.0 + 0.0j
    j0, chunk = 0, 512
    while True:
        q = ker._coeff_range(j0, j0 + chunk)
        m = np.arange(j0, j0 + chunk)
        total += complex(np.sum(-1j * m * q / (eps + 1j * (m - nu))))
        j0 += chunk
        tail = float(np.abs(q[-8:]).max())
        ratio = min(0.999, ker.t2 * (1.0 + 2.0 * N / j0))
        if tail * ratio / (1.0 - ratio) < 1e-16 * abs(total) + 1e-300:
            return total
        chunk = min(2 * chunk, 65536)
        if j0 > 4_000_000:
            raise RuntimeError(f"spectral inner integral did not converge at phi={phi}")


def shift_via_eps_real_axis(
    state: QuantumState,
    eps: float,
    constants: PhysicalConstants | None = None,
) -> complex:
    """Complex shift in MHz from the un-rotated representation at finite eps.

    Evaluates -C int dphi w(phi) int_0^inf dT e^{i(nu + i eps)T} dQ/dT
    with composite Gauss-Kronrod grids in both variables; the real part
    estimates the Lamb shift and the imaginary part -Gamma/2 (in the same
    frequency units).  Meant to be extrapolated in eps.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    constants = constants or default_constants()
    N, L = state.N, state.L

    nodes, weights, _ = kronrod_nodes_weights()
    nodes = np.asarray(nodes)
    weights = np.asarray(weights)

    phi_max = 9.0 + math.log(N)
    phi_edges = _phi_breakpoints(N, L, eps, phi_max)

    def phi_integrand(phi_nodes: np.ndarray) -> np.ndarray:
        out = np.empty(phi_nodes.size, dtype=complex)
        for i, phi in enumerate(phi_nodes):
            nu = N * math.exp(-phi)
            if phi <= PHI_OSCILLATORY_MAX:
                inner = _inner_t_integral_grid(N, L, phi, nu, eps, nodes, weights)
            else:
                inner = _inner_t_integral_spectral(N, L, phi, nu, eps)
            out[i] = weight_nondipole(state, phi, constants) * inner
        return out

    total = 0.0 + 0.0j
    for a, b in zip(phi_edges[:-1], phi_edges[1:]):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        total += h * np.dot(weights, phi_integrand(c + h * nodes))

    return constants.eV_to_MHz(shift_prefactor(state, constants)) * total


def shift_via_eps_extrapolated(
    state: QuantumState,
    eps_values=(0.05, 0.025, 0.0125),
    constants: PhysicalConstants | None = None,
) -> complex:
    """Damping-extrapolated real-axis shift (complex MHz)."""
    values = [shift_via_eps_real_axis(state, eps, constants=constants) for eps in eps_values]
    real, _ = neville_extrapolate(list(eps_values), [v.real for v in values])
    imag, _ = neville_extrapolate(list(eps_values), [v.imag for v in values])
    return complex(real, imag)
