"""Brute-force cross-check evaluators, kept off the primary result path.

Eight independent routes back the closed forms used elsewhere: the kernel
as an explicit sum over the compact-generator eigenbasis, the disentangled
2x2 product behind the polar decomposition, the rotated kernel and its
remainder in tau from the closed u-form (q_imag_time, remainder,
remainder_dtau; the hot path only integrates them in closed form), the
inner tau integral by adaptive quadrature of that u-form, the PV term of
a shift as one folded principal value per decay channel (against the
singularity subtraction of shifts._shift_bracket), the dipole rate of
the circular states (N, N-1) in closed form, the Bethe logarithm by
Neville extrapolation of dipole shifts at finite cutoffs (against the one
convergent integral of shifts.bethe_log), and the un-rotated
real-axis double integral at finite damping epsilon, whose real-time
kernel Q(T, phi) is written once (kernel_q).  Tolerances here are looser
by construction; the oscillatory epsilon route in particular only makes
sense after extrapolating the damping to zero.  Its inner time integral
is exact at every finite epsilon: one period of the 2 pi-periodic dQ/dT
divided by 1 - e^{2 pi (i nu - eps)}, folded onto [0, pi] by
dQ/dT(2 pi - T) = -conj dQ/dT(T).  Up to phi = 3.5 that half period is
a T grid whose size depends only on the node's panel count, so the phi
nodes with one count are (phi x T) blocks of up to 15 nodes: the trig of
T is taken once per block row and the hyperbolics once per node, and the
phase e^{-2iN chi} of the kernel and its rate are algebraic in them, with
no angle, complex exponential or complex division per element.  A block
is kept as its T-moments, which do not depend on eps (the damping
e^{-+eps T} is their Taylor series, exact in double up to EPS_MAX), so an
eps sweep whose phi nodes stay put, the 1s route of verify, evaluates the
kernel on the grid once.  At large phi it is the kernel's exponential
series summed in closed form: the Gauss pieces of the rotated inner
integral's Euler form at the complex nu + i eps (kernel._euler_block, all
such nodes of a call in one block), which hold the whole damped
integral, residue terms and tail alike.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import kernel
from .constants import PhysicalConstants
from .kernel import (
    PhiKernel,
    _euler_block,
    _series_sums,
    _series_term_ratios,
    residue_coeffs,
    validate_quantum_numbers,
)
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    _W,
    _X,
    integrate_principal_value,
    integrate_semi_infinite,
)
from .shifts import (
    DipoleOptions,
    QuantumState,
    _constants_for,
    _photon_weight,
    bethe_amplitude,
    lamb_shift,
    shift_prefactor,
    weight_nondipole,
)
from .specfun import _jacobi_recurrence
from .su11 import BchCoordinates, RepLabel, rep_matrix_element, scaling_coords

# Defining-representation ladder generators jpm = -sigma_pm/sqrt(2).
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


class SpectralKernelValue(namedtuple("SpectralKernelValue", "value last_term terms")):
    """The kernel summed over terms eigenstates, with the size of the last term as truncation monitor."""

    __slots__ = ()


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


def _tanh2(phi: float) -> float:
    """t^2 = tanh^2(phi/2), the series ratio of the kernel at phi."""
    return math.tanh(phi / 2.0) ** 2


def _ln_cosh2(phi: float) -> float:
    """ln cosh^2(phi/2), overflow-safe for any phi."""
    return phi - 2.0 * math.log(2.0) + 2.0 * math.log1p(math.exp(-phi))


def _closed_terms(ker: PhiKernel, tau):
    """The closed u-form at tau of any shape: (A, p, q, u, 1 - u, g, u^p, u^p (1-u)^{q-1}, R_p).

    Q(-i tau, phi) = pi(u) g^{-2N}, g = 1 - u t^2, with the polynomial as
    factored terms pi = sum_k A_k u^{p_k} (1-u)^{q_k}, p_k = N-1-k and
    q_k = 2k+2 for k = 0 .. N-L-1, so p runs over the residue indices
    N-1 .. L.  Evaluating these products directly (never expanding in
    powers of u) keeps pi(u) and pi'(u) relatively accurate near u = 1,
    where the expanded coefficients would cancel to roundoff and g^{-2N}
    amplifies the noise at large phi.  So does 1 - u from expm1, and g
    summed as sech^2(phi/2) + t^2 (1 - u).  Every array has a trailing
    axis, of length one for u, 1 - u and g and running over the terms
    otherwise.
    """
    N, L, phi = ker.N, ker.L, ker.phi
    # logs of sinh^2(phi/2) and of sinh^2 cosh^2, overflow-safe for any phi
    ln_sh2 = phi - 2.0 * math.log(2.0) + 2.0 * math.log1p(-math.exp(-phi)) if phi > 0.0 else -math.inf
    ln_ch2 = _ln_cosh2(phi)
    ln_shch2 = ln_sh2 + ln_ch2
    amps = []
    for k, tk in enumerate(_series_term_ratios(N, L)):
        ln_amp = (k * ln_shch2 if k else 0.0) - 2 * N * ln_ch2
        amps.append(0.0 if ln_amp == -math.inf else -0.25 * tk * math.exp(ln_amp))
    k = np.arange(N - L, dtype=float)
    p, q = N - 1.0 - k, 2.0 * k + 2.0
    mt = -np.asarray(tau, dtype=float)[..., None]
    u, omu = np.exp(mt), -np.expm1(mt)
    up = u**p
    g = math.exp(-ln_ch2) + _tanh2(phi) * omu
    res = np.array([residue_coeffs(N, L, phi, n) for n in range(N - 1, L - 1, -1)])  # R_p
    return np.array(amps), p, q, u, omu, g, up, up * omu ** (q - 1.0), res


def q_imag_time(ker: PhiKernel, tau):
    """Full kernel Q(-i tau, phi) via the closed u-form, tau a float or an array."""
    amp, _, _, _, omu, g, _, base, _ = _closed_terms(ker, tau)
    return np.add.reduce(amp * base * (omu * g ** (-2 * ker.N)), axis=-1)


def _closed_remainder_dtau(ker: PhiKernel, tau):
    """dQ~/dtau = sum_n n R_n u^n - u dQ/du by the closed u-form at any phi, tau a float or an array.

    With a_k = A_k u^p (1-u)^{q-1} per factored term, pi = sum a_k (1-u)
    and u pi' = sum a_k (p (1-u) - q u), so

        u dQ/du = g^{-2N} sum_k a_k [p (1-u) - q u + 2N t^2 u (1-u)/g],

    no power of u is negative, and since p runs over the residue
    indices the whole derivative is one sum over the terms.
    """
    amp, p, q, u, omu, g, up, base, res = _closed_terms(ker, tau)
    inner = p * omu - q * u + (2 * ker.N * _tanh2(ker.phi)) * u * omu / g
    return np.add.reduce(p * res * up - g ** (-2 * ker.N) * amp * base * inner, axis=-1)


# The remainder Q~ (the kernel less its residue terms) and dQ~/dtau at one
# tau: the series where PhiKernel.tau_integral sums it, else the u-form on a
# one-element array, not a numpy scalar (whose powers take another code
# path), so each value equals _closed_remainder_dtau's in a batch bit for bit.
def remainder(ker: PhiKernel, tau: float) -> float:
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if _tanh2(ker.phi) <= kernel.SERIES_T2_MAX:
        u = math.exp(-tau)
        return _series_sums(ker.N, ker.L, [ker.phi], [ker.nu], lambda j, nu: u**j)[0]
    x = np.array([tau])
    *_, up, _, res = _closed_terms(ker, x)
    return float((q_imag_time(ker, x) - np.add.reduce(res * up, axis=-1))[0])


def remainder_dtau(ker: PhiKernel, tau: float) -> float:
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if _tanh2(ker.phi) <= kernel.SERIES_T2_MAX:
        u = math.exp(-tau)
        return -_series_sums(ker.N, ker.L, [ker.phi], [ker.nu], lambda j, nu: j * u**j)[0]
    return float(_closed_remainder_dtau(ker, np.array([tau]))[0])


def tau_integral_by_quadrature(
    N: int, L: int, phi: float, spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """int_0^inf e^{nu tau} dQ~/dtau dtau by adaptive Gauss-Kronrod quadrature.

    The integrand is the closed u-form minus the residues
    (_closed_remainder_dtau) at any phi, one array of nodes per call.  It is
    an independent check of PhiKernel.tau_integral, not a replacement.

    Only nu = N e^{-phi} < max(1, L) is accepted, else ValueError: the
    residues subtracted from the u-form leave roundoff of order
    eps e^{-max(1, L) tau}, which the weight e^{nu tau} amplifies once nu
    reaches max(1, L), so the tail panels would never fall below the
    target of the running total.  Below that bound the roundoff decays,
    but only like e^{(nu - max(1, L)) tau}: just below it ((10, 9) at
    phi = 0.11 .. 0.17, (50, 49) up to 0.33) the doubling panels reach
    tau where e^{nu tau} overflows while the remainder, of order u^N,
    has left the double range.  Such a node is lost: it counts as 0, and
    the result reports converged=False whatever its error estimate.
    """
    nu, bound = N * math.exp(-phi), max(1, L)
    if nu >= bound:
        raise ValueError(
            f"nu = N e^-phi = {nu!r} is not below max(1, L) = {bound} at (N, L, phi) = ({N}, {L}, {phi!r})"
        )
    ker = PhiKernel(N, L, phi)
    spec = spec or QuadratureSpec(rel_tol=1.0e-10, max_subdivisions=400)
    lost = False

    def integrand(tau: np.ndarray) -> np.ndarray:
        nonlocal lost
        values = np.exp(ker.nu * tau) * _closed_remainder_dtau(ker, tau)
        finite = np.isfinite(values)
        if not finite.all():
            lost = True
            values[~finite] = 0.0
        return values

    with np.errstate(over="ignore", invalid="ignore"):
        result = integrate_semi_infinite(integrand, spec)
    return result._replace(converged=result.converged and not lost)


def pv_term_by_principal_values(
    state: QuantumState,
    options: DipoleOptions,
    spec: QuadratureSpec | None = None,
    constants: PhysicalConstants | None = None,
) -> float:
    """The PV term of a shift in MHz, one adaptive principal value per decay channel.

    Each PV int_0^Phi w n R_n(phi)/(N e^-phi - n) dphi, Phi the dipole
    cutoff or infinity, is folded about its pole phi_n = ln(N/n) by
    integrate_principal_value, with residue_coeffs evaluated at every node.
    It shares neither nodes nor the pole strength with the closed-form
    subtraction of shifts._shift_bracket, whose pv_term_MHz it checks.  The
    denominator is taken as n expm1(phi_n - phi): N e^-phi - n has an
    absolute roundoff of ~eps n next to the pole, which the folded
    integrand would amplify without bound as the fold closes.
    """
    constants = _constants_for(state, constants)
    N, L = state.N, state.L
    upper = options.phi_cut(state, constants) if options.enabled else None
    weight = _photon_weight(state, options, constants)

    def numerator(phis: np.ndarray, n: int) -> np.ndarray:
        return np.array([weight(phi) * n * residue_coeffs(N, L, phi, n) for phi in phis.tolist()])

    poles = {n: math.log(N / n) for n in range(max(1, L), N)}
    pvs = [
        integrate_principal_value(
            lambda phis, n=n: numerator(phis, n), pole, spec,
            denominator=lambda phis, n=n, pole=pole: n * np.expm1(pole - phis), upper=upper,
        ).value
        for n, pole in poles.items()
    ]
    return constants.eV_to_MHz(shift_prefactor(state, constants) * math.fsum(pvs))


def circular_rate_closed_form(
    N: int, Z: int = 1, constants: PhysicalConstants | None = None
) -> float:
    """Dipole decay rate of the maximal-angular-momentum state (N, L=N-1), 10^6/s.

    Gamma = (2/3) (N-1/2) / (N^4 (N-1)^2) (1 + 1/(4N(N-1)))^{-2N} in units
    of mec2 a0 (Z a0)^4 / hbar, independent of the residues behind
    shifts.decay_rates, whose one channel of these states it checks.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    constants = _constants_for(QuantumState(N=N, L=N - 1, Z=Z), constants)
    unit = constants.rate_unit_per_s(Z)
    shape = (2.0 / 3.0) * (N - 0.5) / (N**4 * (N - 1) ** 2)
    shape *= (1.0 + 1.0 / (4.0 * N * (N - 1))) ** (-2 * N)
    return shape * unit / 1.0e6


def _complex(re, im) -> np.ndarray:
    """re + i im, filled in place: re + 1j * im forms two complex temporaries."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def _kernel_matrix_element_grid(N: int, L: int, T: np.ndarray, phi: float | np.ndarray):
    """The matrix element M(T) on the real axis and its T-derivative, as (e^{-2iN chi}, A, dA/dT, dchi/dT).

    M = e^{-2iN chi} A with A = (1-z)^{-(L+1)} P_{N-L-1}^{(0, 2L+1)}(w) real,
    so dM/dT = e^{-2iN chi} (dA/dT - 2iN A dchi/dT).  T and phi are
    broadcast together: a float phi, one phi per time, or a row of times
    against a column of phi (the blocks of _inner_t_integral_grid), where
    the trig of T is taken once per time and the hyperbolics once per
    phi.  With f = cos(T/2) + i sin(T/2) cosh(phi) = |f| e^{i chi} and
    z = -sin^2(T/2) sinh^2(phi), |f|^2 = 1 - z, so the phase and its rate
    are algebraic, with no angle taken:

        e^{-2iN chi} = (conj(f)^2/(1-z))^N,  dchi/dT = Im(f' conj f)/|f|^2 = cosh(phi)/(2(1-z)),

    conj(f)^2 = cos^2(T/2) - sin^2(T/2) cosh^2(phi) - i sin(T) cosh(phi).
    The quotient has modulus one before its power is taken: conj(f)^{2N}
    and (1-z)^N apart would overflow at phi = 3.5 from N ~ 125.
    """
    half = T / 2.0
    s2, c2, sin_t = np.sin(half) ** 2, np.cos(half) ** 2, np.sin(T)
    cosh_phi, sinh2_phi = np.cosh(phi), np.sinh(phi) ** 2
    minus_z = s2 * sinh2_phi
    inverse = 1.0 / (1.0 + minus_z)  # 1/(1-z) = 1/|f|^2
    w = (1.0 - minus_z) * inverse

    degree = N - L - 1
    poly = _jacobi_recurrence(degree, 0.0, 2.0 * L + 1.0, w)
    # dP_n^{(0, 2L+1)}/dw = (n + 2L + 2)/2 P_{n-1}^{(1, 2L+2)}
    dpoly = 0.0
    if degree:
        dpoly = (degree + 2 * L + 2) / 2.0 * _jacobi_recurrence(degree - 1, 1.0, 2.0 * L + 2.0, w)
    phase = _complex((c2 - s2 * cosh_phi**2) * inverse, -(sin_t * cosh_phi) * inverse)
    if N > 1:  # numpy raises a complex array to the power 1 the slow way
        phase **= N
    amp = inverse ** (L + 1) * poly
    # dA/dT = dz/dT [(L+1) A + 2 (1-z)^{-(L+2)} dP/dw]/(1-z), as dw/dz = 2/(1-z)^2
    damp = (-0.5 * sin_t * sinh2_phi) * inverse * ((L + 1) * amp + 2.0 * inverse ** (L + 2) * dpoly)
    return phase, amp, damp, 0.5 * cosh_phi * inverse


def kernel_q(N: int, L: int, T: float, phi: float) -> complex:
    """Real-time kernel Q(T, phi) = sin^2(T/2) M(T) at one time T.

    M(T) = e^{-2iN chi} (1-z)^{-(L+1)} P_{N-L-1}^{(0, 2L+1)}(w) is the Jacobi
    form of f^{-2N} 2F1(L+1-N, -L-N; 1; z), whose argument w = (1+z)/(1-z)
    stays in (-1, 1] on the real axis, where the direct terminating series
    would alternate violently; its phase is the algebraic
    (conj(f)^2/(1-z))^N of _kernel_matrix_element_grid.
    """
    validate_quantum_numbers(N, L)
    if phi < 0.0:
        raise ValueError(f"phi must be nonnegative, got {phi}")
    phase, amp, _, _ = _kernel_matrix_element_grid(N, L, np.array([T]), phi)
    return complex(math.sin(T / 2.0) ** 2 * phase[0] * amp[0])


def _dq_dt_grid(N: int, L: int, T: np.ndarray, phi: float | np.ndarray) -> np.ndarray:
    """dQ/dT on the real axis, T and phi broadcast as in _kernel_matrix_element_grid.

    dQ/dT = sin(T)/2 M + sin^2(T/2) dM/dT is e^{-2iN chi} times one complex
    factor of real parts.  Q(2 pi - T) = conj Q(T), since Q = sin^2(T/2)
    sum_n |D_{N,n}|^2 e^{-i n T} with integer n, so dQ/dT(2 pi - T) =
    -conj dQ/dT(T).
    """
    phase, amp, damp, dchi = _kernel_matrix_element_grid(N, L, T, phi)
    s2 = np.sin(T / 2.0) ** 2
    phase *= _complex(0.5 * np.sin(T) * amp + s2 * damp, (-2.0 * N * s2) * dchi * amp)
    return phase


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
# eigenbasis sum in closed form instead (every pole nu = n sits at
# phi <= ln N, far below the switch, so the pole treatment under test is
# still probed entirely by direct T integration).
PHI_OSCILLATORY_MAX = 3.5
# The damping enters the folded T grid only as e^{-eps T} and e^{eps T} with
# 0 <= T <= pi.  Up to EPS_MAX their Taylor series to the order
# _MOMENTS - 1 = 16 leave at most e^{eps pi} (eps pi)^17/17! = 1.0e-16 < 2^-53
# of every term, so the grid keeps the eps-free T-moments of its terms.
EPS_MAX = 0.25
_MOMENTS = 17
# phi nodes per (phi x T) block of the grid: one quadrature panel's worth
_BLOCK_ROWS = 15


# 64 blocks: a 1s call forms 23, a 2s or 2p call 49 (about 4 kB each)
@lru_cache(maxsize=64)
def _t_moments(N, L, count, phis, nus):
    """mu_m = sum_T (h W_T T^m/m!) e^{i nu T} dQ/dT(T), m < _MOMENTS, per node of one grid block.

    The block is the tuples phis and nus, all nodes with the same panel
    count, against one row of times: count Gauss-Kronrod panels of half
    width h = pi/(2 count) on [0, pi], with the module's 15-point Kronrod
    rule (quadrature._X and _W[:, 0]).  e^{i nu T} is formed from its
    factors e^{i nu mid} and e^{i nu offset}.  Returns a read-only
    (nodes x _MOMENTS) array, kept per block: the 1s nodes of every eps
    form the same blocks.
    """
    half = 0.5 * math.pi / count
    mids, offsets = (2 * np.arange(count) + 1) * half, half * _X
    t = (mids[:, None] + offsets).ravel()
    v = _dq_dt_grid(N, L, t, np.array(phis)[:, None])
    nu_col = np.array(nus)[:, None]
    # scaled in place through a view: a product would be one more (phi x T) transient
    by_panel = v.reshape(len(phis), count, _X.size)
    by_panel *= np.exp(1j * nu_col * mids)[:, :, None]
    by_panel *= np.exp(1j * nu_col * offsets)[:, None]
    # rows h W T^m/m!, each from the last
    row = np.tile(half * _W[:, 0], count)
    moments = np.empty((len(phis), _MOMENTS), dtype=complex)
    for m in range(_MOMENTS):
        moments[:, m] = v @ row
        row *= t / (m + 1)
    moments.flags.writeable = False
    return moments


def _inner_t_integral_grid(N, L, phis, nus, eps):
    """int_0^inf e^{(i nu - eps) T} dQ/dT dT, exactly, from half a period.

    dQ/dT is 2 pi-periodic, so with s = i nu - eps the damped integral is
    the one over [0, 2 pi] divided by 1 - e^{2 pi s}, and the reflection
    dQ/dT(2 pi - T) = -conj dQ/dT(T) folds that period onto [0, pi]:

        int_0^pi [e^{sT} dQ/dT(T) - e^{s(2 pi - T)} conj dQ/dT(T)] dT.

    Panels of width 2/(N cosh phi), a third of the local oscillation period,
    hold ~1e-14 up to phi = 3.5.  phis and nus are equal-length arrays, and
    one complex is returned per node; 0 < eps <= EPS_MAX.  A node's T grid
    depends only on its panel count, so the nodes of each count are
    (phi x T) blocks of up to _BLOCK_ROWS nodes: a column of phi against
    one row of times, summed along the row.  As e^{sT} = e^{-eps T}
    e^{i nu T} and 1/e^{sT} = e^{eps T} conj e^{i nu T}, with
    v = e^{i nu T} dQ/dT the fold is two real-weighted row sums,
    sum (w e^{-eps T}) v - e^{2 pi s} conj sum (w e^{eps T}) v, and with
    the T-moments mu_m of a block (_t_moments) they are
    sum_m (-eps)^m mu_m and sum_m eps^m mu_m.  The moments do not depend
    on eps: a block is evaluated once per process, and every later call
    with the same nodes (the 1s route at each eps) only sums them.
    """
    panels = np.ceil(math.pi / np.minimum(0.25, 2.0 / (N * np.cosh(phis)))).astype(int)
    wraps = np.exp(2.0 * math.pi * (1j * nus - eps))
    forward, backward = (-eps) ** np.arange(_MOMENTS), eps ** np.arange(_MOMENTS)
    inner = np.empty(phis.size, dtype=complex)
    # sorted(set()), not np.unique: its first call in a process costs 11-19 ms
    # and 1.7 MB of peak RSS (numpy 2.4.6)
    for count in sorted(set(panels.tolist())):
        rows = np.flatnonzero(panels == count)
        for start in range(0, rows.size, _BLOCK_ROWS):
            block = rows[start : start + _BLOCK_ROWS]
            mu = _t_moments(N, L, count, tuple(phis[block].tolist()), tuple(nus[block].tolist()))
            wrap = wraps[block]
            inner[block] = (mu @ forward - wrap * np.conj(mu @ backward)) / (1.0 - wrap)
    return inner


def _inner_t_integral_spectral(N, L, phis, nus, eps):
    """Exact damped integral from the exponential series of the kernel, in closed form.

    With nu' = nu + i eps,

        int_0^inf e^{(i nu - eps)T} dQ/dT dT = -sum_m m q_m/(m - nu'),

    the residue terms m < N plus the tail m >= N.  The tail is the rotated
    inner integral continued analytically to nu', whose residue terms
    +m R_m/(m - nu') cancel those, so the sum is the Gauss pieces of
    kernel._euler_block at nu' alone, with no weight row formed; the real
    and imaginary parts of each node are each one math.fsum.  phis and nus
    are equal-length arrays: all nodes are one block, and one complex is
    returned per node.
    """
    pieces = _euler_block(N, L, phis.tolist(), [complex(x, eps) for x in nus.tolist()])
    return np.array([
        complex(math.fsum(re), math.fsum(im)) for re, im in zip(pieces.real.tolist(), pieces.imag.tolist())
    ])


def shift_via_eps_real_axis(
    state: QuantumState,
    eps: float,
    constants: PhysicalConstants | None = None,
) -> complex:
    """Complex shift in MHz from the un-rotated representation at finite eps.

    Evaluates -C int dphi w(phi) int_0^inf dT e^{i(nu + i eps)T} dQ/dT
    with composite Gauss-Kronrod grids in both variables; the real part
    estimates the Lamb shift and the imaginary part -Gamma/2 (in the same
    frequency units).  Meant to be extrapolated in eps; 0 < eps <= EPS_MAX,
    else ValueError before any integral starts.

    The nodes of every phi panel are one array: those up to
    PHI_OSCILLATORY_MAX are one _inner_t_integral_grid call, the rest one
    _inner_t_integral_spectral call (one kernel._euler_block).  The grid
    keeps the T-moments of its blocks for the process (_t_moments): for
    N = 1 the phi edges do not depend on eps, so the calls at the second
    and later eps of a sweep only sum moments.  For N >= 2 the edges
    refined around the poles ln(N/n) move with eps, and every call forms
    its own.

    The phi domain is not [0, phi_max] with phi_max = 9 + ln N: the
    integer edges of _phi_breakpoints run up to round(9 + ln N), so for
    N = 2, 5, 6 and 7 it ends past phi_max (at 10, not 9.693, for 2s).
    That extra panel moves each 2s value by 3.5e-5 relative and costs
    about 2% of the 2s time.  Nor is the truncation negligible: moving
    the 1s end from 9 to 10, 11 and 12 moves the extrapolated shift from
    7936.122 to 7936.652, 7936.724 and 7936.734 MHz, against 7936.290 MHz
    from the rotated contour, so the 2.1e-5 agreement at phi_max = 9
    grows to 5.6e-5 with the domain: part of it is the phi truncation
    cancelling the error of the eps extrapolation.
    """
    if not 0.0 < eps <= EPS_MAX:  # NaN and inf included: no node integrates them
        raise ValueError(f"eps must be positive and finite, at most EPS_MAX = {EPS_MAX}, got {eps}")
    constants = _constants_for(state, constants)
    N, L = state.N, state.L

    nodes, weights = _X, _W[:, 0]
    phi_edges = _phi_breakpoints(N, L, eps, 9.0 + math.log(N))
    centres, halves = 0.5 * (phi_edges[:-1] + phi_edges[1:]), 0.5 * (phi_edges[1:] - phi_edges[:-1])
    phis = (centres[:, None] + halves[:, None] * nodes).ravel()
    nus = N * np.exp(-phis)
    inner = np.empty(phis.size, dtype=complex)
    grid = phis <= PHI_OSCILLATORY_MAX
    inner[grid] = _inner_t_integral_grid(N, L, phis[grid], nus[grid], eps)
    inner[~grid] = _inner_t_integral_spectral(N, L, phis[~grid], nus[~grid], eps)
    values = np.array([weight_nondipole(state, phi, constants) for phi in phis.tolist()]) * inner
    total = halves @ (values.reshape(halves.size, nodes.size) @ weights)
    return constants.eV_to_MHz(shift_prefactor(state, constants)) * total


def neville_extrapolate(xs, ys) -> tuple[float, float]:
    """Polynomial extrapolation to x = 0; returns (value, last correction)."""
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need matching xs/ys with at least two points")
    tab = list(ys)
    prev_last = tab[-1]
    for k in range(1, n):
        prev_last = tab[-1]
        for i in range(n - 1, k - 1, -1):
            tab[i] = (xs[i] * tab[i - 1] - xs[i - k] * tab[i]) / (xs[i] - xs[i - k])
    return tab[-1], abs(tab[-1] - prev_last)


def bethe_log_by_cutoffs(
    N: int,
    L: int,
    cutoffs,
    constants: PhysicalConstants | None = None,
    spec: QuadratureSpec | None = None,
    Z: int = 1,
) -> tuple[float, float]:
    """Bethe logarithm from dipole shifts at finite cutoffs: (gamma, last Neville correction).

    Each cutoff x gives the estimate -DeltaE(x)/A + delta_{L0} (ln 4x - 2 ln(Z a0)),
    with A = bethe_amplitude, from one lamb_shift call; the estimates are
    extrapolated to infinite cutoff in e^{-phi_cut}.  It shares neither the body nor
    the tail of shifts.bethe_log, whose one convergent integral it checks.
    For s states the extrapolation is biased by about (Z a0)^2/x (6.6e-10
    at x = 1e3 .. 1e5 and Z = 1), so it is a check at large cutoffs only.
    """
    state = QuantumState(N=N, L=L, Z=Z)
    constants = _constants_for(state, constants)
    amplitude = bethe_amplitude(state, constants)
    nodes, estimates = [], []
    for x in cutoffs:
        options = DipoleOptions(enabled=True, cutoff_x=x)
        shift_MHz = lamb_shift(state, options, spec, constants).lamb_shift_MHz
        estimate = -constants.MHz_to_eV(shift_MHz) / amplitude
        if L == 0:
            estimate += math.log(4.0 * x) - 2.0 * math.log(Z * constants.alpha0)
        nodes.append(math.exp(-options.phi_cut(state, constants)))
        estimates.append(estimate)
    return neville_extrapolate(nodes, estimates)


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
