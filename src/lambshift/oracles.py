"""Brute-force cross-check evaluators, kept off the primary result path.

Nine independent routes back the closed forms used elsewhere: the kernel
as an explicit sum over the compact-generator eigenbasis, the scalar
digamma for any Re x > 0 (against specfun.digamma's strip form), the
polar (BCH) decomposition of an SU(1,1) element (BchCoordinates) against
the 2x2 product of its disentangled factors, the rotated kernel and its
remainder in tau from the closed u-form (q_imag_time, remainder,
remainder_dtau; the hot path only integrates them in closed form), the
inner tau integral by adaptive quadrature of that u-form, the PV term of
a shift as one folded principal value per decay channel (against the
singularity subtraction of shifts._bracket_integrand), the dipole rate
of the circular states (N, N-1) in closed form, the Bethe logarithm by
Neville extrapolation of dipole shifts at finite cutoffs (against the
one convergent integral of shifts.bethe_log), and the un-rotated
real-axis double integral at finite damping epsilon, whose real-time
kernel Q(T, phi) is written once (kernel_q).  Tolerances here are looser
by construction; the oscillatory epsilon route in particular only makes
sense after extrapolating the damping to zero.  Its inner time integral
is exact at every finite epsilon: at each phi node it is the sum
-sum_j j q_j/(j - nu - i eps) over the coefficients of the kernel's
exponential series Q = sum_j q_j e^{-ijT}.  Up to phi = 3.5 the q_j are
one inverse real FFT of the real-time matrix element M(T) (_fft_rows),
kept with the photon weights as one table of the call's phi grid, so an
eps sweep whose nodes stay put, the 1s route of verify, samples the
kernel and weighs its nodes once.  Beyond, the same sum is the Gauss
pieces of the rotated inner integral's Euler form at the complex
nu + i eps (kernel._euler_block, all such nodes of a call in one block),
whose digamma strip bounds eps.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

import numpy as np
import numpy.fft  # np.fft loads lazily; here it loads with oracles, not in the first eps call

from . import kernel
from .constants import PhysicalConstants
from .kernel import (
    PhiKernel,
    _euler_block,
    _q,
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
    NON_DIPOLE,
    DipoleOptions,
    QuantumState,
    _constants_for,
    _photon_weight,
    bethe_amplitude,
    lamb_shift,
    shift_prefactor,
)
from .specfun import STRIP_IM_MAX, _jacobi_recurrence
from .su11 import GroupElement, RepLabel, rep_matrix_element, scaling_coords


class BchCoordinates(namedtuple("BchCoordinates", "rho chi psi")):
    """Disentangling coordinates, floats: alpha = e^{i chi} cosh rho, beta = e^{i psi} sinh rho."""

    __slots__ = ()


def bch_decompose(u: GroupElement) -> BchCoordinates:
    """Polar coordinates of a group element; psi := 0 when beta vanishes.

    rho comes from |beta| = sinh rho: cosh rho rounds to 1 below rho ~ 1e-8,
    so acosh |alpha| would lose a small boost entirely.
    """
    rho = math.asinh(abs(u.beta))
    chi = cmath.phase(u.alpha) % (2.0 * math.pi)
    psi = cmath.phase(u.beta) % (2.0 * math.pi) if u.beta != 0 else 0.0
    return BchCoordinates(rho=rho, chi=chi, psi=psi)


def bch_reconstruct_2x2(b: BchCoordinates) -> np.ndarray:
    """Product of the four disentangled factors in the defining representation."""
    t, c, phase = math.tanh(b.rho), math.cosh(b.rho), b.chi + b.psi
    raise_factor = np.array([[1.0, t * np.exp(1j * phase)], [0.0, 1.0]])
    compact = np.diag([1.0 / c, c])  # (1/cosh rho)^{2 j3}
    lower_factor = np.array([[1.0, 0.0], [t * np.exp(-1j * phase), 1.0]])
    rotation = np.diag([np.exp(1j * b.chi), np.exp(-1j * b.chi)])
    return raise_factor @ compact @ lower_factor @ rotation


class SpectralKernelValue(namedtuple("SpectralKernelValue", "value last_term")):
    """The kernel summed over the eigenbasis, with the size of the last term as truncation monitor."""

    __slots__ = ()


def kernel_via_spectral_series(N: int, L: int, time: complex, phi: float, n_max: int) -> SpectralKernelValue:
    """Kernel from the eigenbasis sum sin^2(T/2) sum_n |D_{N,n}|^2 e^{-i n T}, n = L+1 .. n_max.

    The sum converges for any T with Im T <= 0, so one formula serves the
    real axis and the rotated contour: T = -1j * tau gives Q(-i tau, phi),
    whose prefactor is -sinh^2(tau/2) and whose exponentials are e^{-n tau},
    real up to a zero imaginary part.
    """
    N, L = validate_quantum_numbers(N, L)
    if n_max < N + 10:
        raise ValueError(f"n_max={n_max} too small; need at least N+10")
    label = RepLabel(L + 1)
    u = scaling_coords(phi)
    prefactor = cmath.sin(time / 2.0) ** 2
    total = 0.0 + 0.0j
    last = 0.0
    for n in range(L + 1, n_max + 1):
        term = abs(rep_matrix_element(label, N, n, u)) ** 2 * cmath.exp(-1j * n * time)
        total += term
        last = abs(term)
    return SpectralKernelValue(value=prefactor * total, last_term=abs(prefactor) * last)


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


def _u_form(N: int, terms):
    """Q(-i tau, phi) = sum_k A_k u^p (1-u)^q g^{-2N} from the _closed_terms of tau."""
    amp, _, _, _, omu, g, _, base, _ = terms
    return np.add.reduce(amp * base * (omu * g ** (-2 * N)), axis=-1)


def q_imag_time(ker: PhiKernel, tau):
    """Full kernel Q(-i tau, phi) via the closed u-form, tau a float or an array."""
    return _u_form(ker.N, _closed_terms(ker, tau))


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
    terms = _closed_terms(ker, np.array([tau]))
    *_, up, _, res = terms
    return float((_u_form(ker.N, terms) - np.add.reduce(res * up, axis=-1))[0])


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
    subtraction of shifts._bracket_integrand, and it checks the
    pv_term_MHz of shifts.lamb_shift.  The denominator is taken as
    n expm1(phi_n - phi): N e^-phi - n has an absolute roundoff of ~eps n
    next to the pole, which the folded integrand would amplify without
    bound as the fold closes.
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
    state = QuantumState(N=N, L=N - 1, Z=Z)
    N, unit = state.N, _constants_for(state, constants).rate_unit_per_s(state.Z)
    shape = (2.0 / 3.0) * (N - 0.5) / (N**4 * (N - 1) ** 2)
    shape *= (1.0 + 1.0 / (4.0 * N * (N - 1))) ** (-2 * N)
    return shape * unit / 1.0e6


def digamma(x):
    """psi(x) for a float or complex x, Re x > 0, within ~6e-16 of max(1, |psi(x)|).

    The scalar reference of specfun.digamma's strip form, by another
    route: recurs up to Re x >= 14 with psi(x) = psi(x+1) - 1/x, then sums
    the asymptotic series ln x - 1/(2x) - sum_k B_2k/(2k x^2k) through
    x^-14, whose first omitted term is below 3e-19 there (|x| >= Re x).  A
    complex x gives a complex, its real and imaginary parts each one
    math.fsum.
    """
    if not x.real > 0.0:
        raise ValueError(f"digamma needs Re x > 0, got {x!r}")
    terms = []
    while x.real < 14.0:
        terms.append(-1.0 / x)
        x += 1.0
    x2 = 1.0 / (x * x)
    tail = x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 * (1 / 240 - x2 * (
        1 / 132 - x2 * (691 / 32760 - x2 / 12))))))
    if isinstance(x, complex):
        terms += (cmath.log(x), -0.5 / x, -tail)
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    terms += (math.log(x), -0.5 / x, -tail)
    return math.fsum(terms)


def _complex(re, im) -> np.ndarray:
    """re + i im, filled in place: re + 1j * im forms two complex temporaries."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def _kernel_matrix_element_grid(N: int, L: int, T: np.ndarray, phi: float | np.ndarray):
    """The matrix element M(T) on the real axis as its two factors (e^{-2iN chi}, A).

    M = e^{-2iN chi} A with A = (1-z)^{-(L+1)} P_{N-L-1}^{(0, 2L+1)}(w) real.
    T and phi are broadcast together: a float phi, one phi per time, or a
    row of times against a column of phi (the blocks of _fft_rows), where
    the trig of T is taken once per time and the hyperbolics once per phi.
    With f = cos(T/2) + i sin(T/2) cosh(phi) = |f| e^{i chi} and
    z = -sin^2(T/2) sinh^2(phi), |f|^2 = 1 - z, so the phase is algebraic,
    with no angle taken:

        e^{-2iN chi} = (conj(f)^2/(1-z))^N,

    conj(f)^2 = cos^2(T/2) - sin^2(T/2) cosh^2(phi) - i sin(T) cosh(phi).
    The quotient has modulus one before its power is taken: conj(f)^{2N}
    and (1-z)^N apart would overflow at phi = 3.5 from N ~ 125.
    """
    half = T / 2.0
    s2, c2 = np.sin(half) ** 2, np.cos(half) ** 2
    cosh_phi, sinh2_phi = np.cosh(phi), np.sinh(phi) ** 2
    minus_z = s2 * sinh2_phi
    inverse = 1.0 / (1.0 + minus_z)  # 1/(1-z) = 1/|f|^2
    amp = inverse ** (L + 1)
    if N - L >= 2:  # P of degree 0 is exactly 1
        # P at w = (1+z)/(1-z), formed in the call so that w is freed with it
        amp *= _jacobi_recurrence(N - L - 1, 0.0, 2.0 * L + 1.0, (1.0 - minus_z) * inverse)
    phase = _complex((c2 - s2 * cosh_phi**2) * inverse, -(np.sin(T) * cosh_phi) * inverse)
    if N > 1:  # numpy raises a complex array to the power 1 the slow way
        phase **= N
    return phase, amp


def kernel_q(N: int, L: int, T: float, phi: float) -> complex:
    """Real-time kernel Q(T, phi) = sin^2(T/2) M(T) at one time T.

    M(T) = e^{-2iN chi} (1-z)^{-(L+1)} P_{N-L-1}^{(0, 2L+1)}(w) is the Jacobi
    form of f^{-2N} 2F1(L+1-N, -L-N; 1; z), whose argument w = (1+z)/(1-z)
    stays in (-1, 1] on the real axis, where the direct terminating series
    would alternate violently; its phase is the algebraic
    (conj(f)^2/(1-z))^N of _kernel_matrix_element_grid.
    """
    N, L = validate_quantum_numbers(N, L)
    if not (-math.inf < T < math.inf and 0.0 <= phi < math.inf):
        raise ValueError(f"need a finite T and a finite phi >= 0, got T={T!r}, phi={phi!r}")
    phase, amp = _kernel_matrix_element_grid(N, L, np.array([T]), phi)
    return complex(math.sin(T / 2.0) ** 2 * phase[0] * amp[0])


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
# still probed entirely by the sampled kernel).
PHI_OSCILLATORY_MAX = 3.5
# eps enters the spectral nodes' digamma heads at Im x = -eps, so the route
# takes the strip of specfun.digamma as its bound
EPS_MAX = STRIP_IM_MAX
# (phi x T) samples per block of the FFT rows, the bound on each block's
# transients: 45 rows of K/2 + 1 samples at K = 128, 11 at 512, 1 from 4096
_BLOCK_ELEMENTS = 2925
# A row of q_j ends past its last weight above this share of its largest
_ROW_CUT = 1.0e-14


def _fft_sizes(N: int, phis: np.ndarray) -> np.ndarray:
    """The FFT size K = 2^ceil(log2(16 N cosh phi + 64)) of each node: 16 times its frequency spread."""
    return 2 ** np.ceil(np.log2(16.0 * N * np.cosh(phis) + 64.0)).astype(int)


def _fft_rows(N: int, L: int, phis: np.ndarray):
    """(q, j, starts): the q_j of Q(T) = sum_j q_j e^{-ijT} at each node of phis, row after row.

    M(T) = sum_n |D_{N,n}|^2 e^{-inT} is sampled at K/2 + 1 equispaced T on
    [0, pi], and as M(-T) = conj M(T) one inverse real FFT of length K
    gives every weight n < K, the weights n <= L exactly 0; kernel._q forms
    the q_j.  The nodes of one K are (phi x T) blocks within
    _BLOCK_ELEMENTS.  A row runs from j = 0 to one past its last weight
    above _ROW_CUT of its largest; the rows lie one after another in q and
    j (exact integers, as floats), row i from starts[i].
    """
    sizes = _fft_sizes(N, phis)
    rows = [None] * phis.size
    # sorted(set()), not np.unique: its first call in a process costs 11-19 ms
    # and 1.7 MB of peak RSS (numpy 2.4.6)
    for size in sorted(set(sizes.tolist())):
        t = np.arange(size // 2 + 1) * (2.0 * math.pi / size)
        nodes = np.flatnonzero(sizes == size)
        step = max(1, _BLOCK_ELEMENTS // t.size)
        for start in range(0, nodes.size, step):
            block = nodes[start : start + step]
            m, amp = _kernel_matrix_element_grid(N, L, t, phis[block, None])
            m *= amp
            weights = np.zeros((block.size, size + 1))  # |D_{N,n}|^2, n = -1 .. K - 1
            weights[:, L + 2 :] = np.fft.irfft(m, size)[:, L + 1 :]
            big = weights[:, ::-1] > _ROW_CUT * weights.max(axis=1, keepdims=True)
            ends = size + 1 - np.argmax(big, axis=1)  # q_j up to j = 1 + the last weight kept
            weights = weights[:, : ends.max() + 2]
            q = _q(weights[:, :-2], weights[:, 1:-1], weights[:, 2:])
            for node, row, end in zip(block.tolist(), q, ends.tolist()):
                rows[node] = row[:end]
    lengths = [row.size for row in rows]
    starts = np.cumsum([0] + lengths[:-1])
    return np.concatenate(rows), np.arange(float(sum(lengths))) - np.repeat(starts, lengths), starts


# One table, of the last phi grid asked for, which every eps of a 1s sweep
# shares.  The grids of N >= 2 move with eps and never repeat.
@lru_cache(maxsize=1)
def _grid_table(state, constants, phis):
    """(w, rows) of one call's phi nodes: the weight column and the grid's q_j rows.

    state and constants are the call's, and phis is the tuple of all its
    phi nodes, which is the key of the one table kept.  w is the non-dipole
    weight closure of shifts._photon_weight at every node, the same floats
    as the shifts and rates, and rows is _fft_rows of the nodes
    phi <= PHI_OSCILLATORY_MAX, in their order.  Every array is read-only.
    """
    grid = np.array(phis)
    rows = _fft_rows(state.N, state.L, grid[grid <= PHI_OSCILLATORY_MAX])
    weight = _photon_weight(state, NON_DIPOLE, constants)
    w = np.array([weight(phi) for phi in phis])
    for array in (w, *rows):
        array.flags.writeable = False
    return w, rows


def _inner_t_integral_grid(rows, nus, eps):
    """int_0^inf e^{(i nu - eps) T} dQ/dT dT = -sum_j j q_j/(j - nu'), nu' = nu + i eps, one per node.

    rows is _fft_rows of the nodes.  As sum_j q_j = Q(0) = 0 the sum is
    taken as -nu' sum_j q_j/(j - nu'), which weighs the FFT's roundoff by
    nu'/(j - nu') in place of j/(j - nu'): where the sum cancels to 1e-8
    of the weights (high L at phi = 3.5) it reads 4e-14 of mpmath, not
    4e-12.  With d = j - nu, its real q_j make it two real sums a row.
    """
    q, j, starts = rows
    d = j - np.repeat(nus, np.diff(starts, append=q.size))
    scaled = q / (d * d + eps * eps)
    sums = _complex(np.add.reduceat(scaled * d, starts), eps * np.add.reduceat(scaled, starts))
    return -(nus + 1j * eps) * sums


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
    with composite Gauss-Kronrod grids in phi and the inner integral
    exact at each node; the real part estimates the Lamb shift and the
    imaginary part -Gamma/2 (in the same frequency units).  Meant to be
    extrapolated in eps; 0 < eps <= EPS_MAX, else ValueError before any
    integral starts.

    The nodes of every phi panel are one array: those up to
    PHI_OSCILLATORY_MAX are one _inner_t_integral_grid call, the rest one
    _inner_t_integral_spectral call (one kernel._euler_block).  The last
    phi grid's weights w(phi) and FFT rows q_j are kept as one table
    (_grid_table): for N = 1 the phi edges do not depend on eps, so the
    calls at the second and later eps of a sweep form no weight and
    sample no kernel.  For N >= 2 the edges refined around the poles
    ln(N/n) move with eps, and every call forms its own table, which
    replaces the last.  Each node's w(phi) comes from the non-dipole
    weight closure of shifts._photon_weight, the same floats as the
    shifts and rates.

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

    Nor is the layout converged at phi = 0.  _phi_breakpoints ladders the
    poles ln(N/n) for n = max(1, L) .. N - 1, but not the n = N term at
    phi = 0, whose peak j q_j/(j - nu - i eps) is about eps/N wide.
    Against the same edges with every panel split in four, the real and
    imaginary parts are off by 3.3e-7 and 5.6e-6 (1s), 9.0e-7 and 4.1e-5
    (2s) and 1.8e-4 and 1.0e-5 (2p) at eps = 0.0125, and the real part of
    3p by 1.8e-5 at eps = 0.025; splitting only the panels below
    phi = 0.25 lands within 3.7e-13 of that (tests/optin_eps_layout.py).
    The same ladder at phi = 0 closes the gap, and moves the values by it.
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
    w, rows = _grid_table(state, constants, tuple(phis.tolist()))
    inner = np.empty(phis.size, dtype=complex)
    grid = phis <= PHI_OSCILLATORY_MAX
    inner[grid] = _inner_t_integral_grid(rows, nus[grid], eps)
    inner[~grid] = _inner_t_integral_spectral(N, L, phis[~grid], nus[~grid], eps)
    values = w * inner
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


# The damping schedule of shift_via_eps_extrapolated, the 1s route of verify
EPS_SCHEDULE = (0.05, 0.025, 0.0125)


def shift_via_eps_extrapolated(state: QuantumState, constants: PhysicalConstants | None = None) -> complex:
    """Real-axis shift (complex MHz) extrapolated to zero damping from the eps of EPS_SCHEDULE."""
    values = [shift_via_eps_real_axis(state, eps, constants=constants) for eps in EPS_SCHEDULE]
    real, _ = neville_extrapolate(list(EPS_SCHEDULE), [v.real for v in values])
    imag, _ = neville_extrapolate(list(EPS_SCHEDULE), [v.imag for v in values])
    return complex(real, imag)
