"""Lamb shifts, radiative decay rates, Bethe logarithms, and table reports.

The complex energy shift of a bound state splits into a real part (the
Lamb shift), a rotated-contour double integral plus one principal value
per open decay channel, and an imaginary part whose pole residues give the
partial decay rates in closed form.  The same residues subtract each pole
from its principal value in closed form, so one outer quadrature over phi
takes the whole real part.  A channel's pole phi_n = ln(N/n) and residue
depend on (N, L, n) alone, not on Z, the constants or the dipole switch,
so one table per state (_channels) holds them, computed once per process,
for its rates in both approximations, its shifts and its Bethe logarithm.
Every phi integrand of a shift is then set by (N, L) and a photon weight
w(phi) (_bracket_integrand), and its integral by these and its domain:
the dipole approximation differs only in the weight and in a finite
cutoff on phi.  The Bethe logarithm is that cutoff pushed to infinity,
with the weight in units of gamma, w = (e^{2 phi} - 1)/(2N): adding
Bethe's sum rule makes it one convergent phi integral, so no cutoff
extrapolation is needed.  The non-dipole weight is the smooth form of
Bethe's mc^2 cutoff and saturates past phi_w = ln(N/(Z a0)).  Each shift
and each Bethe logarithm is one quadrature over phi, refined against the
integral it reports: a semi-infinite domain ends on the last edge
math.inf, which makes the rest past the weight's transition, or past the
last Bethe cutoff, one panel in x = e^-phi (quadrature.integrate_panels).
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .constants import PhysicalConstants, default_constants
from .kernel import _INTEGERS, PhiKernel, fill_tau_integrals, residue_coeffs, validate_quantum_numbers
from .quadrature import (
    Diagnostics,
    QuadratureSpec,
    dyadic_edges_upto,
    integrate_panels,
    integrate_principal_value,  # noqa: F401  unused; perfbench/tracing.py wraps these names
    integrate_semi_infinite,  # noqa: F401
)

# Cutoffs x = hw/(2 mec2) at which bethe_log reports its running estimates;
# gamma itself does not depend on them.
BETHE_CUTOFFS = (1.0e3, 3.0e3, 1.0e4, 3.0e4, 1.0e5)

# Widest panel of the non-dipole shift's run from phi_L + 1 to phi_w
# (_transition_edges).  At 1.5 Table 1 takes 705 evaluations with no
# bisection; at 2 (3, 1) and (4, 1) bisect, 660 in 9 integrand calls.
_TRANSITION_WIDTH = 1.5


class QuantumState(namedtuple("QuantumState", "N L J Z")):
    """Bound-state label (N, L, optional J) of a hydrogen-like ion of charge Z."""

    __slots__ = ()

    def __new__(cls, N: int, L: int, J: float | None = None, Z: int = 1) -> "QuantumState":
        N, L = validate_quantum_numbers(N, L)
        if not isinstance(Z, _INTEGERS) or Z < 1:
            raise ValueError(f"nuclear charge must be a positive integer, got {Z!r}")
        if J is not None and not (
            isinstance(J, (float, numbers.Real)) and J >= 0.5 and abs(abs(J - L) - 0.5) <= 1e-12
        ):
            raise ValueError(f"J must be L +/- 1/2 and >= 1/2, got J={J!r} for L={L}")
        return tuple.__new__(cls, (N, L, J, int(Z)))


class DipoleOptions(namedtuple("DipoleOptions", "enabled cutoff_x")):
    """Dipole-approximation switch with its photon-energy cutoff x = hw/(2 mec2)."""

    __slots__ = ()

    def __new__(cls, enabled: bool = False, cutoff_x: float | None = None) -> "DipoleOptions":
        if enabled is not True and enabled is not False:
            raise ValueError(f"enabled must be True or False, got {enabled!r}")
        if cutoff_x is not None:
            if not enabled:
                raise ValueError("cutoff_x needs the dipole approximation: enabled=True, or --dipole")
            if not isinstance(cutoff_x, (float, int, numbers.Real)) or not 0 < cutoff_x < math.inf:
                raise ValueError(f"cutoff_x must be positive and finite, got {cutoff_x!r}")
        return tuple.__new__(cls, (enabled, cutoff_x))

    def phi_cut(self, state: QuantumState, constants: PhysicalConstants) -> float:
        """Upper end of the frequency integration: e^{2 phi} = 1 + 4 x (N/(Z a0))^2."""
        if self.cutoff_x is None:
            raise ValueError("cutoff-dependent dipole quantities need cutoff_x")
        ratio = state.N / (state.Z * constants.alpha0)
        return 0.5 * math.log1p(4.0 * self.cutoff_x * ratio * ratio)


NON_DIPOLE = DipoleOptions()


def _constants_for(state: QuantumState, constants: PhysicalConstants | None) -> PhysicalConstants:
    """constants, or the defaults, if state's Z alpha0 is below 1, the Dirac point-nucleus limit."""
    constants = constants or default_constants()
    if state.Z * constants.alpha0 >= 1.0:
        raise ValueError(f"Z alpha0 must be below 1, got Z={state.Z} and alpha0={constants.alpha0!r}")
    return constants


def shift_prefactor(state: QuantumState, constants: PhysicalConstants) -> float:
    """-4 mec2 a0 (Z a0)^2/(3 pi N^2) in eV, the factor of every shift integral."""
    N, Z = state.N, state.Z
    return -4.0 * constants.mec2_eV * constants.alpha0 * (Z * constants.alpha0) ** 2 / (
        3.0 * math.pi * N * N
    )


def bethe_amplitude(state: QuantumState, constants: PhysicalConstants) -> float:
    """(8 a0^3 Z^4/(3 pi N^3)) (mec2 a0^2/2) in eV, the scale of the Bethe logarithm."""
    N, Z = state.N, state.Z
    return (
        8.0
        * constants.alpha0**3
        * Z**4
        / (3.0 * math.pi * N**3)
        * (constants.mec2_eV * constants.alpha0**2 / 2.0)
    )


def weight_nondipole(state: QuantumState, phi: float, constants: PhysicalConstants) -> float:
    """Photon-energy weight 2x/(1+2x) with x(1+x) = (Z a0/N)^2 e^phi sinh(phi)/2."""
    return _photon_weight(state, NON_DIPOLE, constants)(phi)


def weight_dipole(state: QuantumState, phi: float, constants: PhysicalConstants) -> float:
    """Dipole-limit weight 2 x_d with x_d = (Z a0/N)^2 (e^{2 phi} - 1)/4."""
    return _photon_weight(state, DipoleOptions(enabled=True), constants)(phi)


def _photon_weight(state: QuantumState, options: DipoleOptions, constants: PhysicalConstants):
    """The photon-energy weight w(phi) of state's shift bracket and rates under options.

    The one place both weights are written (weight_nondipole and
    weight_dipole call it): a closure over the state's k = (Z a0/N)^2,
    formed once per state, so a node or a channel pays one expm1 and a
    product.  The non-dipole weight is w = 1 - (1 + s)^{-1/2} with
    s = k (e^{2 phi} - 1), kept accurate for small s; the dipole weight is
    w = (0.5 k)(e^{2 phi} - 1).  Both are the floats of the written
    formulas (Z a0/N)^2 expm1(2 phi) and 0.5 (Z a0/N)^2 expm1(2 phi)
    evaluated left to right, which square first and then multiply.
    """
    k = (state.Z * constants.alpha0 / state.N) ** 2
    if options.enabled:
        half = 0.5 * k

        def weight(phi: float) -> float:
            return half * math.expm1(2.0 * phi)

        return weight

    def weight(phi: float) -> float:
        try:
            s = k * math.expm1(2.0 * phi)
        except OverflowError:  # phi > 354.9, where s > 1e291 for N <= 10^6 and w rounds to 1
            return 1.0
        return -math.expm1(-0.5 * math.log1p(s))

    return weight


@lru_cache(maxsize=None)
def _channels(N: int, L: int) -> tuple[tuple[int, float, float], ...]:
    """(n, phi_n, R_n(phi_n)) for every open channel n = max(1, L) .. N-1 at its pole phi_n = ln(N/n).

    The one place a channel's pole and residue are computed, once per
    (N, L) per process: they do not depend on Z, the constants or the
    dipole switch, so the rates in both approximations, the pole strengths
    of every shift and the Bethe logarithm of a state all read them here.
    """
    poles = [(n, math.log(N / n)) for n in range(max(1, L), N)]
    return tuple((n, pole, residue_coeffs(N, L, pole, n)) for n, pole in poles)


def _partial_rates(state: QuantumState, weight, constants: PhysicalConstants) -> tuple:
    """(n, Gamma_n) in 10^6/s from the channels of _channels under the photon weight w(phi).

    The state's factors, -8 a0/(3 N^2) and mec2 (Z a0)^2/hbar, are formed
    once, outside the channel loop; each channel's product keeps its
    left-to-right order, factor R_n w(phi_n) base / 10^6.  The one closed
    channel, an s state decaying to 1s by one transverse photon (L = 0,
    n = 1), is reported as exactly 0.0: its residue vanishes analytically
    and is left with the roundoff of ln(N/n) alone.  Every other residue is
    kept, however small its rate.
    """
    N, L, Z = state.N, state.L, state.Z
    base = constants.mec2_eV * (Z * constants.alpha0) ** 2 / constants.hbar_eVs
    factor = -(8.0 * constants.alpha0 / (3.0 * N * N))
    return tuple([
        (n, 0.0 if L == 0 and n == 1 else factor * r_n * weight(pole) * base / 1.0e6)
        for n, pole, r_n in _channels(N, L)
    ])


def decay_rates(
    state: QuantumState,
    options: DipoleOptions = NON_DIPOLE,
    constants: PhysicalConstants | None = None,
) -> tuple[tuple[int, float], ...]:
    """Partial rates (n, Gamma_n) in 10^6/s for every open channel, closed form.

    Gamma_n = -(8 a0/(3 N^2)) R_n(cosh phi_0) w(phi_0) mec2 (Z a0)^2/hbar
    at the pole phi_0 = ln(N/n); the ground state has no channels.
    """
    constants = _constants_for(state, constants)
    return _partial_rates(state, _photon_weight(state, options, constants), constants)


def sum_rates(rates) -> float:
    """Correctly rounded total of partial rates (n, Gamma_n), for lamb_shift and the rates command."""
    return math.fsum(g for _, g in rates)


class ShiftResult(
    namedtuple(
        "ShiftResult",
        "state lamb_shift_MHz partial_rates total_rate tau_phi_term_MHz pv_term_MHz diagnostics converged",
        defaults=(None, True),
    )
):
    """Lamb shift with its rate table ((n, Gamma_n) pairs) and integration diagnostics."""

    __slots__ = ()

    def __new__(cls, *fields, **named) -> "ShiftResult":
        self = super().__new__(cls, *fields, **named)
        # by default an empty Diagnostics of its own: parts is a dict
        return self._replace(diagnostics=Diagnostics()) if self.diagnostics is None else self

    def as_dict(self) -> dict:
        return {
            "N": self.state.N,
            "L": self.state.L,
            "Z": self.state.Z,
            "lamb_shift_MHz": self.lamb_shift_MHz,
            "partial_rates_1e6_per_s": [[n, g] for n, g in self.partial_rates],
            "total_rate_1e6_per_s": self.total_rate,
            "tau_phi_term_MHz": self.tau_phi_term_MHz,
            "pv_term_MHz": self.pv_term_MHz,
            "converged": self.converged,
            "diagnostics": self.diagnostics.as_dict(),
        }


def _pole_pv(N: int, n: int, limit: float) -> float:
    """PV int_0^Phi e^(phi_n - phi)/(N e^-phi - n) dphi, phi_n = ln(N/n), Phi = limit (may be inf)."""
    return math.log((N - n) / (n - N * math.exp(-limit))) / n


def _phi_edges(terms, limit: float) -> tuple[float, ...]:
    """Panel edges of [0, limit]: 0, every pole, then doubling panels from the last pole.

    The dipole shifts end these panels at their cutoff, and the Bethe
    logarithm at its last cutoff before the last edge math.inf: their
    weights have no transition, so the panels may widen (_transition_edges
    is the non-dipole shift's layout).
    """
    lead = (0.0, *(pole for _, pole, _ in reversed(terms)))
    return lead[:-1] + dyadic_edges_upto(lead[-1], limit)


def _transition_edges(terms, transition: float) -> tuple[float, ...]:
    """Panel edges of [0, inf) for the non-dipole shift, whose weight turns over at phi_w = transition.

    0, every pole, the first panel [phi_L, phi_L + 1] from the last pole
    phi_L, then ceil((phi_w - phi_L - 1)/1.5) equal panels up to phi_w,
    and math.inf, whose panel (phi_T, inf) integrate_panels takes in
    x = e^-phi; phi_T = max(phi_w, phi_L + 1), so a transition within 1 of
    phi_L leaves the first panel alone.  The weight turns over about 1
    wide, and panels at most _TRANSITION_WIDTH = 1.5 wide resolve it in
    the first integrand call under the Legendre-tail panel estimate
    (quadrature._panel_error); under |K15 - G7| they had to be at most 1
    wide, at 840 Table-1 evaluations against 705.  The first panel is that
    of the doubling panels before it: high-L states, whose integral lies
    next to phi_L, bisect it towards the pole as they did (a first panel
    0.997 wide moved (50, 49) by 1.6e-11 and (86, 85) at a0 = 1e-5 by 4e-11
    of the Bethe logarithm, near the roundoff of their 2.6e3-fold
    cancellation).
    """
    lead = (0.0, *(pole for _, pole, _ in reversed(terms)))
    start = lead[-1] + 1.0
    count = math.ceil((transition - start) / _TRANSITION_WIDTH)  # <= 0 where phi_T = start
    return (*lead, *(start + (transition - start) * k / count for k in range(count)), max(transition, start), math.inf)


def _bracket_integrand(N: int, L: int, weight):
    """(integrand, terms): the phi integrand of a bracket under the photon
    weight w(phi), and the closed-form pole terms it subtracts.

    terms holds (n, phi_n, A_n) per open channel of _channels, with the
    pole strength A_n = w(phi_n) n R_n(phi_n), the residue behind Gamma_n.
    Up to Phi, the principal value of channel n is A_n _pole_pv(N, n, Phi) plus

        int_0^Phi [w n R_n - A_n e^(phi_n - phi)]/(N e^-phi - n) dphi,

    whose integrand is regular.  Its denominator is taken as
    n expm1(phi_n - phi), zero only at the pole itself: at tight
    tolerances the refinement reaches nodes within an ulp of the pole,
    where N e^-phi rounds to exactly n.  The poles are panel edges, so no
    node comes near the cancellation in the subtracted numerator.

    The integrand maps an array of phi nodes to rows (w tau integral, sum
    of these regular integrands).  Every call is one block, whatever its
    nodes: it builds their kernels, fills all their tau integrals at once
    (kernel.fill_tau_integrals, which returns their residues), calls each
    kernel's tau_integral once to read its value, and forms the PV column
    as arrays over the nodes.  The first call takes every starting panel
    of the layout, so with the non-dipole shift's panels at most 1.5 wide
    through the weight's transition (_transition_edges) one call resolves
    a Table-1 state; only a bisection makes another.  Each node's w comes
    from the scalar weight function of the rates and pole strengths, and
    each gap expm1(phi_n - phi) from math.expm1: numpy's first expm1 pages
    in its code, ~0.1 MB of a pass's peak memory, and a vectorized weight
    and gap measured within noise.  An inner integral that fails raises,
    so every value read has converged.
    """
    terms = [(n, pole, weight(pole) * n * r) for n, pole, r in _channels(N, L)]
    start = max(1, L)
    poles = [pole for _, pole, _ in terms]
    n = np.array([[n for n, _, _ in terms]], dtype=float)
    strengths = np.array([[a for _, _, a in terms]], dtype=float)

    def integrand(phis: np.ndarray) -> np.ndarray:
        nodes = phis.tolist()
        kernels = [PhiKernel(N, L, phi) for phi in nodes]
        residues = fill_tau_integrals(kernels)[:, start:]
        tau = np.array([ker.tau_integral()[0] for ker in kernels])
        w = np.array([weight(phi) for phi in nodes])
        nu = np.array([ker.nu for ker in kernels])[:, None]
        gaps = np.array([math.expm1(pole - phi) for phi in nodes for pole in poles]).reshape(len(nodes), len(poles))
        regular = (w[:, None] * n * residues - strengths * (nu / n)) / (n * gaps)
        return np.stack((w * tau, regular.sum(axis=1)), axis=1)

    return integrand, terms


def lamb_shift(
    state: QuantumState,
    options: DipoleOptions = NON_DIPOLE,
    spec: QuadratureSpec | None = None,
    constants: PhysicalConstants | None = None,
) -> ShiftResult:
    """Lamb shift (10^6 Hz) plus the partial and total decay rates.

    Real part of the rotated-contour representation: the prefactor
    -4 mec2 a0 (Z a0)^2/(3 pi N^2) multiplies the phi integral, up to Phi,
    of the weighted inner tau integral plus one principal value per decay
    channel.  Phi is the cutoff phi of a dipole shift, whose doubling
    panels run from the last pole to it (_phi_edges), and math.inf for the
    non-dipole shift, whose weight turns over about 1 wide around
    phi_w = ln(N/(Z a0)) and saturates past it (_transition_edges).  Both
    terms are one two-column quadrature of _bracket_integrand, the
    tau_phi_integral part, refined against the integral it reports, plus
    the pole terms it subtracts; the rates read the same residues under
    the same photon weight.
    """
    constants = _constants_for(state, constants)
    N, L = state.N, state.L
    limit = options.phi_cut(state, constants) if options.enabled else math.inf
    weight = _photon_weight(state, options, constants)
    integrand, terms = _bracket_integrand(N, L, weight)
    if terms and limit <= terms[0][1] + 1.0e-6:
        raise ValueError(f"dipole cutoff phi={limit:.3f} does not clear the pole at {terms[0][1]:.3f}")
    if limit == math.inf:
        edges = _transition_edges(terms, math.log(N / (state.Z * constants.alpha0)))
    else:
        edges = _phi_edges(terms, limit)
    outer = integrate_panels(integrand, edges, spec)
    tau, regular = outer.columns
    pv = math.fsum([regular, *(a * _pole_pv(N, n, limit) for n, _, a in terms)])
    prefactor = shift_prefactor(state, constants)
    tau_MHz = constants.eV_to_MHz(prefactor * tau)
    # no open channel (N = 1): report the empty PV term as 0.0, not a negative prefactor times 0.0
    pv_MHz = constants.eV_to_MHz(prefactor * pv) if terms else 0.0
    rates = _partial_rates(state, weight, constants)
    return ShiftResult(
        state=state,
        lamb_shift_MHz=tau_MHz + pv_MHz,
        partial_rates=rates,
        total_rate=sum_rates(rates),
        tau_phi_term_MHz=tau_MHz,
        pv_term_MHz=pv_MHz,
        diagnostics=Diagnostics({"tau_phi_integral": outer}),
        converged=outer.converged,
    )


class BetheResult(
    namedtuple(
        "BetheResult",
        "N L gamma mean_excitation_Ry cutoffs_used estimates error_estimate converged diagnostics",
        defaults=(None,),
    )
):
    """Bethe logarithm, its mean excitation energy and its phi integral.

    estimates are the dipole-shift estimates of gamma at the cutoffs_used,
    error_estimate the summed panel error estimate of the phi integral
    (quadrature._panel_error), both in units of gamma; diagnostics holds
    that integral as its one part, tau_phi_integral, as for a shift.
    """

    __slots__ = ()

    def __new__(cls, *fields, **named) -> "BetheResult":
        self = super().__new__(cls, *fields, **named)
        # by default an empty Diagnostics of its own: parts is a dict
        return self._replace(diagnostics=Diagnostics()) if self.diagnostics is None else self

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "L": self.L,
            "bethe_log": self.gamma,
            "mean_excitation_Ry": self.mean_excitation_Ry,
            "cutoffs_used": list(self.cutoffs_used),
            "estimates": list(self.estimates),
            "error_estimate": self.error_estimate,
            "converged": self.converged,
            "diagnostics": self.diagnostics.as_dict(),
        }


def bethe_log(
    N: int,
    L: int,
    constants: PhysicalConstants | None = None,
    spec: QuadratureSpec | None = None,
    Z: int = 1,
) -> BetheResult:
    """Bethe logarithm gamma(N, L) as one convergent integral over phi.

    In units of gamma the dipole weight is w(phi) = (e^{2 phi} - 1)/(2N),
    the dipole weight of lamb_shift times N/(Z a0)^2, and its bracket
    integrand (_bracket_integrand) plus the sum rule is

        h(phi) = tau column + subtracted PV column + 2 delta_{L0},

    which does not depend on Z or the constants and decays like e^-phi;
    they enter only through the phi of the reported cutoffs.  The
    constant 2 is Bethe's sum rule (H. A. Bethe, Phys. Rev. 72, 339
    (1947)): it is the limit of minus the bracket of an s state as the
    cutoff goes to infinity, where it cancels the ln 4x of the cutoff
    shift.  Then

        gamma = int_0^inf h dphi + sum_n A_n _pole_pv(N, n, inf) - 2 delta_{L0} ln N

    with A_n = w(phi_n) n R_n(phi_n) the pole strengths under that weight.
    The integral is one quadrature, refined against its own value, the
    scale of gamma.  Its phi panels, with the poles as edges, end at the
    phi Phi_5 of the last of the BETHE_CUTOFFS, and the last edge math.inf
    makes the rest one panel in x = e^-phi, int_0^{e^-Phi_5} h(-ln x) dx/x,
    whose integrand tends to a constant: one panel takes it at the default
    tolerances, and no node comes near phi = 355, where the dipole weight
    overflows, as the doubling panels of a semi-infinite domain would at
    tight tolerances.  rel_tol is relative to int_0^inf h, not to gamma.

    The phi of the cutoffs are marks of the integral (integrate_panels),
    whose running sums are the estimates
    -DeltaE(x)/A + delta_{L0} (ln 4x - 2 ln(Z a0)) of the dipole shift at
    each cutoff x, with A = bethe_amplitude, in the form
    int_0^Phi h + sum_n A_n _pole_pv(N, n, Phi) + delta_{L0} (ln(1 - e^{-2 Phi}) - 2 ln N).
    A cutoff inside a panel reads the integral up to it off the degree-14
    interpolant of that panel's nodes, integrated exactly by the panel's
    own 15-node rule mapped onto the stretch below the cutoff, so the
    estimates take no nodes of their own.
    """
    state = QuantumState(N=N, L=L, Z=Z)
    N, L, constants = state.N, state.L, _constants_for(state, constants)
    limits = [DipoleOptions(enabled=True, cutoff_x=x).phi_cut(state, constants) for x in BETHE_CUTOFFS]

    def weight(phi: float) -> float:
        return math.expm1(2.0 * phi) / (2 * N)

    bracket, terms = _bracket_integrand(N, L, weight)
    sum_rule = 2.0 if L == 0 else 0.0

    def h(phis: np.ndarray) -> np.ndarray:
        return bracket(phis).sum(axis=1) + sum_rule

    outer = integrate_panels(h, (*_phi_edges(terms, limits[-1]), math.inf), spec, marks=limits)
    diag = Diagnostics({"tau_phi_integral": outer})

    def closed(limit: float) -> list[float]:
        """The pole terms and delta_{L0} (ln(1 - e^{-2 Phi}) - 2 ln N) at the upper limit Phi."""
        return [
            *(a * _pole_pv(N, n, limit) for n, _, a in terms),
            sum_rule * (0.5 * math.log(-math.expm1(-2.0 * limit)) - math.log(N)),
        ]

    estimates = [math.fsum([running, *closed(phi)]) for running, phi in zip(outer.running, limits)]
    gamma = math.fsum([outer.value, *closed(math.inf)])
    return BetheResult(
        N=N,
        L=L,
        gamma=gamma,
        mean_excitation_Ry=math.exp(gamma),
        cutoffs_used=BETHE_CUTOFFS,
        estimates=tuple(estimates),
        error_estimate=outer.error_estimate,
        converged=outer.converged,
        diagnostics=diag,
    )


def dipole_lamb_full(
    state: QuantumState,
    gamma: float,
    constants: PhysicalConstants | None = None,
) -> tuple[float, float]:
    """Dipole Lamb shift in MHz with and without the high-energy QED constant.

    (8 a0^3 Z^4/(3 pi N^3)) (mec2 a0^2/2) x [19/30 - gamma - 2 ln(Z a0)]
    for s states (J = 1/2); for L >= 1 the constant is 3 c_{L,J}/(8(2L+1))
    with c = 1/(L+1) or -1/L for J = L +/- 1/2.
    """
    if state.J is None:
        raise ValueError("state needs a total angular momentum J")
    constants = _constants_for(state, constants)
    L, Z = state.L, state.Z
    amplitude = bethe_amplitude(state, constants)
    if L == 0:
        atomic = -gamma - 2.0 * math.log(Z * constants.alpha0)
        qed = 19.0 / 30.0
    else:
        atomic = -gamma
        c_lj = 1.0 / (L + 1) if state.J > L else -1.0 / L
        qed = 3.0 * c_lj / (8.0 * (2 * L + 1))
    full = constants.eV_to_MHz(amplitude * (qed + atomic))
    without_qed = constants.eV_to_MHz(amplitude * atomic)
    return full, without_qed


class TableCell(
    namedtuple(
        "TableCell",
        "table_id N L J n quantity unit computed reference rel_dev converged",
        defaults=(True,),
    )
):
    """One scalar of a reproduced table, paired with its published value.

    J and the channel n are None where the quantity has none, reference and
    rel_dev = (computed - reference)/|reference| where no value is published.
    """

    __slots__ = ()


def _load_reference_values() -> dict:
    """The published table values keyed by (table_id, quantity, N, L, J, n).

    csv and importlib.resources load here, not on import.
    """
    import csv
    from importlib import resources

    refs = {}
    path = resources.files("lambshift").joinpath("data/reference_tables.csv")
    with path.open("r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (
                int(row["table_id"]),
                row["quantity"],
                int(row["N"]),
                int(row["L"]),
                float(row["J"]) if row["J"] else None,
                int(row["n"]) if row["n"] else None,
            )
            refs[key] = float(row["value"])
    return refs


def _cell(refs, table_id, N, L, J, n, quantity, unit, computed, converged=True) -> TableCell:
    reference = refs.get((table_id, quantity, N, L, J, n))
    rel_dev = None
    if reference is not None and reference != 0.0:
        rel_dev = (computed - reference) / abs(reference)
    return TableCell(table_id, N, L, J, n, quantity, unit, computed, reference, rel_dev, converged)


TABLE1_STATES = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1))
TABLE2_STATES = ((1, 0), (2, 0), (3, 0), (4, 0))
TABLE3_STATES = ((2, 1), (3, 1), (4, 1))


def generate_table(
    table_id: int,
    constants: PhysicalConstants | None = None,
    spec: QuadratureSpec | None = None,
) -> list[TableCell]:
    """Recompute every numeric cell of one published table with deviations."""
    constants = constants or default_constants()
    refs = _load_reference_values()
    cells: list[TableCell] = []

    if table_id == 1:
        for N, L in TABLE1_STATES:
            state = QuantumState(N=N, L=L)
            result = lamb_shift(state, NON_DIPOLE, spec, constants)
            cells.append(_cell(refs, 1, N, L, None, None, "lamb_shift", "MHz", result.lamb_shift_MHz,
                               result.converged))
            # the published table prints a zero-rate line for the stable
            # ground state, so every state gets at least one rate cell
            for n in range(1, max(N, 2)):
                rate = dict(result.partial_rates).get(n, 0.0)
                cells.append(_cell(refs, 1, N, L, None, n, "partial_rate", "1e6/s", rate))
        return cells

    if table_id in (2, 3):
        states = TABLE2_STATES if table_id == 2 else TABLE3_STATES
        j_values = (0.5,) if table_id == 2 else (0.5, 1.5)
        for N, L in states:
            bethe = bethe_log(N, L, constants, spec)
            # every cell derived from gamma inherits its convergence flag
            ok = bethe.converged
            cells.append(_cell(refs, table_id, N, L, None, None, "bethe_log", "1", bethe.gamma, ok))
            cells.append(_cell(
                refs, table_id, N, L, None, None, "mean_excitation", "Ry", bethe.mean_excitation_Ry, ok
            ))
            for J in j_values:
                state = QuantumState(N=N, L=L, J=J)
                # the part without the QED constant does not depend on J
                full, without = dipole_lamb_full(state, bethe.gamma, constants)
                cells.append(
                    _cell(refs, table_id, N, L, J, None, "lamb_shift_dipole", "MHz", full, ok)
                )
            cells.append(
                _cell(refs, table_id, N, L, None, None, "lamb_shift_dipole_atomic", "MHz", without, ok)
            )
            dipole = DipoleOptions(enabled=True)
            dipole_rates = dict(decay_rates(QuantumState(N=N, L=L), dipole, constants))
            for n in range(1, max(N, 2)):
                rate = dipole_rates.get(n, 0.0)
                cells.append(_cell(refs, table_id, N, L, None, n, "partial_rate_dipole", "1e6/s", rate))
        return cells

    raise ValueError(f"unknown table id {table_id!r} (expected 1, 2 or 3)")
