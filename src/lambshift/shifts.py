"""Lamb shifts, radiative decay rates, Bethe logarithms, and table reports.

The complex energy shift of a bound state splits into a real part (the
Lamb shift), a rotated-contour double integral plus one principal value
per open decay channel, and an imaginary part whose pole residues give the
partial decay rates in closed form.  The same residues subtract each pole
from its principal value in closed form, so one outer quadrature over phi
takes the whole real part.  The dipole approximation differs only in the
photon-energy weight and in a finite cutoff on the frequency integration;
pushing that cutoff to infinity and removing the known logarithm yields
the Bethe logarithm.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .constants import PhysicalConstants, default_constants
from .kernel import PhiKernel, residue_coeffs, validate_quantum_numbers
from .quadrature import (
    Diagnostics,
    QuadratureResult,
    QuadratureSpec,
    dyadic_edges_upto,
    integrate_panels,
    integrate_principal_value,  # noqa: F401  unused; perfbench/tracing.py wraps this name
    integrate_semi_infinite,
)

DEFAULT_BETHE_CUTOFFS = (1.0e3, 3.0e3, 1.0e4, 3.0e4, 1.0e5)


@dataclass(frozen=True)
class QuantumState:
    """Bound-state label (N, L, optional J) of a hydrogen-like ion of charge Z."""

    N: int
    L: int
    J: float | None = None
    Z: int = 1

    def __post_init__(self) -> None:
        validate_quantum_numbers(self.N, self.L)
        if self.Z < 1 or self.Z != int(self.Z):
            raise ValueError(f"nuclear charge must be a positive integer, got {self.Z!r}")
        if self.J is not None:
            if self.J < 0.5 or abs(abs(self.J - self.L) - 0.5) > 1e-12:
                raise ValueError(f"J must be L +/- 1/2 and >= 1/2, got J={self.J!r} for L={self.L}")


@dataclass(frozen=True)
class DipoleOptions:
    """Dipole-approximation switch with its photon-energy cutoff x = hw/(2 mec2)."""

    enabled: bool = False
    cutoff_x: float | None = None

    def __post_init__(self) -> None:
        if self.cutoff_x is not None:
            if not math.isfinite(self.cutoff_x) or self.cutoff_x <= 0:
                raise ValueError(f"cutoff_x must be positive and finite, got {self.cutoff_x!r}")

    def phi_cut(self, state: QuantumState, constants: PhysicalConstants) -> float:
        """Upper end of the frequency integration: e^{2 phi} = 1 + 4 x (N/(Z a0))^2."""
        if self.cutoff_x is None:
            raise ValueError("cutoff-dependent dipole quantities need cutoff_x")
        ratio = state.N / (state.Z * constants.alpha0)
        return 0.5 * math.log1p(4.0 * self.cutoff_x * ratio * ratio)


NON_DIPOLE = DipoleOptions()


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
    s = (state.Z * constants.alpha0 / state.N) ** 2 * math.expm1(2.0 * phi)
    # w = 1 - (1+s)^{-1/2}, kept accurate for small s
    return -math.expm1(-0.5 * math.log1p(s))


def weight_dipole(state: QuantumState, phi: float, constants: PhysicalConstants) -> float:
    """Dipole-limit weight 2 x_d with x_d = (Z a0/N)^2 (e^{2 phi} - 1)/4."""
    return 0.5 * (state.Z * constants.alpha0 / state.N) ** 2 * math.expm1(2.0 * phi)


def _weight(state, phi, options: DipoleOptions, constants) -> float:
    if options.enabled:
        return weight_dipole(state, phi, constants)
    return weight_nondipole(state, phi, constants)


def _pole_channels(state: QuantumState, options: DipoleOptions, constants: PhysicalConstants) -> list:
    """(n, w(phi_n), R_n(phi_n)) for every open channel n at its pole phi_n = ln(N/n).

    The one place a channel's residue is computed: lamb_shift passes these
    to both the pole strengths of its shift and its rates.
    """
    N, L = state.N, state.L
    channels = []
    for n in range(max(1, L), N):
        pole = math.log(N / n)
        channels.append((n, _weight(state, pole, options, constants), residue_coeffs(N, L, pole, n)))
    return channels


def _partial_rates(state: QuantumState, constants: PhysicalConstants, channels) -> tuple:
    """(n, Gamma_n) in 10^6/s from the channels of _pole_channels."""
    N, Z = state.N, state.Z
    base = constants.mec2_eV * (Z * constants.alpha0) ** 2 / constants.hbar_eVs
    tiny = 1.0e-12 * constants.rate_unit_per_s(Z) / 1.0e6  # roundoff of a forbidden channel
    rates = []
    for n, w, r_n in channels:
        gamma = -(8.0 * constants.alpha0 / (3.0 * N * N)) * r_n * w * base / 1.0e6
        rates.append((n, 0.0 if abs(gamma) < tiny else gamma))
    return tuple(rates)


def decay_rates(
    state: QuantumState,
    options: DipoleOptions = NON_DIPOLE,
    constants: PhysicalConstants | None = None,
) -> tuple[tuple[int, float], ...]:
    """Partial rates (n, Gamma_n) in 10^6/s for every open channel, closed form.

    Gamma_n = -(8 a0/(3 N^2)) R_n(cosh phi_0) w(phi_0) mec2 (Z a0)^2/hbar
    at the pole phi_0 = ln(N/n); the ground state has no channels.
    """
    constants = constants or default_constants()
    return _partial_rates(state, constants, _pole_channels(state, options, constants))


def sum_rates(rates) -> float:
    """Correctly rounded total of partial rates (n, Gamma_n), for lamb_shift and the rates command."""
    return math.fsum(g for _, g in rates)


def circular_rate_closed_form(
    N: int, Z: int = 1, constants: PhysicalConstants | None = None
) -> float:
    """Dipole decay rate of the maximal-angular-momentum state (N, L=N-1), 10^6/s.

    Gamma = (2/3) (N-1/2) / (N^4 (N-1)^2) (1 + 1/(4N(N-1)))^{-2N} in units
    of mec2 a0 (Z a0)^4 / hbar.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    constants = constants or default_constants()
    unit = constants.rate_unit_per_s(Z)
    shape = (2.0 / 3.0) * (N - 0.5) / (N**4 * (N - 1) ** 2)
    shape *= (1.0 + 1.0 / (4.0 * N * (N - 1))) ** (-2 * N)
    return shape * unit / 1.0e6


@dataclass
class ShiftResult:
    """Lamb shift with its rate table and integration diagnostics."""

    state: QuantumState
    lamb_shift_MHz: float
    partial_rates: tuple[tuple[int, float], ...]
    total_rate: float
    tau_phi_term_MHz: float
    pv_term_MHz: float
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    converged: bool = True

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


def _pole_pv(N: int, n: int, limit: float | None) -> float:
    """PV int_0^Phi e^(phi_n - phi)/(N e^-phi - n) dphi, phi_n = ln(N/n), Phi = limit or infinity."""
    return math.log((N - n) / (n - (0.0 if limit is None else N * math.exp(-limit)))) / n


def _shift_bracket(
    state: QuantumState,
    options: DipoleOptions,
    spec: QuadratureSpec | None,
    constants: PhysicalConstants,
    limits: tuple[float | None, ...],
    pole_channels: list,
) -> list[tuple[float, float, Diagnostics]]:
    """The two bracket terms of the shift in MHz, (tau term, PV term, diagnostics),
    at each of the ascending upper limits Phi of phi: (None,) for the
    semi-infinite non-dipole shift, the cutoff phi values of dipole shifts.

    Each channel's principal value loses its pole phi_n = ln(N/n) by
    singularity subtraction.  With the pole strength A_n = w(phi_n) n R_n(phi_n),
    the residue behind Gamma_n, it is A_n _pole_pv(N, n, Phi) plus

        int_0^Phi [w n R_n - A_n e^(phi_n - phi)]/(N e^-phi - n) dphi,

    whose integrand is regular.  Its denominator is taken as
    n expm1(phi_n - phi), zero only at the pole itself: at tight
    tolerances the refinement reaches nodes within an ulp of the pole,
    where N e^-phi rounds to exactly n.  One two-column quadrature takes the tau
    integrand and the sum of these at the same nodes.  The poles are the
    first panel edges, so no node comes near the cancellation in the
    subtracted numerator.  [0, Phi_1] is integrated as a shift with that
    limit and each increment [Phi_i, Phi_{i+1}] once on a panel of its own;
    results are running sums, diagnostics included.  pole_channels come
    from _pole_channels, so a caller that also reports rates computes each
    channel's residue once.
    """
    N, L = state.N, state.L
    spec = spec or QuadratureSpec()
    first = limits[0]
    inner_ok = True
    channels = range(max(1, L), N)
    poles = [math.log(N / n) for n in channels]
    if first is not None and poles and first <= poles[0] + 1.0e-6:
        raise ValueError(f"dipole cutoff phi={first:.3f} does not clear the pole at {poles[0]:.3f}")
    strengths = [w * n * r for n, w, r in pole_channels]

    def integrand(phis: np.ndarray) -> np.ndarray:
        nonlocal inner_ok
        rows = []
        for phi in phis.tolist():
            ker = PhiKernel(N, L, phi)
            value, _, _, ok = ker.tau_integral()
            inner_ok &= ok
            weight = _weight(state, phi, options, constants)
            nx = ker.nu
            regular = math.fsum(
                (weight * n * r - a * (nx / n)) / (n * math.expm1(pole - phi))
                for n, pole, a, r in zip(channels, poles, strengths, ker.residues[channels.start:])
            )
            rows.append((weight * value, regular))
        return np.array(rows)

    lead = (0.0, *poles[::-1])
    if first is None:
        outer = integrate_semi_infinite(integrand, spec, points=lead[1:])
    else:
        outer = integrate_panels(integrand, lead[:-1] + dyadic_edges_upto(lead[-1], first), spec)
    outer.converged &= inner_ok
    prefactor = shift_prefactor(state, constants)

    def bracket(outer: QuadratureResult, limit: float | None) -> tuple[float, float, Diagnostics]:
        diag = Diagnostics()
        diag.record("tau_phi_integral", outer)
        tau, regular = outer.columns
        pv = math.fsum([regular, *(a * _pole_pv(N, n, limit) for n, a in zip(channels, strengths))])
        return constants.eV_to_MHz(prefactor * tau), constants.eV_to_MHz(prefactor * pv), diag

    brackets = [bracket(outer, first)]
    for lo, hi in zip(limits, limits[1:]):
        outer = outer + integrate_panels(integrand, (lo, hi), spec)
        outer.converged &= inner_ok
        brackets.append(bracket(outer, hi))
    return brackets


def lamb_shift(
    state: QuantumState,
    options: DipoleOptions = NON_DIPOLE,
    spec: QuadratureSpec | None = None,
    constants: PhysicalConstants | None = None,
) -> ShiftResult:
    """Lamb shift (10^6 Hz) plus the partial and total decay rates.

    Real part of the rotated-contour representation: the prefactor
    -4 mec2 a0 (Z a0)^2/(3 pi N^2) multiplies the phi integral of the
    weighted inner tau integral plus one principal value per decay channel.
    """
    constants = constants or default_constants()
    limit = options.phi_cut(state, constants) if options.enabled else None
    channels = _pole_channels(state, options, constants)
    ((tau_MHz, pv_MHz, diag),) = _shift_bracket(state, options, spec, constants, (limit,), channels)

    rates = _partial_rates(state, constants, channels)
    return ShiftResult(
        state=state,
        lamb_shift_MHz=tau_MHz + pv_MHz,
        partial_rates=rates,
        total_rate=sum_rates(rates),
        tau_phi_term_MHz=tau_MHz,
        pv_term_MHz=pv_MHz,
        diagnostics=diag,
        converged=diag.converged,
    )


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


@dataclass
class BetheResult:
    """Cutoff-extrapolated Bethe logarithm and its mean excitation energy."""

    N: int
    L: int
    gamma: float
    mean_excitation_Ry: float
    cutoffs_used: tuple[float, ...]
    estimates: tuple[float, ...]
    extrapolation_residual: float
    converged: bool

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "L": self.L,
            "bethe_log": self.gamma,
            "mean_excitation_Ry": self.mean_excitation_Ry,
            "cutoffs_used": list(self.cutoffs_used),
            "estimates": list(self.estimates),
            "extrapolation_residual": self.extrapolation_residual,
            "converged": self.converged,
        }


def bethe_log(
    N: int,
    L: int,
    cutoffs=DEFAULT_BETHE_CUTOFFS,
    constants: PhysicalConstants | None = None,
    spec: QuadratureSpec | None = None,
    Z: int = 1,
) -> BetheResult:
    """Bethe logarithm gamma(N, L) from cutoff dipole shifts.

    Each cutoff x gives the estimate -DeltaE(x)/A + delta_{L,0}
    (ln 4x - 2 ln(Z a0)) with A = (8 a0^3 Z^4/(3 pi N^3)) mec2 a0^2/2;
    the sequence is extrapolated to infinite cutoff in e^{-phi_cut}.
    All cutoffs come from one pass over phi (_shift_bracket): the first
    cutoff's shift plus one increment per further cutoff.
    """
    constants = constants or default_constants()
    cutoffs = tuple(float(x) for x in cutoffs)
    if len(cutoffs) < 3 or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("need at least three ascending cutoff values")
    state = QuantumState(N=N, L=L, Z=Z)
    amplitude = bethe_amplitude(state, constants)
    limits = tuple(DipoleOptions(enabled=True, cutoff_x=x).phi_cut(state, constants) for x in cutoffs)
    options = DipoleOptions(enabled=True)
    channels = _pole_channels(state, options, constants)
    brackets = _shift_bracket(state, options, spec, constants, limits, channels)
    estimates = []
    for x, (tau_MHz, pv_MHz, _) in zip(cutoffs, brackets):
        estimate = -constants.MHz_to_eV(tau_MHz + pv_MHz) / amplitude
        if L == 0:
            estimate += math.log(4.0 * x) - 2.0 * math.log(Z * constants.alpha0)
        estimates.append(estimate)
    nodes = [math.exp(-phi) for phi in limits]
    ok = all(diag.converged for _, _, diag in brackets)

    gamma, residual = neville_extrapolate(nodes, estimates)
    diffs = [b - a for a, b in zip(estimates, estimates[1:])]
    monotone = all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)
    converged = ok and monotone and residual < 1.0e-4 * abs(gamma) + 0.01
    return BetheResult(
        N=N,
        L=L,
        gamma=gamma,
        mean_excitation_Ry=math.exp(gamma),
        cutoffs_used=cutoffs,
        estimates=tuple(estimates),
        extrapolation_residual=residual,
        converged=converged,
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
    constants = constants or default_constants()
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


@dataclass(frozen=True)
class TableCell:
    """One scalar of a reproduced table, paired with its published value."""

    table_id: int
    N: int
    L: int
    J: float | None
    n: int | None
    quantity: str
    unit: str
    computed: float
    reference: float | None
    rel_dev: float | None
    converged: bool = True


def _load_reference_values() -> dict:
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
    bethe_cutoffs=DEFAULT_BETHE_CUTOFFS,
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
            bethe = bethe_log(N, L, bethe_cutoffs, constants, spec)
            # every cell derived from gamma inherits its convergence flag
            ok = bethe.converged
            cells.append(_cell(refs, table_id, N, L, None, None, "bethe_log", "1", bethe.gamma, ok))
            cells.append(_cell(
                refs, table_id, N, L, None, None, "mean_excitation", "Ry", bethe.mean_excitation_Ry, ok
            ))
            for J in j_values:
                state = QuantumState(N=N, L=L, J=J)
                full, _ = dipole_lamb_full(state, bethe.gamma, constants)
                cells.append(
                    _cell(refs, table_id, N, L, J, None, "lamb_shift_dipole", "MHz", full, ok)
                )
            _, without = dipole_lamb_full(QuantumState(N=N, L=L, J=L + 0.5), bethe.gamma, constants)
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
