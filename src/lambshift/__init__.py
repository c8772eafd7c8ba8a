"""Hydrogenic Lamb shifts and radiative decay rates.

Complex radiative energy shifts of hydrogen-like bound states from
closed-form SU(1,1) kernel matrix elements: Lamb shifts (real part, with
and without the dipole approximation), spontaneous decay rates (imaginary
part), Bethe logarithms, and reproductions of the published tables.
"""

from .constants import PhysicalConstants, default_constants, load_constants, rydberg_energy
from .kernel import residue_coeffs
from .quadrature import QuadratureResult, QuadratureSpec
from .shifts import (
    BetheResult,
    DipoleOptions,
    QuantumState,
    ShiftResult,
    bethe_log,
    decay_rates,
    dipole_lamb_full,
    generate_table,
    lamb_shift,
    weight_dipole,
    weight_nondipole,
)

__version__ = "0.1.0"

__all__ = [
    "BetheResult",
    "DipoleOptions",
    "PhysicalConstants",
    "QuadratureResult",
    "QuadratureSpec",
    "QuantumState",
    "ShiftResult",
    "bethe_log",
    "decay_rates",
    "default_constants",
    "dipole_lamb_full",
    "generate_table",
    "lamb_shift",
    "load_constants",
    "residue_coeffs",
    "rydberg_energy",
    "weight_dipole",
    "weight_nondipole",
]
