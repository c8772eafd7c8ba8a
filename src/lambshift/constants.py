"""Physical constants and unit conversions.

Everything downstream works in dimensionless variables; eV, Hz and s^-1
appear only through the converters defined here.  The pinned constant set
is CODATA 2018, stored both in code and in the ``data/codata2018.txt``
fixture so it can be overridden from the command line.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import namedtuple

# CODATA 2018 values.
ALPHA0_CODATA2018 = 7.2973525693e-3          # fine-structure constant
MEC2_EV_CODATA2018 = 510998.95000            # electron rest energy, eV
HBAR_EVS_CODATA2018 = 6.582119569e-16        # reduced Planck constant, eV s


class PhysicalConstants(namedtuple("PhysicalConstants", "alpha0 mec2_eV hbar_eVs")):
    """Fine-structure constant, electron rest energy (eV), hbar (eV s)."""

    __slots__ = ()

    def __new__(
        cls,
        alpha0: float = ALPHA0_CODATA2018,
        mec2_eV: float = MEC2_EV_CODATA2018,
        hbar_eVs: float = HBAR_EVS_CODATA2018,
    ) -> "PhysicalConstants":
        if not all(isinstance(v, (float, int, numbers.Real)) and 0 < v < math.inf for v in (alpha0, mec2_eV, hbar_eVs)):
            raise ValueError(
                "physical constants must be finite and positive, got "
                f"alpha0={alpha0!r}, mec2_eV={mec2_eV!r}, hbar_eVs={hbar_eVs!r}"
            )
        if alpha0 >= 1.0:  # the bound-state energies and the expansion in Z alpha0 need alpha0 < 1
            raise ValueError(f"the fine-structure constant must be below 1, got alpha0={alpha0!r}")
        return tuple.__new__(cls, (alpha0, mec2_eV, hbar_eVs))

    def energy_unit_eV(self, Z: int) -> float:
        """Atomic energy unit E0 = mec2 (Z alpha0)^2 in eV."""
        return self.mec2_eV * (Z * self.alpha0) ** 2

    def rate_unit_per_s(self, Z: int) -> float:
        """Natural decay-rate unit mec2 alpha0 (Z alpha0)^4 / hbar in 1/s."""
        return self.mec2_eV * self.alpha0 * (Z * self.alpha0) ** 4 / self.hbar_eVs

    def eV_to_MHz(self, energy_eV: float) -> float:
        """Convert an energy to the frequency E/h in units of 10^6 Hz."""
        h = 2.0 * math.pi * self.hbar_eVs
        return energy_eV / h / 1.0e6

    def MHz_to_eV(self, freq_MHz: float) -> float:
        h = 2.0 * math.pi * self.hbar_eVs
        return freq_MHz * 1.0e6 * h


def default_constants() -> PhysicalConstants:
    """CODATA 2018 constant set."""
    return PhysicalConstants()


def rydberg_energy(constants: PhysicalConstants, Z: int, N: int) -> float:
    """Bound-state energy E_N = -mec2 (Z alpha0)^2 / (2 N^2) in eV."""
    if N < 1 or Z < 1:
        raise ValueError(f"require N >= 1 and Z >= 1, got N={N}, Z={Z}")
    return -constants.mec2_eV * (Z * constants.alpha0) ** 2 / (2.0 * N * N)


_FIELD_ALIASES = {
    "alpha0": "alpha0",
    "mec2_ev": "mec2_eV",
    "hbar_evs": "hbar_eVs",
    "hbar_ev_s": "hbar_eVs",
}


def load_constants(path: str) -> PhysicalConstants:
    """Read a ``key = value`` constants file.

    Recognised keys: alpha0, mec2_eV, hbar_eVs.  Blank lines and lines
    starting with ``#`` are ignored; unknown keys, and a constant given
    twice (under any alias), are an error.
    """
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            field = _FIELD_ALIASES.get(key.strip().lower())
            if field is None:
                raise ValueError(f"{path}:{lineno}: unknown constant {key.strip()!r}")
            if field in values:
                raise ValueError(f"{path}:{lineno}: constant {field} given twice")
            values[field] = float(text.strip())
    missing = {"alpha0", "mec2_eV", "hbar_eVs"} - set(values)
    if missing:
        raise ValueError(f"{path}: missing constants {sorted(missing)}")
    return PhysicalConstants(**values)


CONSTANTS_ENV_VAR = "LAMBSHIFT_CONSTANTS"


def resolve_constants(path: str | None = None) -> PhysicalConstants:
    """Constants from an explicit path, the environment, or the defaults."""
    if path is None:
        path = os.environ.get(CONSTANTS_ENV_VAR)
    if path is None:
        return default_constants()
    return load_constants(path)


def bundled_fixture_path() -> str:
    """Path of the packaged CODATA 2018 fixture file; importlib.resources loads here, not on import."""
    from importlib import resources

    return str(resources.files("lambshift").joinpath("data/codata2018.txt"))
