"""Opt-in: how far the phi layout of the eps route is from its own refinement, off tier-1.

The file name does not match test_*.py, so tier-1 does not collect it; run it
with `python -m pytest -s tests/optin_eps_layout.py`, or as a report with
`python tests/optin_eps_layout.py`.  It computes
oracles.shift_via_eps_real_axis at (1,0), (2,0), (2,1) and (3,1) and
eps = 0.05, 0.025 and 0.0125 on three layouts: today's
oracles._phi_breakpoints, the same edges with every panel split in four,
and the same edges with only the panels below phi = 0.25 split in four.
It prints the relative gap of the real and the imaginary part of today's
layout and of the low split to the all-panel split.

_phi_breakpoints ladders the poles ln(N/n) for n = max(1, L) .. N - 1 at
scale eps/n, but not the n = N term at phi = 0, whose peak
j q_j/(j - nu - i eps) is about eps/N wide.  So all that splitting every
panel moves lies below phi = 0.25: the test gates the low split within
3.7e-12 relative of the all-panel split, 10x the worst gap measured
(3.7e-13), and leaves today's gap, up to 1.8e-4 (the real part of (2,1)
at eps = 0.0125), to the report.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)  # for `python tests/optin_eps_layout.py`; pytest reads src from pyproject.toml

from lambshift import oracles  # noqa: E402
from lambshift.shifts import QuantumState  # noqa: E402

STATES = ((1, 0), (2, 0), (2, 1), (3, 1))
EPS = (0.05, 0.025, 0.0125)
LOW = 0.25  # the panels below this phi hold all the change of the all-panel split
LOW_SPLIT_TOL = 3.7e-12


def _split(edges: np.ndarray, below: float) -> np.ndarray:
    """edges with every panel [a, b], b <= below, split into four equal panels."""
    a, b = edges[:-1], edges[1:]
    inner = [(a + k * (b - a) / 4.0)[b <= below] for k in (1, 2, 3)]
    return np.sort(np.concatenate((edges, *inner)))


def eps_shifts(below: float | None) -> dict:
    """{(N, L, eps): complex shift in MHz}, the panels ending at or below `below` split in four.

    below=None is today's layout.  The phi grid table of the route is
    cleared before and after, so no layout reads another's table.
    """
    today = oracles._phi_breakpoints

    def layout(N, L, eps, phi_max):
        edges = today(N, L, eps, phi_max)
        return edges if below is None else _split(edges, below)

    oracles._grid_table.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_phi_breakpoints", layout)
        values = {
            (N, L, eps): oracles.shift_via_eps_real_axis(QuantumState(N=N, L=L), eps)
            for N, L in STATES
            for eps in EPS
        }
    oracles._grid_table.cache_clear()
    return values


def _gap(got: complex, want: complex) -> tuple[float, float]:
    return abs(got.real - want.real) / abs(want.real), abs(got.imag - want.imag) / abs(want.imag)


def audit() -> dict:
    """{(N, L, eps): (today's gap, the low split's gap)} to the all-panel split, each (real, imag), printed."""
    today, low, full = eps_shifts(None), eps_shifts(LOW), eps_shifts(np.inf)
    gaps = {key: (_gap(today[key], full[key]), _gap(low[key], full[key])) for key in full}
    for (N, L, eps), ((t_re, t_im), (l_re, l_im)) in gaps.items():
        print(f"({N},{L}) eps={eps:<7} today {t_re:.2e} / {t_im:.2e}   below phi={LOW}: {l_re:.2e} / {l_im:.2e}")
    return gaps


def test_the_low_split_accounts_for_the_all_panel_split():
    gaps = audit()
    worst = max(max(low) for _, low in gaps.values())
    assert worst <= LOW_SPLIT_TOL, worst


if __name__ == "__main__":
    audit()
