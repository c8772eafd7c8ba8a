"""Opt-in: the (60, 0) shift and Bethe logarithm, about 1 s, off the tier-1 run.

The file name does not match test_*.py, so tier-1 does not collect it; run it
with `python -m pytest tests/optin_high_n.py`.  It extends the high-N gate of
tests/test_shifts.py (TestHighNRegression) to N = 60, where the log series of
the closed branch run longest: summed to a fixed 24 steps instead of to each
entry's own stopping test, the shift fails it.
"""

import pytest

from lambshift.shifts import QuantumState, bethe_log, lamb_shift

# From the route before each integrand call became one array block.
SHIFT_60_0, SHIFT_EVALS = 0.03805405038954235, 1335
GAMMA_60_0, GAMMA_EVALS = 2.722805384583539, 960


def test_60_0_within_1e_10_with_the_same_evaluations():
    result = lamb_shift(QuantumState(N=60, L=0))
    assert result.converged and result.diagnostics.evaluations == SHIFT_EVALS
    assert result.lamb_shift_MHz == pytest.approx(SHIFT_60_0, rel=1e-10, abs=0)
    bethe = bethe_log(60, 0)
    assert bethe.converged and bethe.diagnostics.evaluations == GAMMA_EVALS
    assert bethe.gamma == pytest.approx(GAMMA_60_0, rel=1e-10, abs=0)
