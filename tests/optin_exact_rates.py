"""Opt-in: dipole rates against Gordon's exact integrals up to N = 200, worst error per N.

The file name does not match test_*.py, so tier-1 does not collect it; run it
with `python -m pytest -s tests/optin_exact_rates.py`.  It extends
tests/test_exact_rates.py, which covers every state with N <= 20, to every
N from 21 to 200 with every channel of L in {0, 1, N//2, N-2, N-1}, and
prints the worst relative error of each N with its (N, L, n).  It takes
about 2.5 minutes on one core.
"""

import pytest
from test_exact_rates import SWEEP_REL_TOL, worst_rate_error


@pytest.mark.parametrize("N", range(21, 201))
def test_dipole_rates_match_gordon(N):
    errors = {(N, L): worst_rate_error(N, L) for L in sorted({0, 1, N // 2, N - 2, N - 1})}
    worst = max(errors, key=errors.get)
    error, n = errors[worst]
    print(f"N = {N}: worst relative error {error:.2e} at (N, L, n) = ({N}, {worst[1]}, {n})")
    assert error <= SWEEP_REL_TOL, (worst, n, error)
