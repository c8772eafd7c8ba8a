from functools import lru_cache

import pytest

from lambshift.oracles import shift_via_eps_real_axis
from lambshift.shifts import QuantumState


@lru_cache(maxsize=None)
def _eps_point(N: int, L: int, eps: float) -> complex:
    return complex(shift_via_eps_real_axis(QuantumState(N=N, L=L), eps))


@pytest.fixture(scope="session")
def eps_shift():
    """eps_shift(N, L, eps) = shift_via_eps_real_axis(QuantumState(N, L), eps).

    Each point is computed once per session: criterion 7 and the eps tests
    of test_oracles read the same nine points.
    """
    return _eps_point
