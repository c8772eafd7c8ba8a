"""Opt-in: the (60, 0) and (86, 0) shifts and Bethe logarithms, a few seconds, off the tier-1 run.

The file name does not match test_*.py, so tier-1 does not collect it; run it
with `python -m pytest -s tests/optin_high_n.py`, or as a sweep report with
`python tests/optin_high_n.py`.  It extends the high-N gate of
tests/test_shifts.py (TestHighNRegression) to N = 60, where the log series of
the closed branch run long (summed to a fixed 24 steps instead of to each
entry's own stopping test, the shift fails it), and to N = 86, the last N
whose closed branch's 1/(2N-3)! is a double.  Each quantity runs in its own
child interpreter, which reports its peak resident set (ru_maxrss), so a
sweep shows what a high-N block costs in memory as well as its values.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# (N, L): (shift MHz, its outer evaluations, Bethe logarithm, its evaluations).
# (60, 0) from the route before each integrand call became one array block,
# (86, 0) from the route before the tau block lost its stream and slab caps.
EXPECTED = {
    (60, 0): (0.03805405038954235, 1335, 2.722805384583539, 960),
    (86, 0): (0.012923010798784672, 1785, 2.722728255110574, 1350),
}

_CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from lambshift.shifts import QuantumState, bethe_log, lamb_shift
N, L = int(sys.argv[3]), int(sys.argv[4])
if sys.argv[2] == "shift":
    result = lamb_shift(QuantumState(N=N, L=L))
    value = result.lamb_shift_MHz
else:
    result = bethe_log(N, L)
    value = result.gamma
print(json.dumps({"value": value, "evaluations": result.diagnostics.evaluations, "converged": result.converged,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_child(quantity: str, N: int, L: int) -> dict:
    """The value, evaluations, convergence and peak RSS (MB, ru_maxrss) of one quantity in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, SRC, quantity, str(N), str(L)], capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("N, L", sorted(EXPECTED))
@pytest.mark.parametrize("quantity", ["shift", "bethe"])
def test_high_n_within_1e_10_with_the_same_evaluations(quantity, N, L):
    shift, shift_evals, gamma, gamma_evals = EXPECTED[N, L]
    value, evaluations = (shift, shift_evals) if quantity == "shift" else (gamma, gamma_evals)
    got = run_child(quantity, N, L)
    print(f"\n{quantity} ({N}, {L}): {got['value']!r}, {got['evaluations']} evaluations, "
          f"peak RSS {got['peak_rss_mb']:.1f} MB")
    assert got["converged"] and got["evaluations"] == evaluations
    assert got["value"] == pytest.approx(value, rel=1e-10, abs=0)
    assert got["peak_rss_mb"] > 0.0


if __name__ == "__main__":
    for N, L in sorted(EXPECTED):
        for quantity in ("shift", "bethe"):
            got = run_child(quantity, N, L)
            print(f"{quantity:5} ({N}, {L})  {got['value']!r:24}  {got['evaluations']:5} evaluations  "
                  f"converged={got['converged']}  peak RSS {got['peak_rss_mb']:.1f} MB")
