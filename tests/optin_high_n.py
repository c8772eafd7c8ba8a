"""Opt-in: the (60, 0) and (86, 0) shifts and Bethe logarithms, and a high-L sweep, off the tier-1 run.

The file name does not match test_*.py, so tier-1 does not collect it; run it
with `python -m pytest -s tests/optin_high_n.py`, or as a sweep report with
`python tests/optin_high_n.py`.  It extends the high-N gate of
tests/test_shifts.py (TestHighNRegression) to N = 60, where the log series of
the closed branch run long (summed to a fixed 24 steps instead of to each
entry's own stopping test, the shift fails it), and to N = 86, the last N
whose closed branch's 1/(2N-3)! is a double.  Each quantity runs in its own
child interpreter, which reports its peak resident set (ru_maxrss), so a
sweep shows what a high-N block costs in memory as well as its values.

The high-L sweep runs each shift with L >= N - 2 at the default spec and at
rel_tol 1e-12 and prints their gap and evaluations: the baseline for judging
a shift on its reported value (ROADMAP item 2).  For N <= 30 the gap is at
most 1e-11; beyond, it is what the cancellation of the phi integral against
the closed-form pole terms leaves (2.0e-8 .. 7.5e-7 at N = 50 .. 86), and
the sweep only reports it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# (N, L): (shift MHz, its outer evaluations, Bethe logarithm, its evaluations).
# (60, 0) from the route before each integrand call became one array block,
# (86, 0) from the route before the tau block lost its stream and slab caps,
# with the shift's evaluations of the purely relative stopping rule (1,785
# under an absolute floor of 1e-14, 1.4e-14 from this value).
EXPECTED = {
    (60, 0): (0.03805405038954235, 1335, 2.722805384583539, 960),
    (86, 0): (0.012923010798784848, 1845, 2.722728255110574, 1350),
}

HIGH_L = [(N, L, Z) for N in (20, 30, 50, 60, 86) for L in (N - 2, N - 1) for Z in (1, 92)]

_CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from lambshift.quadrature import QuadratureSpec
from lambshift.shifts import QuantumState, bethe_log, lamb_shift
N, L, Z = int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
spec = QuadratureSpec(rel_tol=float(sys.argv[6])) if len(sys.argv) > 6 else None
if sys.argv[2] == "shift":
    result = lamb_shift(QuantumState(N=N, L=L, Z=Z), spec=spec)
    value = result.lamb_shift_MHz
else:
    result = bethe_log(N, L, spec=spec, Z=Z)
    value = result.gamma
print(json.dumps({"value": value, "evaluations": result.diagnostics.evaluations, "converged": result.converged,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_child(quantity: str, N: int, L: int, Z: int = 1, rel_tol: float | None = None) -> dict:
    """The value, evaluations, convergence and peak RSS (MB, ru_maxrss) of one quantity in a fresh interpreter.

    rel_tol None runs the default spec.
    """
    argv = [quantity, str(N), str(L), str(Z), *(() if rel_tol is None else (repr(rel_tol),))]
    out = subprocess.run([sys.executable, "-c", _CHILD, SRC, *argv], capture_output=True, text=True, timeout=600)
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


def high_l_gap(N: int, L: int, Z: int) -> tuple[float, dict, dict]:
    """The relative gap of the default-spec shift to its rel_tol 1e-12 run, and both runs."""
    default, tight = run_child("shift", N, L, Z), run_child("shift", N, L, Z, rel_tol=1e-12)
    gap = abs(default["value"] - tight["value"]) / abs(tight["value"])
    print(f"\nshift ({N}, {L}) Z={Z}: gap {gap:.2e}, {default['evaluations']} and {tight['evaluations']} evaluations")
    return gap, default, tight


@pytest.mark.parametrize("N, L, Z", HIGH_L)
def test_high_l_shift_against_its_tight_run(N, L, Z):
    gap, default, tight = high_l_gap(N, L, Z)
    assert default["converged"] and tight["converged"]
    if N <= 30:
        assert gap <= 1e-11


if __name__ == "__main__":
    for N, L in sorted(EXPECTED):
        for quantity in ("shift", "bethe"):
            got = run_child(quantity, N, L)
            print(f"{quantity:5} ({N}, {L})  {got['value']!r:24}  {got['evaluations']:5} evaluations  "
                  f"converged={got['converged']}  peak RSS {got['peak_rss_mb']:.1f} MB")
    for N, L, Z in HIGH_L:
        high_l_gap(N, L, Z)
