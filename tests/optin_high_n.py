"""Opt-in: the (60, 0) and (86, 0) shifts and Bethe logarithms, a high-L sweep and an oracle-tau check, off tier-1.

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
rel_tol 1e-12 and prints their gap and evaluations: the gate of ROADMAP item
2 on a shift's reported value.  For N <= 30 the gap is at most 1e-11 and
so gated; at N = 50 .. 86 it is 4.1e-12 .. 1.9e-10, gated at 1e-9.  While
the tau series stopped on an absolute floor of 1e-15 it was 2.0e-8 ..
7.5e-7 there, with converged=True, and the sweep could only report it.

The tight run shares the tau series with the default one, so it cannot see
an error of that series.  The oracle-tau check can: it recomputes the
(50, 48), (50, 49) and (86, 85) shifts with every series-branch tau
integral taken from oracles.tau_integral_by_quadrature wherever that
applies (nu < max(1, L)) and converges, and from the kernel elsewhere, and
gates their gap to the default shift at 1e-11.

The grid count prints the outer evaluations and integrand calls of the 48
default shifts of ROADMAP item 2's grid (N in {10, 20, 30, 50, 60, 86},
L in {0, N//2, N-2, N-1}, Z in {1, 92}) and fails if the evaluations rise
more than 2% over the 30,030 of doubling panels through the non-dipole
weight's transition, so that the layout's cost beyond the tables shows.

The memory sweep runs the default shifts of 30 states (N = 10, 18, ..., 82,
L in {0, N//2, N-1}) in one child under tracemalloc and gates what they
leave allocated after gc.collect() at 8 MB (ROADMAP item 24): the kernel
keeps the tables of the last state only (kernel._tables), where per-state
caches held 24.0 MB after the same sweep.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)  # for `python tests/optin_high_n.py`; pytest reads src from pyproject.toml

from lambshift import kernel, shifts  # noqa: E402
from lambshift.oracles import tau_integral_by_quadrature  # noqa: E402

# (N, L): (shift MHz, its outer evaluations, Bethe logarithm, its evaluations).
# (60, 0) from the route before each integrand call became one array block,
# (86, 0) from the route before the tau block lost its stream and slab caps,
# with the shift's evaluations of the purely relative stopping rule (1,785
# under an absolute floor of 1e-14, 1.4e-14 from this value) and of panels at
# most 1.5 wide through the weight's transition under the Legendre-tail panel
# estimate (1,305 and 1,845 with panels at most 1 wide under |K15 - G7|;
# (60, 0) took 1,335 with doubling panels there).
EXPECTED = {
    (60, 0): (0.03805405038954235, 1290, 2.722805384583539, 960),
    (86, 0): (0.012923010798784848, 1800, 2.722728255110574, 1350),
}

HIGH_L = [(N, L, Z) for N in (20, 30, 50, 60, 86) for L in (N - 2, N - 1) for Z in (1, 92)]
ORACLE_TAU = [(50, 48), (50, 49), (86, 85)]
# ROADMAP item 2's grid of default shifts, and its outer evaluations with
# doubling panels up to the weight's transition (563 integrand calls)
GRID = [(N, L, Z) for N in (10, 20, 30, 50, 60, 86) for L in sorted({0, N // 2, N - 2, N - 1}) for Z in (1, 92)]
GRID_EVALUATIONS_BEFORE = 30_030
# the memory sweep's states, and the most its shifts may leave allocated
SWEEP = [(N, L) for N in range(10, 83, 8) for L in sorted({0, N // 2, N - 1})]
SWEEP_HELD_MB_MAX = 8.0

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


_SWEEP_CHILD = """
import gc, json, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from lambshift.shifts import QuantumState, lamb_shift
tracemalloc.start()
for N, L in json.loads(sys.argv[2]):
    assert lamb_shift(QuantumState(N=N, L=L)).converged, (N, L)
gc.collect()
held, peak = tracemalloc.get_traced_memory()
print(json.dumps({"held_mb": held / 2**20, "peak_mb": peak / 2**20}))
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
    assert gap <= (1e-11 if N <= 30 else 1e-9)


class _OracleTau(kernel.PhiKernel):
    """A kernel whose series-branch tau integral comes from the quadrature oracle where it applies and converges."""

    replaced = 0

    def tau_integral(self):
        own = super().tau_integral()
        on_series = math.tanh(self.phi / 2.0) ** 2 <= kernel.SERIES_T2_MAX
        if on_series and self.nu < max(1, self.L):
            quad = tau_integral_by_quadrature(self.N, self.L, self.phi)
            if quad.converged:
                _OracleTau.replaced += 1
                return quad.value, quad.error_estimate, 0, True
        return own


def oracle_tau_gap(N: int, L: int) -> tuple[float, int]:
    """The relative gap of the default-spec shift to the one with oracle tau, and the nodes given oracle tau."""
    state = shifts.QuantumState(N=N, L=L)
    default = shifts.lamb_shift(state)
    _OracleTau.replaced, original = 0, shifts.PhiKernel
    shifts.PhiKernel = _OracleTau
    try:
        oracle = shifts.lamb_shift(state)
    finally:
        shifts.PhiKernel = original
    gap = abs(default.lamb_shift_MHz - oracle.lamb_shift_MHz) / abs(default.lamb_shift_MHz)
    nodes = oracle.diagnostics.evaluations
    print(f"\noracle-tau shift ({N}, {L}): gap {gap:.2e}, oracle tau at {_OracleTau.replaced} of {nodes} nodes")
    assert default.converged and oracle.converged
    return gap, _OracleTau.replaced


@pytest.mark.parametrize("N, L", ORACLE_TAU)
def test_shift_with_oracle_tau_at_the_series_nodes(N, L):
    gap, replaced = oracle_tau_gap(N, L)
    assert replaced > 0
    assert gap <= 1e-11


def grid_counts() -> tuple[int, int]:
    """The outer evaluations and the integrand calls of every default shift of GRID."""
    calls, original = [0], shifts._bracket_integrand

    def counting(*args):
        integrand, terms = original(*args)

        def counted(phis):
            calls[0] += 1
            return integrand(phis)

        return counted, terms

    shifts._bracket_integrand = counting
    try:
        evaluations = sum(
            shifts.lamb_shift(shifts.QuantumState(N=N, L=L, Z=Z)).diagnostics.evaluations for N, L, Z in GRID
        )
    finally:
        shifts._bracket_integrand = original
    print(f"\ngrid of {len(GRID)} shifts: {evaluations} outer evaluations in {calls[0]} integrand calls "
          f"({GRID_EVALUATIONS_BEFORE} with doubling panels through the transition)")
    return evaluations, calls[0]


def test_grid_evaluations_within_2_percent_of_the_doubling_layout():
    # panels through the weight's transition may cost more starting nodes
    # where they save bisections: 30,120 in 499 calls at most 1 wide under
    # the |K15 - G7| estimate, 28,170 in 466 at most 1.5 wide under the
    # Legendre-tail estimate
    evaluations, _ = grid_counts()
    assert evaluations <= 1.02 * GRID_EVALUATIONS_BEFORE


def sweep_memory() -> dict:
    """The MB that the shifts of SWEEP leave allocated after gc.collect(), and their tracemalloc peak, in one child."""
    out = subprocess.run(
        [sys.executable, "-c", _SWEEP_CHILD, SRC, json.dumps(SWEEP)], capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    print(f"\nsweep of {len(SWEEP)} shifts: {got['held_mb']:.2f} MB held after gc.collect(), "
          f"tracemalloc peak {got['peak_mb']:.1f} MB")
    return got


def test_sweep_holds_at_most_8_mb():
    assert sweep_memory()["held_mb"] <= SWEEP_HELD_MB_MAX


if __name__ == "__main__":
    for N, L in sorted(EXPECTED):
        for quantity in ("shift", "bethe"):
            got = run_child(quantity, N, L)
            print(f"{quantity:5} ({N}, {L})  {got['value']!r:24}  {got['evaluations']:5} evaluations  "
                  f"converged={got['converged']}  peak RSS {got['peak_rss_mb']:.1f} MB")
    for N, L, Z in HIGH_L:
        high_l_gap(N, L, Z)
    for N, L in ORACLE_TAU:
        oracle_tau_gap(N, L)
    grid_counts()
    sweep_memory()
