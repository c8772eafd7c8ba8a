"""The benchmark tracer must find every import site it patches.

perfbench/tracing.py wraps oracle and kernel names by attribute (for
example oracles._inner_t_integral_grid), so renaming one breaks the traced
benchmark runs.  An import that the package keeps unused (`# noqa: F401`)
is there only for a tracer site, so each must be one the tracer replaces.
The check runs in a child interpreter, so the patches never reach the
other tests.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import lambshift

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _unused_imports():
    """(module, name) of every name that a lambshift module imports with `# noqa: F401`."""
    sites, marked = [], 0
    for path in sorted(Path(lambshift.__file__).resolve().parent.glob("*.py")):
        lines = path.read_text().splitlines()
        marked += sum("# noqa: F401" in line for line in lines)
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                sites += [
                    (path.stem, alias.asname or alias.name)
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                ]
    assert len(sites) == marked  # one name per marked line, every marked line an import
    return sites

_CHILD = """
import importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import lambshift as ls
from lambshift import oracles
from lambshift.shifts import QuantumState
from tracing import Tracer

unused = [(importlib.import_module(f"lambshift.{module}"), name) for module, name in json.loads(sys.argv[3])]
before = [getattr(module, name) for module, name in unused]
tracer = Tracer()
tracer.install(ls)
unpatched = [f"{module.__name__}.{name}" for (module, name), fn in zip(unused, before) if getattr(module, name) is fn]
ls.lamb_shift(QuantumState(N=2, L=1))
before = tracer.counts["quadrature.outer.evals"]
bethe = ls.bethe_log(2, 1)
bethe_evals = [tracer.counts["quadrature.outer.evals"] - before, bethe.diagnostics.evaluations]
ls.decay_rates(QuantumState(N=3, L=1))
# the second call reuses the T-moments of the first: the traced grid
# site still runs, and sums them
for eps in (0.05, 0.025):
    oracles.shift_via_eps_real_axis(QuantumState(N=1, L=0), eps)
print(json.dumps({"failures": tracer.crosscheck_failures, "metrics": tracer.layer_metrics(),
                  "bethe_evals": bethe_evals, "unpatched": unpatched}))
"""


@pytest.mark.skipif(not (PERFBENCH / "tracing.py").exists(), reason="needs a source checkout")
def test_tracer_patches_every_site():
    src = str(Path(lambshift.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, src, str(PERFBENCH), json.dumps(_unused_imports())],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["failures"] == []
    # an unused import whose tracer site is gone is dead code
    assert report["unpatched"] == []
    metrics = report["metrics"]
    for name in (
        "shifts.lamb_shift", "shifts.bethe_log", "shifts.decay_rates", "kernel.residue_coeffs",
        "kernel.phi_kernel", "kernel.tau_integral", "oracles.eps_real_axis",
        "oracles.inner_grid", "oracles.inner_spectral",
    ):
        assert metrics[f"{name}.calls"] > 0, name
    # one residue per decay channel per process: bethe_log(2, 1) reads the
    # channel that lamb_shift(2, 1) computed, decay_rates(3, 1) adds two
    assert metrics["kernel.residue_coeffs.calls"] == 3
    assert metrics["kernel.residue_coeffs.unique_ratio"] == 1.0
    # one grid and one spectral call per eps call
    for name in ("oracles.eps_real_axis", "oracles.inner_grid", "oracles.inner_spectral"):
        assert metrics[f"{name}.calls"] == 2, name
    # both parts of the Bethe integral go through the traced integrate_panels
    # site: the tracer counts exactly the evaluations the result reports
    traced, reported = report["bethe_evals"]
    assert traced == reported > 0
