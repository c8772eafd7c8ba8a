"""One benchmark pass inside a fresh interpreter.

Reads {"requests": [...], "trace": bool, "src": path} as JSON on stdin,
imports lambshift from `src`, computes every request once in the given
order and writes one JSON report line to stdout.  An empty request list
measures set-up alone.  A request that raises is reported, not fatal: the
pass must go on so that the parent can count it as failed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

CHUNK_GAP_S = 0.5


def execute(ls, constants, req: dict) -> tuple[bool, dict]:
    """Run one request through the public library API: (converged, output)."""
    op = req["op"]
    if op == "lamb_shift":
        r = ls.lamb_shift(ls.QuantumState(N=req["N"], L=req["L"]), constants=constants)
        return r.converged, {
            "lamb_shift_MHz": r.lamb_shift_MHz,
            "tau_phi_term_MHz": r.tau_phi_term_MHz,
            "pv_term_MHz": r.pv_term_MHz,
            "partial_rates": [[n, g] for n, g in r.partial_rates],
        }
    if op == "bethe_log":
        r = ls.bethe_log(req["N"], req["L"], constants=constants)
        return r.converged, {"gamma": r.gamma, "estimates": list(r.estimates)}
    if op == "decay_rates":
        options = ls.DipoleOptions(enabled=req["dipole"])
        rates = ls.decay_rates(ls.QuantumState(N=req["N"], L=req["L"]), options, constants)
        return True, {"rates": [[n, g] for n, g in rates]}
    if op == "eps_real_axis":
        state = ls.QuantumState(N=req["N"], L=req["L"])
        z = ls.oracles.shift_via_eps_real_axis(state, req["eps"], constants=constants)
        return True, {"real": z.real, "imag": z.imag}
    raise ValueError(f"unknown operation {op!r}")


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])

    t0 = time.perf_counter()
    import lambshift as ls
    import lambshift.oracles  # noqa: F401  (the verify route's module)

    constants = ls.constants.resolve_constants()
    setup_s = time.perf_counter() - t0

    where = os.path.dirname(os.path.abspath(ls.__file__))
    if os.path.dirname(where) != os.path.abspath(job["src"]):
        print(f"lambshift imported from {where}, not from {job['src']}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(ls)

    import reference

    # A chunk of reference work runs right after set-up, after any request
    # that ends CHUNK_GAP_S or more after the last chunk, and after the last
    # request, so the chunks sample the host's speed evenly over the child.
    chunks = [reference.seconds()]
    last_chunk = time.perf_counter()
    ops = []
    for req in job["requests"]:
        t = time.perf_counter()
        try:
            converged, output = execute(ls, constants, req)
            error = None
        except Exception:
            converged, output, error = False, None, traceback.format_exc(limit=4)
        ops.append({
            "id": req["id"],
            "seconds": time.perf_counter() - t,
            "converged": converged,
            "output": output,
            "error": error,
        })
        if time.perf_counter() - last_chunk >= CHUNK_GAP_S:
            chunks.append(reference.seconds())
            last_chunk = time.perf_counter()
    if job["requests"]:
        chunks.append(reference.seconds())

    import numpy

    report = {
        "setup_s": setup_s,
        "pass_s": sum(op["seconds"] for op in ops),
        "chunk_s": chunks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ops": ops,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["crosscheck_failures"] = tracer.crosscheck_failures
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
