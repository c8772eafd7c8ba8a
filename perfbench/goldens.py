"""Record the golden outputs, or check them against the published tables.

    python3 perfbench/goldens.py record   # rewrite perfbench/goldens.json from ./src
    python3 perfbench/goldens.py check    # goldens vs src/lambshift/data/reference_tables.csv

`check` applies the acceptance tolerances of tests/test_acceptance.py:
relative 2e-3 for Table-1 shifts and rates (criterion 1), the same for the
dipole rates of Tables 2-3, absolute 1e-3 / 2e-4 for s / p Bethe logarithms
(criterion 4), and relative 1e-3 for the dipole Lamb shifts (criterion 5).
Exactly one entry is known to miss: the published non-dipole (2,1) Lamb
shift, reproduced at 2.7e-3 (see README).  The check passes only when the
deviating entries are exactly that one.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time

import run
import workloads

KNOWN_DEVIATIONS = {(1, "lamb_shift", 2, 1, None, None)}


def record() -> int:
    out = {"src_digest": run.source_digest(), "workloads": {}}
    deadline = time.monotonic() + 600.0
    for name in workloads.WORKLOADS:
        report = run.run_child(workloads.requests(name), False, deadline)
        bad = [op["id"] for op in report["ops"] if op["error"] or not op["converged"]]
        if bad:
            print(f"error: {name}: {bad} failed; goldens not written", file=sys.stderr)
            return 1
        out["workloads"][name] = {op["id"]: op["output"] for op in report["ops"]}
        print(f"{name}: {len(report['ops'])} requests in {report['pass_s']:.2f} s")
    run.GOLDENS.write_text(_dump(out))
    return 0


def _dump(goldens: dict) -> str:
    """JSON with one request per line, so a changed golden shows as one diff line."""
    blocks = []
    for name, outputs in goldens["workloads"].items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in outputs.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    body = ",\n".join(blocks)
    return f'{{"src_digest": {json.dumps(goldens["src_digest"])}, "workloads": {{\n{body}\n}}}}\n'


def _references() -> dict:
    path = run.SRC / "lambshift" / "data" / "reference_tables.csv"
    refs = {}
    with path.open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (
                int(row["table_id"]),
                row["quantity"],
                int(row["N"]),
                int(row["L"]),
                float(row["J"]) if row["J"] else None,
                int(row["n"]) if row["n"] else None,
            )
            refs[key] = float(row["value"])
    return refs


def _computed(goldens: dict) -> dict:
    """Every reference-table quantity derived from the golden outputs: key -> (value, kind, tol)."""
    sys.path.insert(0, str(run.SRC))
    from lambshift import QuantumState, dipole_lamb_full

    got = {}
    for (N, L), out in (
        ((req["N"], req["L"]), goldens["table1_shift"][req["id"]])
        for req in workloads.requests("table1_shift")
    ):
        got[(1, "lamb_shift", N, L, None, None)] = (out["lamb_shift_MHz"], "rel", 2e-3)
        rates = dict(out["partial_rates"])
        for n in range(1, max(N, 2)):
            got[(1, "partial_rate", N, L, None, n)] = (rates.get(n, 0.0), "rel", 2e-3)

    dipole_rates = {
        (req["N"], req["L"]): dict(goldens["rates_grid"][req["id"]]["rates"])
        for req in workloads.requests("rates_grid")
        if req["dipole"]
    }
    for req in workloads.requests("bethe_tables"):
        N, L = req["N"], req["L"]
        table = 2 if L == 0 else 3
        gamma = goldens["bethe_tables"][req["id"]]["gamma"]
        gamma_tol = 1e-3 if L == 0 else 2e-4
        got[(table, "bethe_log", N, L, None, None)] = (gamma, "abs", gamma_tol)
        # d exp(gamma) / exp(gamma) = d gamma
        got[(table, "mean_excitation", N, L, None, None)] = (math.exp(gamma), "rel", gamma_tol)
        for J in (0.5,) if L == 0 else (0.5, 1.5):
            full, _ = dipole_lamb_full(QuantumState(N=N, L=L, J=J), gamma)
            got[(table, "lamb_shift_dipole", N, L, J, None)] = (full, "rel", 1e-3)
        _, atomic = dipole_lamb_full(QuantumState(N=N, L=L, J=L + 0.5), gamma)
        got[(table, "lamb_shift_dipole_atomic", N, L, None, None)] = (atomic, "rel", 1e-3)
        for n in range(1, max(N, 2)):
            rate = dipole_rates[(N, L)].get(n, 0.0)
            got[(table, "partial_rate_dipole", N, L, None, n)] = (rate, "rel", 2e-3)
    return got


def check() -> int:
    goldens = json.loads(run.GOLDENS.read_text())["workloads"]
    refs = _references()
    got = _computed(goldens)
    missing = sorted(set(refs) - set(got), key=str)
    if missing:
        print(f"error: no golden value for reference entries {missing}", file=sys.stderr)
        return 1
    deviating = set()
    for key, ref in sorted(refs.items(), key=lambda kv: str(kv[0])):
        value, kind, tol = got[key]
        if ref == 0.0:
            dev, ok = abs(value), value == 0.0
        elif kind == "abs":
            dev = abs(value - ref)
            ok = dev <= tol
        else:
            dev = abs(value - ref) / abs(ref)
            ok = dev <= tol
        if not ok:
            deviating.add(key)
        print(f"{'ok  ' if ok else 'MISS'} {key} golden {value:.9g} published {ref:.9g} "
              f"{kind} dev {dev:.2e} tol {tol:g}")
    if deviating != KNOWN_DEVIATIONS:
        print(f"FAIL: deviating entries {sorted(deviating, key=str)}, "
              f"expected exactly {sorted(KNOWN_DEVIATIONS, key=str)}")
        return 1
    print(f"PASS: {len(refs)} published entries; the one deviation is the documented (2,1) shift")
    return 0


if __name__ == "__main__":
    commands = {"record": record, "check": check}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(commands[sys.argv[1]]())
