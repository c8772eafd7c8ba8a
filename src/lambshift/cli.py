"""Command-line interface: shifts, rates, Bethe logarithms, table reproduction.

Each subcommand accepts only the flags it reads; any other flag is a
usage error.  --rel-tol is each phi integral's relative tolerance; there
is no absolute one.

Exit codes: 0 success, 1 internal error, 2 invalid quantum numbers,
constants, Z alpha0 >= 1 or flags (an unknown flag included), 3 a
quadrature did not converge (the report is still printed, flagged
converged=false) or the arithmetic overflowed, divided by zero, gave a
non-finite integrand or a non-finite output (only an error line on
stderr, naming the quantity).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .constants import CONSTANTS_ENV_VAR, resolve_constants
from .quadrature import IntegrandError, QuadratureSpec
from .shifts import (
    DipoleOptions,
    QuantumState,
    bethe_log,
    decay_rates,
    generate_table,
    lamb_shift,
    sum_rates,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

_FLAGS = {
    "--n": dict(type=int, required=True, help="principal quantum number"),
    "--l": dict(type=int, required=True, help="angular momentum"),
    "--z": dict(type=int, default=1, help="nuclear charge (default 1)"),
    "--dipole": dict(action="store_true", help="use the dipole approximation"),
    "--cutoff-x": dict(type=float, default=None,
                       help="dipole photon-energy cutoff x = hw/(2 mec2)"),
    "--id": dict(type=int, required=True, choices=(1, 2, 3)),
    "--rel-tol": dict(type=float, default=1.0e-9, help="relative tolerance of each integral"),
    "--format": dict(choices=("text", "csv", "json"), default="text"),
    "--constants-file": dict(default=None,
                             help=f"key=value constants file (or set ${CONSTANTS_ENV_VAR})"),
}
_STATE = ("--n", "--l", "--z")
_OUTPUT = ("--format", "--constants-file")

# subcommand: (help text, flags); verify has no help text, which keeps it
# out of --help: it cross-checks the independent evaluators and is not
# part of the supported surface.
_COMMANDS = {
    "shift": ("Lamb shift of one bound state",
              (*_STATE, "--dipole", "--cutoff-x", "--rel-tol", *_OUTPUT)),
    "rates": ("partial and total decay rates", (*_STATE, "--dipole", *_OUTPUT)),
    "bethe": ("Bethe logarithm and mean excitation energy",
              (*_STATE, "--rel-tol", *_OUTPUT)),
    "table": ("reproduce a published table", ("--id", "--rel-tol", *_OUTPUT)),
    "verify": (None, ("--rel-tol", *_OUTPUT)),
}

_TABLE_KEYS = ("table_id", "N", "L", "J", "n", "quantity", "unit", "computed",
               "reference", "rel_dev")


def _fmt(x) -> str:
    """12-significant-digit rendering shared by every output format."""
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambshift",
        description="Hydrogenic Lamb shifts and radiative decay rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{shift,rates,bethe,table}")
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text) if help_text else sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _rows(head: dict, quantities) -> list[dict]:
    """One record per (quantity, unit, value), each led by the same head fields."""
    return [{**head, "quantity": q, "unit": unit, "value": v} for q, unit, v in quantities]


class _NonFinite(ArithmeticError):
    """A float of the payload that is not finite; the message is its path."""


def _rounded(obj, name: str = ""):
    """obj with every float rendered at 12 significant digits, recursively.

    Keeps json and csv output numerically bit-identical.  The first float
    that is not finite raises _NonFinite with its path: dict keys joined by
    dots, list indices in brackets, and a table record (a dict with a
    quantity) named by its quantity and row.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise _NonFinite(name)
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {key: _rounded(value, f"{name}.{key}" if name else str(key)) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [
            _rounded(v, f"{v['quantity']} (row {i})" if isinstance(v, dict) and "quantity" in v else f"{name}[{i}]")
            for i, v in enumerate(obj)
        ]
    return obj


def _render(payload, records: list[dict], fmt: str) -> str:
    """json renders the (rounded) payload; csv and text the records, which share their keys."""
    stream = io.StringIO()
    if fmt == "json":
        json.dump(payload, stream, indent=2)
        stream.write("\n")
        return stream.getvalue()
    keys = list(records[0].keys())
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_fmt(rec[k]) for k in keys])
        return stream.getvalue()
    widths = [max(len(k), max(len(_fmt(r[k])) for r in records)) for k in keys]
    stream.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
    for rec in records:
        stream.write("  ".join(_fmt(rec[k]).ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
    return stream.getvalue()


def _run_shift(args, constants):
    state = QuantumState(N=args.n, L=args.l, Z=args.z)
    options = DipoleOptions(enabled=args.dipole, cutoff_x=args.cutoff_x)
    result = lamb_shift(state, options, QuadratureSpec(args.rel_tol), constants)
    records = _rows({"N": state.N, "L": state.L, "Z": state.Z}, [
        ("lamb_shift", "MHz", result.lamb_shift_MHz),
        ("tau_phi_term", "MHz", result.tau_phi_term_MHz),
        ("pv_term", "MHz", result.pv_term_MHz),
        *((f"partial_rate_n{n}", "1e6/s", g) for n, g in result.partial_rates),
    ])
    return result.as_dict(), records, EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _run_rates(args, constants):
    state = QuantumState(N=args.n, L=args.l, Z=args.z)
    rates = decay_rates(state, DipoleOptions(enabled=args.dipole), constants)
    total = sum_rates(rates)
    head = {"N": state.N, "L": state.L, "Z": state.Z}
    payload = {**head, "partial_rates": rates, "total_rate": total, "unit": "1e6/s"}
    records = _rows(head, [
        *((f"partial_rate_n{n}", "1e6/s", g) for n, g in rates),
        ("total_rate", "1e6/s", total),
    ])
    return payload, records, EXIT_OK


def _run_bethe(args, constants):
    result = bethe_log(args.n, args.l, constants, QuadratureSpec(args.rel_tol), Z=args.z)
    records = _rows({"N": args.n, "L": args.l}, [
        ("bethe_log", "1", result.gamma),
        ("mean_excitation", "Ry", result.mean_excitation_Ry),
        ("error_estimate", "1", result.error_estimate),
        ("evaluations", "count", result.diagnostics.evaluations),
    ])
    return result.as_dict(), records, EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _run_table(args, constants):
    cells = generate_table(args.id, constants, QuadratureSpec(args.rel_tol))
    records = [{k: getattr(cell, k) for k in _TABLE_KEYS} for cell in cells]
    converged = all(cell.converged for cell in cells)
    return records, records, EXIT_OK if converged else EXIT_NOT_CONVERGED


def _run_verify(args, constants):
    from .oracles import kernel_q, kernel_via_spectral_series, shift_via_eps_extrapolated

    checks = []
    for (N, L, T, phi) in ((2, 0, 0.9, 1.1), (3, 1, 1.3, 0.7), (4, 2, 2.1, 1.8)):
        closed = kernel_q(N, L, T, phi)
        series = kernel_via_spectral_series(N, L, T, phi, 300).value
        checks.append({
            "check": f"kernel_closed_vs_spectral_N{N}L{L}",
            "deviation": abs(closed - series),
            "tolerance": 1.0e-10,
        })
    primary = lamb_shift(QuantumState(N=1, L=0), DipoleOptions(), QuadratureSpec(args.rel_tol), constants)
    eps_route = shift_via_eps_extrapolated(QuantumState(N=1, L=0), constants=constants)
    checks.append({
        "check": "shift_rotated_vs_eps_axis_N1L0",
        "deviation": abs(primary.lamb_shift_MHz - eps_route.real) / abs(primary.lamb_shift_MHz),
        "tolerance": 1.0e-3,
    })
    for c in checks:
        c["pass"] = bool(c["deviation"] <= c["tolerance"])
    return checks, checks, EXIT_OK if all(c["pass"] for c in checks) else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runner = {
        "shift": _run_shift,
        "rates": _run_rates,
        "bethe": _run_bethe,
        "table": _run_table,
        "verify": _run_verify,
    }[args.command]
    try:
        payload, records, status = runner(args, resolve_constants(args.constants_file))
        sys.stdout.write(_render(_rounded(payload), records, args.format))
        return status
    except _NonFinite as exc:  # JSON has no inf or nan, and no format should print them
        print(f"error: {exc} is not finite", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (ArithmeticError, IntegrandError) as exc:  # overflow, zero division, inf or nan
        print(f"error: {exc!r}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
