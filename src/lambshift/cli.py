"""Command-line interface: shifts, rates, Bethe logarithms, table reproduction.

Exit codes: 0 success, 1 internal error, 2 invalid quantum numbers or
flags, 3 quadrature or extrapolation did not converge (the report is
still printed, flagged converged=false) or the arithmetic overflowed,
divided by zero or gave a non-finite integrand (only an error line on
stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .constants import CONSTANTS_ENV_VAR, resolve_constants
from .quadrature import IntegrandError, QuadratureSpec
from .shifts import (
    DEFAULT_BETHE_CUTOFFS,
    DipoleOptions,
    QuantumState,
    bethe_log,
    decay_rates,
    generate_table,
    lamb_shift,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


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

    def add_common(p, need_state=True):
        if need_state:
            p.add_argument("--n", type=int, required=True, help="principal quantum number")
            p.add_argument("--l", type=int, required=True, help="angular momentum")
            p.add_argument("--j", type=float, default=None, help="total angular momentum (L +/- 1/2)")
        p.add_argument("--z", type=int, default=1, help="nuclear charge (default 1)")
        p.add_argument("--dipole", action="store_true", help="use the dipole approximation")
        p.add_argument("--cutoff-x", type=float, default=None,
                       help="dipole photon-energy cutoff x = hw/(2 mec2)")
        p.add_argument("--rel-tol", type=float, default=1.0e-9)
        p.add_argument("--abs-tol", type=float, default=1.0e-14)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--constants-file", default=None,
                       help=f"key=value constants file (or set ${CONSTANTS_ENV_VAR})")

    p_shift = sub.add_parser("shift", help="Lamb shift of one bound state")
    add_common(p_shift)

    p_rates = sub.add_parser("rates", help="partial and total decay rates")
    add_common(p_rates)

    p_bethe = sub.add_parser("bethe", help="Bethe logarithm and mean excitation energy")
    add_common(p_bethe)
    p_bethe.add_argument("--cutoffs", type=float, nargs="+", default=list(DEFAULT_BETHE_CUTOFFS),
                         help="ascending dipole cutoffs used for the extrapolation")

    p_table = sub.add_parser("table", help="reproduce a published table")
    add_common(p_table, need_state=False)
    p_table.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    p_table.add_argument("--cutoffs", type=float, nargs="+", default=list(DEFAULT_BETHE_CUTOFFS))

    # Cross-check report of the independent evaluators; not part of the
    # supported surface, so keep it out of the help text.
    p_verify = sub.add_parser("verify")
    add_common(p_verify, need_state=False)
    return parser


def _dipole_options(args) -> DipoleOptions:
    if args.dipole:
        return DipoleOptions(enabled=True, cutoff_x=args.cutoff_x)
    if args.cutoff_x is not None:
        raise ValueError("--cutoff-x only applies together with --dipole")
    return DipoleOptions()


def _emit_records(records, fmt: str, stream) -> None:
    """records: list of dicts sharing the same keys."""
    if fmt == "json":
        json.dump(records, stream, indent=2)
        stream.write("\n")
        return
    keys = list(records[0].keys())
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_fmt(rec[k]) for k in keys])
        return
    widths = [max(len(k), max(len(_fmt(r[k])) for r in records)) for k in keys]
    stream.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
    for rec in records:
        stream.write("  ".join(_fmt(rec[k]).ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")


def _round_floats(obj):
    """Render every float at 12 significant digits, recursively.

    Keeps json and csv output numerically bit-identical.
    """
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _run_shift(args, constants, spec, stream) -> int:
    state = QuantumState(N=args.n, L=args.l, J=args.j, Z=args.z)
    result = lamb_shift(state, _dipole_options(args), spec, constants)
    if args.format == "json":
        payload = _round_floats(result.as_dict())
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        records = [
            {
                "N": state.N, "L": state.L, "Z": state.Z,
                "quantity": "lamb_shift", "unit": "MHz",
                "value": result.lamb_shift_MHz,
            },
            {
                "N": state.N, "L": state.L, "Z": state.Z,
                "quantity": "tau_phi_term", "unit": "MHz", "value": result.tau_phi_term_MHz,
            },
            {
                "N": state.N, "L": state.L, "Z": state.Z,
                "quantity": "pv_term", "unit": "MHz", "value": result.pv_term_MHz,
            },
        ] + [
            {
                "N": state.N, "L": state.L, "Z": state.Z,
                "quantity": f"partial_rate_n{n}", "unit": "1e6/s", "value": g,
            }
            for n, g in result.partial_rates
        ]
        _emit_records(records, args.format, stream)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _run_rates(args, constants, spec, stream) -> int:
    state = QuantumState(N=args.n, L=args.l, J=args.j, Z=args.z)
    rates = decay_rates(state, _dipole_options(args), constants)
    total = sum(g for _, g in rates)
    if args.format == "json":
        payload = _round_floats({
            "N": state.N, "L": state.L, "Z": state.Z,
            "partial_rates": [[n, g] for n, g in rates],
            "total_rate": total,
            "unit": "1e6/s",
        })
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        records = [
            {"N": state.N, "L": state.L, "Z": state.Z, "quantity": f"partial_rate_n{n}",
             "unit": "1e6/s", "value": g}
            for n, g in rates
        ]
        records.append({"N": state.N, "L": state.L, "Z": state.Z, "quantity": "total_rate",
                        "unit": "1e6/s", "value": total})
        _emit_records(records, args.format, stream)
    return EXIT_OK


def _run_bethe(args, constants, spec, stream) -> int:
    cutoffs = tuple(args.cutoffs)
    result = bethe_log(args.n, args.l, cutoffs, constants, spec, Z=args.z)
    if args.format == "json":
        payload = _round_floats(result.as_dict())
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        records = [
            {"N": args.n, "L": args.l, "quantity": "bethe_log", "unit": "1",
             "value": result.gamma},
            {"N": args.n, "L": args.l, "quantity": "mean_excitation", "unit": "Ry",
             "value": result.mean_excitation_Ry},
            {"N": args.n, "L": args.l, "quantity": "extrapolation_residual", "unit": "1",
             "value": result.extrapolation_residual},
        ]
        _emit_records(records, args.format, stream)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _run_table(args, constants, spec, stream) -> int:
    cells = generate_table(args.id, constants, spec, bethe_cutoffs=tuple(args.cutoffs))
    records = [
        {
            "table_id": cell.table_id,
            "N": cell.N,
            "L": cell.L,
            "J": cell.J,
            "n": cell.n,
            "quantity": cell.quantity,
            "unit": cell.unit,
            "computed": cell.computed,
            "reference": cell.reference,
            "rel_dev": cell.rel_dev,
        }
        for cell in cells
    ]
    if args.format == "json":
        json.dump(_round_floats(records), stream, indent=2)
        stream.write("\n")
    else:
        _emit_records(records, args.format, stream)
    return EXIT_OK if all(cell.converged for cell in cells) else EXIT_NOT_CONVERGED


def _run_verify(args, constants, spec, stream) -> int:
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
    primary = lamb_shift(QuantumState(N=1, L=0), DipoleOptions(), spec, constants)
    eps_route = shift_via_eps_extrapolated(QuantumState(N=1, L=0), constants=constants)
    checks.append({
        "check": "shift_rotated_vs_eps_axis_N1L0",
        "deviation": abs(primary.lamb_shift_MHz - eps_route.real) / abs(primary.lamb_shift_MHz),
        "tolerance": 1.0e-3,
    })
    for c in checks:
        c["pass"] = bool(c["deviation"] <= c["tolerance"])
    if args.format == "json":
        json.dump(_round_floats(checks), stream, indent=2)
        stream.write("\n")
    else:
        _emit_records(checks, args.format, stream)
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        constants = resolve_constants(args.constants_file)
        spec = QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
        runner = {
            "shift": _run_shift,
            "rates": _run_rates,
            "bethe": _run_bethe,
            "table": _run_table,
            "verify": _run_verify,
        }[args.command]
        buffer = io.StringIO()
        status = runner(args, constants, spec, buffer)
        sys.stdout.write(buffer.getvalue())
        return status
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
