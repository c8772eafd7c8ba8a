import argparse
import csv
import io
import json
import math

import pytest

from lambshift.cli import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, main
from lambshift.quadrature import Diagnostics, IntegrandError


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_rates_ground_state_json(capsys):
    status, out, _ = run_cli(capsys, "rates", "--z", "1", "--n", "1", "--l", "0", "--format", "json")
    assert status == EXIT_OK
    payload = json.loads(out)
    assert payload["partial_rates"] == []
    assert payload["total_rate"] == 0


def test_rates_2p_text_contains_value(capsys):
    status, out, _ = run_cli(capsys, "rates", "--n", "2", "--l", "1")
    assert status == EXIT_OK
    assert "626.81" in out


def test_shift_text_output(capsys):
    status, out, _ = run_cli(capsys, "shift", "--z", "1", "--n", "2", "--l", "1",
                             "--rel-tol", "1e-8")
    assert status == EXIT_OK
    assert "lamb_shift" in out and "MHz" in out
    # three-route consensus value for this state; see the acceptance suite
    # for the comparison against the published table entry
    assert "4.086" in out
    assert "626.81" in out


def test_shift_json_and_csv_digits_identical(capsys):
    args = ("shift", "--n", "2", "--l", "0", "--rel-tol", "1e-8")
    status, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert status == EXIT_OK
    payload = json.loads(out_json)
    status, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert status == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    csv_value = [r["value"] for r in rows if r["quantity"] == "lamb_shift"][0]
    assert float(csv_value) == payload["lamb_shift_MHz"]
    assert csv_value == format(payload["lamb_shift_MHz"], ".12g")


def test_invalid_quantum_numbers_exit_2(capsys):
    status, out, err = run_cli(capsys, "shift", "--n", "2", "--l", "2")
    assert status == EXIT_USAGE
    assert out == ""
    assert "L" in err or "quantum" in err


def test_non_finite_tolerance_exit_2(capsys):
    status, out, err = run_cli(capsys, "shift", "--n", "2", "--l", "1", "--rel-tol", "nan")
    assert status == EXIT_USAGE
    assert out == ""
    assert "finite" in err


def test_cutoff_without_dipole_rejected(capsys):
    status, _, err = run_cli(capsys, "shift", "--n", "1", "--l", "0", "--cutoff-x", "100")
    assert status == EXIT_USAGE
    assert "--dipole" in err


def test_dipole_needs_cutoff_for_shift(capsys):
    status, _, err = run_cli(capsys, "shift", "--n", "1", "--l", "0", "--dipole")
    assert status == EXIT_USAGE


def test_bethe_command(capsys):
    status, out, _ = run_cli(
        capsys, "bethe", "--n", "1", "--l", "0", "--format", "json",
    )
    assert status == EXIT_OK
    payload = json.loads(out)
    assert payload["bethe_log"] == pytest.approx(2.98413, abs=2e-3)
    assert payload["converged"] is True
    assert len(payload["estimates"]) == len(payload["cutoffs_used"]) == 5
    assert 0.0 < payload["error_estimate"] < 1e-8
    assert list(payload["diagnostics"]) == ["tau_phi_integral"]


def test_table_csv_covers_every_published_cell(capsys):
    status, out, _ = run_cli(capsys, "table", "--id", "1", "--format", "csv",
                             "--rel-tol", "1e-7")
    assert status == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert set(rows[0].keys()) >= {"table_id", "N", "L", "J", "n", "quantity",
                                   "unit", "computed", "reference", "rel_dev"}
    keys = {(r["N"], r["L"], r["n"], r["quantity"]) for r in rows}
    # the 13 published rows: 7 shift cells + rate cells per open channel
    for N, L in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)):
        assert (str(N), str(L), "", "lamb_shift") in keys
        for n in range(1, N):
            assert (str(N), str(L), str(n), "partial_rate") in keys
    with_refs = [r for r in rows if r["reference"] and float(r["reference"]) != 0.0]
    assert with_refs and all(r["rel_dev"] != "" for r in with_refs)


def test_constants_file_flag(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("alpha0 = 7.2973525693e-3\nmec2_eV = 510998.95\nhbar_eVs = 6.582119569e-16\n")
    status, out, _ = run_cli(capsys, "rates", "--n", "2", "--l", "1",
                             "--constants-file", str(path))
    assert status == EXIT_OK
    assert "626.81" in out


def test_constants_line_without_equals_exits_2(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("alpha0 = 7.2973525693e-3\nmec2_eV 510998.95\nhbar_eVs = 6.582119569e-16\n")
    status, out, err = run_cli(capsys, "shift", "--n", "2", "--l", "1", "--constants-file", str(path))
    assert status == EXIT_USAGE
    assert out == "" and f"{path}:2: expected 'key = value'" in err


@pytest.mark.parametrize(
    "argv, key", [(("shift", "--n", "2", "--l", "1"), "mec2_eV"), (("rates", "--n", "2", "--l", "1"), "alpha0")]
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_non_finite_constants_exit_2(tmp_path, capsys, monkeypatch, argv, key, source):
    # an infinite constant would print nan MHz or inf rates with exit 0
    values = {"alpha0": "7.2973525693e-3", "mec2_eV": "510998.95", "hbar_eVs": "6.582119569e-16", key: "inf"}
    path = tmp_path / "c.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    if source == "flag":
        argv = (*argv, "--constants-file", str(path))
    else:
        monkeypatch.setenv("LAMBSHIFT_CONSTANTS", str(path))
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_USAGE
    assert out == "" and "finite and positive" in err


def _constants_file(tmp_path, **values):
    values = {"alpha0": "7.2973525693e-3", "mec2_eV": "510998.95", "hbar_eVs": "6.582119569e-16", **values}
    path = tmp_path / "c.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv, constants, name",
    [
        # a tiny hbar puts every rate and every frequency past the double range
        (("rates", "--n", "2", "--l", "1"), {"hbar_eVs": "1e-320"}, "partial_rates[0][1]"),
        (("shift", "--n", "2", "--l", "1"), {"hbar_eVs": "1e-320"}, "lamb_shift_MHz"),
        (("table", "--id", "2"), {"hbar_eVs": "1e-320"}, "lamb_shift_dipole (row 2).computed"),
        (("rates", "--n", "2", "--l", "1"), {"mec2_eV": "1e305"}, "partial_rates[0][1]"),
    ],
)
def test_non_finite_output_exits_3_without_a_report(tmp_path, capsys, argv, constants, name, fmt):
    # a finite constant set whose outputs are inf or nan: no format prints them
    # (json has no Infinity), the error line names the first of them
    status, out, err = run_cli(capsys, *argv, "--constants-file", _constants_file(tmp_path, **constants),
                               "--format", fmt)
    assert status == EXIT_NOT_CONVERGED
    assert out == ""
    assert err == f"error: {name} is not finite\n"


@pytest.mark.parametrize(
    "command, alpha0",
    # before alpha0 < 1 was required: bethe failed on its phi edges, shift at
    # phi = 0, and rates printed 8.1e253 with exit 0
    [(("bethe", "--n", "1", "--l", "0"), "1e3"), (("shift", "--n", "2", "--l", "1"), "1e80"),
     (("rates", "--n", "2", "--l", "1"), "1e80")],
)
def test_alpha0_of_one_or_more_exits_2(tmp_path, capsys, command, alpha0):
    status, out, err = run_cli(capsys, *command, "--constants-file", _constants_file(tmp_path, alpha0=alpha0))
    assert status == EXIT_USAGE
    assert out == "" and "alpha0" in err


@pytest.mark.parametrize(
    "command",
    # before Z alpha0 < 1 was required: shift --z 200 printed 3.07e10 MHz with exit 0
    [("shift", "--n", "2", "--l", "1", "--z", "138"), ("shift", "--n", "2", "--l", "1", "--z", "200"),
     ("rates", "--n", "2", "--l", "1", "--z", "200"), ("bethe", "--n", "2", "--l", "1", "--z", "138")],
)
def test_z_alpha0_of_one_or_more_exits_2(capsys, command):
    status, out, err = run_cli(capsys, *command)
    assert status == EXIT_USAGE
    assert out == "" and "Z alpha0" in err and f"Z={command[-1]}" in err and "alpha0=0.0072973525693" in err


@pytest.mark.parametrize("command", ["shift", "rates", "bethe"])
def test_z_alpha0_just_below_one_is_accepted(capsys, command):
    # Z = 137: Z alpha0 = 0.99974, below the limit, however poor the expansion is there
    status, out, _ = run_cli(capsys, command, "--n", "2", "--l", "1", "--z", "137", "--format", "json")
    assert status == EXIT_OK
    assert json.loads(out)


@pytest.mark.parametrize("command", ["shift", "rates", "bethe"])
def test_z_alpha0_of_one_from_a_constants_file_exits_2(tmp_path, capsys, command):
    # alpha0 = 0.5 alone passes; with Z = 2 the coupling reaches 1
    path = _constants_file(tmp_path, alpha0="0.5")
    status, out, err = run_cli(capsys, command, "--n", "2", "--l", "1", "--z", "2", "--constants-file", path)
    assert status == EXIT_USAGE
    assert out == "" and "Z=2" in err and "alpha0=0.5" in err
    status, out, _ = run_cli(capsys, "rates", "--n", "2", "--l", "1", "--constants-file", path)
    assert status == EXIT_OK and out


def test_nonconvergence_exit_3(capsys, monkeypatch):
    import lambshift.cli as cli_mod

    class FakeResult:
        lamb_shift_MHz = 1.0
        tau_phi_term_MHz = 1.0
        pv_term_MHz = 0.0
        partial_rates = ()
        total_rate = 0.0
        converged = False

        def as_dict(self):
            return {"lamb_shift_MHz": 1.0, "converged": False}

    monkeypatch.setattr(cli_mod, "lamb_shift", lambda *a, **k: FakeResult())
    status, out, _ = run_cli(capsys, "shift", "--n", "1", "--l", "0")
    assert status == EXIT_NOT_CONVERGED
    assert out != ""  # report still printed


@pytest.mark.parametrize("exc", [
    OverflowError("math range error"),
    ZeroDivisionError("float division"),
    IntegrandError("integrand returned inf at x=700.0"),
    ArithmeticError("kernel series did not converge by j = 2000801 at (N, L, phi) = (1, 0, 20.0)"),
])
def test_arithmetic_error_exits_3(capsys, monkeypatch, exc):
    import lambshift.cli as cli_mod

    def failing(*args):
        raise exc

    monkeypatch.setattr(cli_mod, "_run_shift", failing)
    status, out, err = run_cli(capsys, "shift", "--n", "1", "--l", "0")
    assert status == EXIT_NOT_CONVERGED
    assert out == ""
    assert err.startswith("error:") and str(exc) in err


@pytest.mark.parametrize("command", ["shift", "bethe"])
def test_beyond_the_closed_branch_range_exits_3(capsys, command):
    # the closed branch's 1/(2N-3)! leaves the double range at N = 87; the
    # error names the state and the limit
    status, out, err = run_cli(capsys, command, "--n", "87", "--l", "86")
    assert status == EXIT_NOT_CONVERGED
    assert out == ""
    assert err.startswith("error: OverflowError(") and "(N, L) = (87, 86)" in err and "N <= 86" in err


def test_table_with_unconverged_bethe_log_exits_3(capsys, monkeypatch):
    import lambshift.shifts as shifts_mod

    def unconverged(N, L, *args, **kwargs):
        return shifts_mod.BetheResult(
            N=N, L=L, gamma=-0.03, mean_excitation_Ry=math.exp(-0.03), cutoffs_used=(),
            estimates=(), error_estimate=0.0, converged=False, diagnostics=Diagnostics({}),
        )

    monkeypatch.setattr(shifts_mod, "bethe_log", unconverged)
    status, out, _ = run_cli(capsys, "table", "--id", "3", "--format", "csv")
    assert status == EXIT_NOT_CONVERGED
    rows = list(csv.DictReader(io.StringIO(out)))  # the table is still printed
    assert {r["quantity"] for r in rows} >= {"bethe_log", "lamb_shift_dipole", "partial_rate_dipole"}
    assert "converged" not in rows[0]


def test_verify_subcommand_hidden_but_functional(capsys):
    status, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert status == EXIT_OK
    checks = json.loads(out)
    assert all(c["pass"] for c in checks)


def test_verify_not_advertised_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = capsys.readouterr().out
    assert "verify" not in help_text


@pytest.mark.parametrize("argv", [
    ("bethe", "--n", "2", "--l", "1", "--j", "1.5"),
    ("bethe", "--n", "2", "--l", "1", "--dipole"),
    ("table", "--id", "3", "--z", "5"),
    ("table", "--id", "1", "--dipole"),
    ("rates", "--n", "2", "--l", "1", "--rel-tol", "1e-3"),
    ("rates", "--n", "2", "--l", "1", "--dipole", "--cutoff-x", "5"),
    ("verify", "--z", "2"),
    ("shift", "--n", "2", "--l", "1", "--j", "1.5"),
    # the Bethe logarithm is one convergent integral; it takes no cutoffs
    ("bethe", "--n", "2", "--l", "1", "--cutoffs", "1e3", "3e3", "1e4"),
    ("table", "--id", "3", "--cutoffs", "1e3", "3e3", "1e4"),
])
def test_flag_the_subcommand_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


# Every flag listed here is read by its subcommand's runner; a flag added
# to the parser without a runner that reads it fails this test.
SUBCOMMAND_FLAGS = {
    "shift": {"--n", "--l", "--z", "--dipole", "--cutoff-x", "--rel-tol", "--format", "--constants-file"},
    "rates": {"--n", "--l", "--z", "--dipole", "--format", "--constants-file"},
    "bethe": {"--n", "--l", "--z", "--rel-tol", "--format", "--constants-file"},
    "table": {"--id", "--rel-tol", "--format", "--constants-file"},
    "verify": {"--rel-tol", "--format", "--constants-file"},
}


def test_each_subcommand_declares_exactly_the_flags_it_reads():
    from lambshift.cli import _build_parser

    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert declared == SUBCOMMAND_FLAGS
    assert sum(map(len, declared.values())) == 27


@pytest.mark.parametrize("argv", [
    ("shift", "--n", "2", "--l", "1"),
    ("bethe", "--n", "2", "--l", "1"),
    ("table", "--id", "1"),
    ("verify",),
])
def test_abs_tol_is_an_unknown_flag(capsys, argv):
    # every integral stops on rel_tol |integral| alone; there is no absolute tolerance
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--abs-tol", "1e-14"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--abs-tol" in captured.err
