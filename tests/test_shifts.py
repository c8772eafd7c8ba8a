import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from lambshift import kernel
from lambshift.constants import PhysicalConstants, default_constants, load_constants
from lambshift.kernel import residue_coeffs
from lambshift.oracles import circular_rate_closed_form
from lambshift.quadrature import QuadratureSpec, integrate_principal_value, kronrod_nodes_weights
from lambshift.shifts import (
    BETHE_CUTOFFS,
    NON_DIPOLE,
    TABLE1_STATES,
    TABLE2_STATES,
    TABLE3_STATES,
    DipoleOptions,
    QuantumState,
    _bracket_integrand,
    _channels,
    _photon_weight,
    _pole_pv,
    bethe_amplitude,
    bethe_log,
    decay_rates,
    dipole_lamb_full,
    generate_table,
    lamb_shift,
    shift_prefactor,
    weight_dipole,
    weight_nondipole,
)

C = default_constants()
DIPOLE = DipoleOptions(enabled=True)
# the Bethe-logarithm table states, the other high-L states of N <= 4 and four beyond the tables
BETHE_SAMPLE = (
    (1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1),
    (3, 2), (4, 2), (4, 3), (7, 2), (10, 0), (20, 0), (20, 10),
)


class TestQuantumState:
    def test_validation(self):
        QuantumState(N=3, L=2, J=1.5, Z=2)
        with pytest.raises(ValueError):
            QuantumState(N=2, L=2)
        with pytest.raises(ValueError):
            QuantumState(N=2, L=0, Z=0)
        # the charge is an integer as N and L are: an integral float or a
        # string raises the ValueError the CLI maps to exit 2
        for Z in (2.0, "2"):
            with pytest.raises(ValueError, match="nuclear charge"):
                QuantumState(N=2, L=0, Z=Z)
        assert QuantumState(N=2, L=0, Z=np.int64(2)).Z == 2
        # a bool is no quantum number or charge: (True, False) became (1, 0)
        with pytest.raises(ValueError, match="invalid quantum numbers"):
            QuantumState(N=True, L=False)
        with pytest.raises(ValueError, match="nuclear charge"):
            QuantumState(N=2, L=0, Z=True)
        with pytest.raises(ValueError):
            QuantumState(N=2, L=1, J=2.0)
        with pytest.raises(ValueError):
            QuantumState(N=1, L=0, J=-0.5)
        # NaN failed both comparisons and was accepted, so dipole_lamb_full
        # took the J = L - 1/2 constant; a string raised TypeError
        for J in (math.nan, math.inf, "1.5"):
            with pytest.raises(ValueError, match=r"J must be .* got J="):
                QuantumState(N=2, L=1, J=J)
        # an integral float is no quantum number: it must fail here, as the
        # ValueError that the CLI maps to exit 2, not deep in the kernel
        with pytest.raises(ValueError, match="invalid quantum numbers"):
            lamb_shift(QuantumState(N=2.0, L=0))
        with pytest.raises(ValueError, match="invalid quantum numbers"):
            decay_rates(QuantumState(N=3, L=1.0))
        with pytest.raises(ValueError, match="invalid quantum numbers"):
            bethe_log(2.0, 0)
        # numpy integers are integers
        assert decay_rates(QuantumState(N=np.int64(3), L=np.int64(1))) == decay_rates(QuantumState(N=3, L=1))

    def test_numpy_integers_leave_python_floats_in_the_tables(self):
        # a numpy-integer state first, in a fresh interpreter: its (N, L)
        # keys the process-wide tables (shifts._channels and the Jacobi
        # steps), which hand their values to every later caller, so they
        # must be filled from Python ints and hold Python floats
        src = str(Path(kernel.__file__).resolve().parents[1])
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
            "from lambshift.kernel import residue_coeffs; "
            "from lambshift.shifts import QuantumState, bethe_log, decay_rates; "
            "first = decay_rates(QuantumState(np.int64(3), np.int64(1))); "
            "values = [g for _, g in first + decay_rates(QuantumState(3, 1))] + [residue_coeffs(3, 1, 0.7, 1)]; "
            "ints = [bethe_log(np.int64(2), np.int64(1)).N, QuantumState(2, 0, Z=np.int64(2)).Z]; "
            "print(json.dumps([[type(v).__name__ for v in values], [type(v).__name__ for v in ints]]))"
        )
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [["float"] * 5, ["int", "int"]]

    def test_dipole_options_validation(self):
        with pytest.raises(ValueError):
            DipoleOptions(enabled=True, cutoff_x=-1.0)
        # math.isfinite raised TypeError on a string
        for bad in ("3", math.nan, math.inf, 0.0, True):
            with pytest.raises(ValueError, match="cutoff_x must be positive and finite"):
                DipoleOptions(enabled=True, cutoff_x=bad)
        with pytest.raises(ValueError):
            DipoleOptions(enabled=True).phi_cut(QuantumState(N=1, L=0), C)
        # a cutoff without the dipole approximation would be silently ignored
        with pytest.raises(ValueError, match="enabled=True.*--dipole"):
            DipoleOptions(cutoff_x=1.0e3)
        # a truthy non-bool returned the dipole rates: 167.3438... against 167.3378...
        for bad in ("false", 1, 0, None, np.True_, np.False_):
            with pytest.raises(ValueError, match=f"enabled must be True or False, got {bad!r}"):
                DipoleOptions(bad)
        opts = DipoleOptions(enabled=True, cutoff_x=1.0e4)
        phi = opts.phi_cut(QuantumState(N=2, L=0), C)
        ratio = 2.0 / C.alpha0
        assert math.exp(2.0 * phi) == pytest.approx(1.0 + 4.0e4 * ratio * ratio, rel=1e-12)


class TestWeights:
    def test_zero_at_origin(self):
        state = QuantumState(N=2, L=1)
        assert weight_nondipole(state, 0.0, C) == 0.0
        assert weight_dipole(state, 0.0, C) == 0.0

    def test_nondipole_saturates_at_one(self):
        state = QuantumState(N=1, L=0)
        assert weight_nondipole(state, 25.0, C) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("N, L, Z", [(1, 0, 1), (4, 1, 1), (86, 0, 1), (1, 0, 92)])
    def test_nondipole_saturated_beyond_the_double_range(self, N, L, Z):
        # e^{2 phi} overflows a double past phi = 354.9, where w is 1.0 to
        # the last bit; below that the weight is the formula bit for bit
        state = QuantumState(N=N, L=L, Z=Z)
        for phi in (20.0, 354.0):
            s = (Z * C.alpha0 / N) ** 2 * math.expm1(2.0 * phi)
            assert weight_nondipole(state, phi, C) == -math.expm1(-0.5 * math.log1p(s))
        assert weight_nondipole(state, 354.0, C) == 1.0
        for phi in (356.0, 400.0, 700.0):
            assert weight_nondipole(state, phi, C) == 1.0

    @pytest.mark.parametrize("Z", [1, 92])
    @pytest.mark.parametrize("N", [1, 4, 86])
    def test_closure_equals_the_written_formula_bit_for_bit(self, N, Z):
        # the closure over k = (Z a0/N)^2 squares first and takes the dipole
        # weight as (0.5 k) expm1(2 phi), the order of the written formulas
        def nondipole(phi):
            try:
                s = (Z * C.alpha0 / N) ** 2 * math.expm1(2.0 * phi)
            except OverflowError:
                return 1.0
            return -math.expm1(-0.5 * math.log1p(s))

        def dipole(phi):
            return 0.5 * (Z * C.alpha0 / N) ** 2 * math.expm1(2.0 * phi)

        state = QuantumState(N=N, L=0, Z=Z)
        poles = sorted({math.log(M / n) for M, _ in TABLE1_STATES for n in range(1, M)})
        phis = (*poles, 0.0, 1e-5, 20.0, 354.0, 356.0)
        for options, formula, public in ((NON_DIPOLE, nondipole, weight_nondipole), (DIPOLE, dipole, weight_dipole)):
            weight = _photon_weight(state, options, C)
            for phi in phis:
                if phi > 354.9 and options.enabled:  # e^{2 phi} overflows a double
                    for f in (weight, formula, lambda phi: public(state, phi, C)):
                        with pytest.raises(OverflowError):
                            f(phi)
                    continue
                assert weight(phi) == formula(phi) == public(state, phi, C), (options, phi)
        saturated = _photon_weight(state, NON_DIPOLE, C)
        for phi in (354.95, 356.0, 400.0, 700.0, 1e300):
            assert saturated(phi) == 1.0

    def test_nondipole_direct_arithmetic(self):
        state = QuantumState(N=2, L=0)
        phi = math.log(2.0)
        s = 2.0 * (C.alpha0 / 2.0) ** 2 * math.exp(phi) * math.sinh(phi)
        # (-1 + sqrt(1+s))/sqrt(1+s) without its cancellation at s ~ 4e-5
        want = s / (math.sqrt(1.0 + s) * (1.0 + math.sqrt(1.0 + s)))
        assert weight_nondipole(state, phi, C) == pytest.approx(want, rel=1e-13, abs=0)

    def test_dipole_matches_replacement_rule(self):
        state = QuantumState(N=2, L=0)
        phi = math.log(2.0)
        want = 0.5 * (C.alpha0 / 2.0) ** 2 * (math.exp(2.0 * phi) - 1.0)
        assert weight_dipole(state, phi, C) == pytest.approx(want, rel=1e-14, abs=0)

    def test_small_phi_ratio_tends_to_one(self):
        state = QuantumState(N=3, L=1)
        for phi in (1e-3, 1e-5):
            ratio = weight_dipole(state, phi, C) / weight_nondipole(state, phi, C)
            assert ratio == pytest.approx(1.0, abs=5e-3 * phi + 1e-9)


class TestDecayRates:
    def test_ground_state_stable(self):
        assert decay_rates(QuantumState(N=1, L=0)) == ()

    def test_2p_nondipole_matches_table(self):
        rates = decay_rates(QuantumState(N=2, L=1))
        assert rates[0][0] == 1
        assert rates[0][1] == pytest.approx(626.813, rel=2e-3)

    def test_2p_dipole_exact_closed_form(self):
        rates = decay_rates(QuantumState(N=2, L=1), DIPOLE)
        exact = (2.0 / 3.0) ** 8 * C.rate_unit_per_s(1) / 1.0e6
        assert rates[0][1] == pytest.approx(exact, rel=1e-12)

    def test_s_channels_to_s_shells_closed(self):
        # one-photon s -> 1s transitions carry no rate: the residue vanishes
        # analytically, and its float value is roundoff, never reported
        for N in range(2, 51):
            for options in (NON_DIPOLE, DIPOLE):
                assert dict(decay_rates(QuantumState(N=N, L=0), options))[1] == 0.0

    @pytest.mark.parametrize(
        "N, L, channels", [(40, 26, (26,)), (50, 25, (25,)), (200, 100, (100, 150, 199))]
    )
    def test_small_high_n_rates_kept(self, N, L, channels):
        # rates far below 1e-12 of the rate unit are real: each equals the
        # closed form with an 80-digit residue q_n = |D_n|^2/2 - |D_{n-1}|^2/4 - |D_{n+1}|^2/4
        from test_kernel import _mp_dilation_weight

        state = QuantumState(N=N, L=L)
        base = C.mec2_eV * C.alpha0**2 / C.hbar_eVs
        for options in (NON_DIPOLE, DIPOLE):
            rates = dict(decay_rates(state, options))
            for n in channels:
                pole = math.log(N / n)
                d = [_mp_dilation_weight(N, L, j, pole) for j in (n - 1, n, n + 1)]
                with mp.workdps(80):
                    r_n = float(d[1] / 2 - d[0] / 4 - d[2] / 4)
                w = weight_dipole(state, pole, C) if options.enabled else weight_nondipole(state, pole, C)
                want = -(8.0 * C.alpha0 / (3.0 * N * N)) * r_n * w * base / 1.0e6
                assert rates[n] != 0.0
                assert abs(rates[n] - want) <= 1e-10 * abs(want), (n, options)

    def test_rates_positive_free_of_sign_noise(self):
        for (N, L) in ((3, 1), (4, 0), (5, 2)):
            for n, g in decay_rates(QuantumState(N=N, L=L)):
                assert g >= 0.0

    def test_dipole_vs_nondipole_ratio_small_coupling(self):
        # with alpha0 scaled down 10x the two modes agree to 1e-4
        weak = PhysicalConstants(alpha0=C.alpha0 / 10.0, mec2_eV=C.mec2_eV, hbar_eVs=C.hbar_eVs)
        state = QuantumState(N=3, L=1)
        non = dict(decay_rates(state, DipoleOptions(), weak))
        dip = dict(decay_rates(state, DIPOLE, weak))
        for n in non:
            assert dip[n] / non[n] == pytest.approx(1.0, abs=1e-4)

    def test_z_scaling(self):
        z1 = dict(decay_rates(QuantumState(N=2, L=1, Z=1), DIPOLE))
        z2 = dict(decay_rates(QuantumState(N=2, L=1, Z=2), DIPOLE))
        assert z2[1] / z1[1] == pytest.approx(16.0, rel=1e-6)  # ~ Z^4 up to weight shape


class TestPoleResidues:
    def test_table_equals_residue_coeffs_bit_for_bit(self):
        for N in range(1, 21):
            for L in range(N):
                want = tuple(
                    (n, math.log(N / n), residue_coeffs(N, L, math.log(N / n), n)) for n in range(max(1, L), N)
                )
                assert _channels(N, L) == want, (N, L)

    def test_cold_tables_hold_machine_independent_counts(self):
        # a fresh interpreter's sweep of every N <= 20 state in both
        # approximations (the benchmark's rates grid) fills each lazy table
        # to a fixed size, one residue per channel and one row table built
        # per state with channels; a second sweep reads them.  The row table
        # holds the last state alone, and the rates build no table of the
        # kernel's record
        src = str(Path(kernel.__file__).resolve().parents[1])
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from lambshift import kernel, shifts, specfun; "
            "from lambshift.shifts import DipoleOptions, QuantumState, decay_rates; "
            "calls = []; residue = shifts.residue_coeffs; "
            "shifts.residue_coeffs = lambda *args: calls.append(args) or residue(*args); "
            "cases = [(QuantumState(N, L), DipoleOptions(enabled=dipole)) "
            "for N in range(1, 21) for L in range(N) for dipole in (False, True)]; "
            "first = [decay_rates(*case) for case in cases]; "
            "counts = [sum(map(len, specfun._JACOBI_STEPS.values())), kernel._row_table.cache_info().misses, "
            "shifts._channels.cache_info().currsize, len(calls)]; "
            "second = [decay_rates(*case) for case in cases]; "
            "held = [f.cache_info().currsize for f in (kernel._row_table, kernel._tables)]; "
            "print(json.dumps([counts, len(calls), len(cases), first == second, held]))"
        )
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [[1330, 209, 210, 1520], 1520, 420, True, [1, 0]]

    def test_keyed_by_state_alone(self, tmp_path):
        # the residues depend on (N, L) only: rates read from a table filled
        # under other charges, constants and options equal freshly computed ones
        path = tmp_path / "constants.txt"
        path.write_text("alpha0 = 7.2e-3\nmec2_eV = 511000.0\nhbar_eVs = 6.58e-16\n")
        cases = [
            (QuantumState(N=N, L=L, Z=Z), options, constants)
            for N, L in ((2, 1), (3, 0), (4, 1), (7, 3), (12, 11))
            for Z in (1, 92)
            for options in (NON_DIPOLE, DIPOLE)
            for constants in (C, load_constants(str(path)))
        ]
        warm = [decay_rates(*case) for case in cases]
        for case, rates in zip(cases, warm):
            _channels.cache_clear()
            assert decay_rates(*case) == rates, case


class TestCircularRates:
    def test_reduces_to_2p_value(self):
        assert circular_rate_closed_form(2) == pytest.approx(
            (2.0 / 3.0) ** 8 * C.rate_unit_per_s(1) / 1.0e6, rel=1e-14
        )

    def test_matches_general_pipeline(self):
        for N in (2, 5, 10):
            pipeline = dict(decay_rates(QuantumState(N=N, L=N - 1), DIPOLE))[N - 1]
            assert circular_rate_closed_form(N) == pytest.approx(pipeline, rel=1e-12, abs=0)

    def test_semiclassical_limit(self):
        N = 50
        semi = (2.0 / 3.0) / (N**4 * (N - 1)) * C.rate_unit_per_s(1) / 1.0e6
        assert circular_rate_closed_form(N) / semi == pytest.approx(1.0, abs=4e-3)

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            circular_rate_closed_form(1)


class TestLambShift:
    def test_ground_state_value_and_structure(self):
        result = lamb_shift(QuantumState(N=1, L=0))
        assert result.converged
        assert result.lamb_shift_MHz == pytest.approx(7936.29, rel=2e-3)
        assert result.pv_term_MHz == 0.0
        assert math.copysign(1.0, result.pv_term_MHz) == 1.0  # not -0.0
        assert result.total_rate == 0.0
        assert result.partial_rates == ()

    def test_breakdown_consistency(self):
        result = lamb_shift(QuantumState(N=2, L=0))
        assert result.lamb_shift_MHz == pytest.approx(
            result.tau_phi_term_MHz + result.pv_term_MHz, abs=1e-9
        )
        assert result.total_rate == pytest.approx(
            math.fsum(g for _, g in result.partial_rates), abs=1e-12
        )

    @pytest.mark.parametrize("options", [NON_DIPOLE, DipoleOptions(enabled=True, cutoff_x=1e3)])
    def test_one_residue_call_per_channel(self, monkeypatch, options):
        # the pole strengths of the shift and the rates share each channel's
        # residue, computed once per process for both approximations
        import lambshift.shifts as shifts_mod

        seen = []
        residue = shifts_mod.residue_coeffs

        def counting(N, L, phi, n):
            seen.append((phi, n))
            return residue(N, L, phi, n)

        state = QuantumState(N=4, L=1)
        expected = lamb_shift(state, options)
        monkeypatch.setattr(shifts_mod, "residue_coeffs", counting)
        shifts_mod._channels.cache_clear()
        result = lamb_shift(state, options)
        assert seen == [(math.log(4 / n), n) for n in (1, 2, 3)]
        assert result.partial_rates == decay_rates(state, options) == expected.partial_rates
        assert result.lamb_shift_MHz == expected.lamb_shift_MHz
        other = DipoleOptions() if options.enabled else DipoleOptions(enabled=True)
        assert lamb_shift(state, options).lamb_shift_MHz == expected.lamb_shift_MHz
        assert decay_rates(state, other)
        assert len(seen) == 3

    def test_total_rate_equals_rates_command_total(self, monkeypatch):
        # ShiftResult.total_rate and the `rates` command's total (before its
        # 12-digit rendering) sum the same rates the same way; the shift
        # itself is stubbed out, only the rates matter
        import argparse

        import lambshift.shifts as shifts_mod
        from lambshift.cli import _run_rates
        from lambshift.quadrature import QuadratureResult

        stub = QuadratureResult(0.0, 0.0, 0, True, subdivisions=0, columns=(0.0, 0.0))
        monkeypatch.setattr(shifts_mod, "integrate_panels", lambda *args: stub)
        for N in range(1, 21):
            for L in range(N):
                for dipole in (False, True):
                    options = DipoleOptions(enabled=dipole, cutoff_x=1e3 if dipole else None)
                    total = lamb_shift(QuantumState(N=N, L=L), options, constants=C).total_rate
                    args = argparse.Namespace(n=N, l=L, z=1, dipole=dipole)
                    payload = _run_rates(args, C)[0]
                    assert payload["total_rate"] == total, (N, L, dipole)

    def test_dipole_cutoff_below_pole_rejected(self):
        state = QuantumState(N=2, L=1)
        with pytest.raises(ValueError):
            lamb_shift(state, DipoleOptions(enabled=True, cutoff_x=1e-9))

    def test_converges_beyond_the_tables(self):
        # beyond the tabulated N <= 4 the outer phi integral converges within
        # its default budget on both sides of the series/closed switch
        results = {s: lamb_shift(QuantumState(N=s[0], L=s[1])) for s in ((5, 0), (6, 0), (8, 3))}
        assert all(r.converged for r in results.values())
        # s-state shifts scale roughly as 1/N^3
        two_s = lamb_shift(QuantumState(N=2, L=0)).lamb_shift_MHz
        for N in (5, 6):
            scaled = N**3 * results[(N, 0)].lamb_shift_MHz
            assert scaled == pytest.approx(8.0 * two_s, rel=0.05)

    def test_tolerance_beyond_reach_ends_unconverged(self):
        # refinement next to the 2p pole at ln 2 would put a node on it,
        # where N e^-phi - n is exactly 0: the shift reports converged=False
        result = lamb_shift(QuantumState(N=2, L=1), spec=QuadratureSpec(rel_tol=1e-16))
        assert not result.converged
        assert result.lamb_shift_MHz == pytest.approx(lamb_shift(QuantumState(N=2, L=1)).lamb_shift_MHz)

    def test_diagnostics_are_recorded(self):
        # one outer quadrature whose two columns are the tau integrand and the
        # pole-subtracted principal-value integrands; for 2p the closed log
        # (A_1/1) ln((2-1)/1) vanishes, so the second column is the PV term
        result = lamb_shift(QuantumState(N=2, L=1))
        parts = result.diagnostics.as_dict()
        assert list(parts) == ["tau_phi_integral"]
        part = parts["tau_phi_integral"]
        assert part["error_estimate"] >= 0.0
        assert part["evaluations"] == result.diagnostics.evaluations > 0
        prefactor = shift_prefactor(result.state, C)
        terms = [C.eV_to_MHz(prefactor * c) for c in part["columns"]]
        assert terms == [result.tau_phi_term_MHz, result.pv_term_MHz]


class TestPoleSubtraction:
    """The closed-form pole term and the panel layout around the poles."""

    @pytest.mark.parametrize("N, n", [(2, 1), (3, 1), (3, 2), (4, 3), (7, 2), (20, 19)])
    @pytest.mark.parametrize("upper", [None, 3.5])
    def test_closed_log_equals_principal_value(self, N, n, upper):
        pole = math.log(N / n)
        strength = 0.37
        pv = integrate_principal_value(
            lambda phi: strength * np.exp(pole - phi), pole,
            denominator=lambda phi: N * np.exp(-phi) - n, upper=upper,
        )
        assert pv.converged
        # within the folded principal value's own error estimate, which is
        # 2e-12..4e-10 here, and 1e-12 at most
        limit = math.inf if upper is None else upper
        assert abs(strength * _pole_pv(N, n, limit) - pv.value) <= min(pv.error_estimate, 1e-12)

    @pytest.mark.parametrize("upper", [1.0, None])
    def test_closed_log_at_tight_tolerance(self, upper):
        # the folded principal value at rel_tol 1e-12 against the hot path's
        # closed-form pole term: with the oracle's denominator 2 expm1(pole -
        # phi) it converges to it; with 3 e^-phi - 2, whose roundoff next to
        # the pole the fold amplifies, it stays finite and says whether it
        # met the tolerance
        pole, spec = math.log(3 / 2), QuadratureSpec(rel_tol=1e-12)
        want = _pole_pv(3, 2, math.inf if upper is None else upper)

        def pv(denominator):
            return integrate_principal_value(
                lambda phi: np.exp(pole - phi), pole, spec, denominator=denominator, upper=upper
            )

        accurate = pv(lambda phi: 2 * np.expm1(pole - phi))
        assert accurate.converged
        assert accurate.value == pytest.approx(want, rel=1e-12, abs=0)
        rounded = pv(lambda phi: 3 * np.exp(-phi) - 2)
        assert math.isfinite(rounded.value)
        assert not rounded.converged or rounded.value == pytest.approx(want, rel=1e-12)

    def test_node_an_ulp_from_a_pole(self, monkeypatch):
        # at (50, 40) with rel_tol 1e-13 the refinement puts nodes within an
        # ulp of the pole ln(50/49), where N e^-phi rounds to exactly n; the
        # subtracted integrand takes N e^-phi - n as n expm1(phi_n - phi),
        # which vanishes only at the pole itself, never a node
        import lambshift.shifts as shifts_mod

        pole, nodes = math.log(50 / 49), []
        for direction in (math.inf, -math.inf):
            phi = pole
            for _ in range(4):
                phi = math.nextafter(phi, direction)
                nodes.append(phi)
        assert all(50 * math.exp(-phi) == 49 for phi in nodes)

        class Probed(Exception):
            pass

        def probing(f, *args, **kwargs):
            rows = f(np.array(nodes))
            assert np.isfinite(rows).all()
            raise Probed

        monkeypatch.setattr(shifts_mod, "integrate_panels", probing)
        with pytest.raises(Probed):
            lamb_shift(QuantumState(50, 40), spec=QuadratureSpec(rel_tol=1e-13))

    @pytest.mark.parametrize(
        "N, L, options, limits",
        [
            (4, 1, NON_DIPOLE, (math.inf,)),
            (7, 2, NON_DIPOLE, (math.inf,)),
            (4, 1, DIPOLE, (7.0, 8.0)),
            (7, 2, DIPOLE, (8.5, 9.0, 10.0)),
        ],
    )
    def test_every_pole_is_a_panel_edge(self, monkeypatch, N, L, options, limits):
        import lambshift.shifts as shifts_mod

        calls = []
        original = shifts_mod.integrate_panels

        def recording(f, *args, **kwargs):
            def g(x):
                calls.append(np.array(x, copy=True))
                return f(x)

            return original(g, *args, **kwargs)

        monkeypatch.setattr(shifts_mod, "integrate_panels", recording)
        state = QuantumState(N=N, L=L)
        for limit in limits:
            # the dipole cutoff x whose phi_cut is limit: e^{2 phi} = 1 + 4 x (N/a0)^2
            x = math.expm1(2.0 * limit) * (C.alpha0 / N) ** 2 / 4.0 if options.enabled else None
            lamb_shift(state, DipoleOptions(options.enabled, x), constants=C)
        outer = kronrod_nodes_weights()[0][1]
        # nodes come in 15-node panels of (-x_i, x_i) pairs around the centre,
        # which is last; the non-dipole x = e^-phi panels, past every pole,
        # are not symmetric in phi and are left out
        panels = [p for c in calls for p in c.reshape(-1, 15)]
        linear = [p for p in panels if math.isclose(p[0] + p[1], 2.0 * p[14], rel_tol=1e-12)]
        assert (len(linear) == len(panels)) == options.enabled
        nodes = np.concatenate(linear)
        widths = np.repeat([2.0 * (p[1] - p[14]) / outer for p in linear], 15)
        for n in range(max(1, L), N):
            gap = np.abs(nodes - math.log(N / n)) / widths
            assert gap.min() >= 0.004, n


class TestTransitionRestart:
    """The non-dipole phi panels run through the weight's transition phi_w = ln(N/(Z a0))
    in panels at most 1.5 wide after the first, and one panel in x = e^-phi takes
    the rest of the semi-infinite domain."""

    # (evaluations, lamb_shift_MHz, tau_phi_term_MHz, pv_term_MHz) of each
    # Table-1 state at the default spec; the shifts are those of the layout
    # whose doubling panels ran from the last pole alone, in 1,665
    # evaluations and 25 bisections.  The doubling panels that ended at
    # phi_w took (2,1) in 105 and (4,0) in 165 evaluations, with one
    # bisection of a panel across the transition in each state but (2,1);
    # panels at most 1 wide under the |K15 - G7| estimate took 90, 105,
    # 135, 120, 120, 135 and 135, (2,1) with one bisection
    TABLE1 = {
        (1, 0): (75, 7936.290038546572, 7936.290038546572, 0.0),
        (2, 0): (90, 1015.3974447520557, 492.46309571361905, 522.9343490384366),
        (2, 1): (90, 4.086179389745254, 71.02259348797212, -66.93641409822686),
        (3, 0): (105, 302.63023668271546, 108.60094977309282, 194.02928690962267),
        (3, 1): (105, 1.5396016995756456, 8.129751035542347, -6.590149335966701),
        (4, 0): (120, 127.9746820529746, 36.29722072522628, 91.67746132774832),
        (4, 1): (120, 0.7134081090003961, 3.11986245038057, -2.406454341380174),
    }

    @staticmethod
    def _edges(monkeypatch, state):
        """The edges of each integrate_panels call of the state's non-dipole shift, and its result."""
        import lambshift.shifts as shifts_mod

        calls, original = [], shifts_mod.integrate_panels

        def recording(f, edges, *args, **kwargs):
            calls.append(tuple(edges))
            return original(f, edges, *args, **kwargs)

        monkeypatch.setattr(shifts_mod, "integrate_panels", recording)
        return calls, lamb_shift(state)

    @staticmethod
    def _layout(N, L, count, end):
        """0, the poles ascending, the last pole plus 1, then count equal panels up to end."""
        lead = (0.0, *sorted(pole for _, pole, _ in _channels(N, L)))
        start = lead[-1] + 1.0
        return (*lead, *(start + (end - start) * k / count for k in range(count)), end)

    @pytest.mark.parametrize("N, L", list(TABLE1))
    def test_table_1_counts_and_shifts(self, N, L):
        evaluations, *shifts = self.TABLE1[(N, L)]
        result = lamb_shift(QuantumState(N=N, L=L))
        assert result.converged
        assert result.diagnostics.parts["tau_phi_integral"].evaluations == evaluations
        got = (result.lamb_shift_MHz, result.tau_phi_term_MHz, result.pv_term_MHz)
        assert got == pytest.approx(tuple(shifts), rel=1e-12, abs=0)

    @pytest.mark.parametrize("N, L", list(TABLE1))
    def test_table_1_edges_end_at_the_transition(self, monkeypatch, N, L):
        # one call: phi_w - phi_L = ln(max(1, L)/a0) = 4.92 for every Table-1
        # state, so [phi_L, phi_L + 1] and three panels 1.31 wide end at phi_w,
        # then the last edge inf makes (phi_w, inf) one panel in x = e^-phi
        end = math.log(N / C.alpha0)
        (edges,), _ = self._edges(monkeypatch, QuantumState(N=N, L=L))
        want = self._layout(N, L, 3, end)
        assert edges[:-1] == pytest.approx(want, rel=0, abs=1e-14) and edges[-2:] == (end, math.inf)
        run = edges[len(_channels(N, L)) : -1]  # phi_L .. phi_w
        assert max(b - a for a, b in zip(run, run[1:])) <= 1.5 + 1e-14

    def test_table_1_takes_one_integrand_call_per_state(self, monkeypatch):
        # every panel across the transition is resolved by the first call:
        # 7 calls and 705 nodes.  Under the |K15 - G7| estimate (2,1)
        # bisected its (0, ln 2) panel: 8 calls and 840 nodes
        import lambshift.shifts as shifts_mod

        calls, original = {}, shifts_mod._bracket_integrand

        def counting(N, L, weight):
            f, terms = original(N, L, weight)

            def g(phis):
                calls[N, L] = calls.get((N, L), 0) + 1
                return f(phis)

            return g, terms

        monkeypatch.setattr(shifts_mod, "_bracket_integrand", counting)
        evaluations = sum(lamb_shift(QuantumState(N=N, L=L)).diagnostics.evaluations for N, L in self.TABLE1)
        assert calls == {state: 1 for state in self.TABLE1}
        assert evaluations == 705

    @pytest.mark.parametrize("N, L, count, evaluations", [(10, 9, 5, 180), (8, 7, 4, 195)])
    def test_near_circular_states_end_at_the_transition(self, monkeypatch, N, L, count, evaluations):
        end = math.log(N / C.alpha0)
        (edges,), result = self._edges(monkeypatch, QuantumState(N=N, L=L))
        # phi_w - phi_L is 7.12 for (10,9) and 6.87 for (8,7): after
        # [phi_L, phi_L + 1], five panels 1.22 wide and four 1.47 wide; the
        # doubling panels had ended [phi_L + 3, phi_L + 7, phi_w] and
        # [phi_L + 3, phi_w], in 195 and 165 evaluations, and panels at most
        # 1 wide took 210 and 195
        want = self._layout(N, L, count, end)
        assert edges[:-1] == pytest.approx(want, rel=0, abs=1e-14) and edges[-2:] == (end, math.inf)
        assert result.converged
        assert result.diagnostics.parts["tau_phi_integral"].evaluations == evaluations

    def test_transition_too_close_to_the_last_pole(self, monkeypatch):
        # at Z = 92 phi_w = ln(1/(92 a0)) = 0.40 lies within one first-panel
        # width of phi_L = 0, so the phi panels are that panel, [0, 1]
        (edges,), result = self._edges(monkeypatch, QuantumState(N=1, L=0, Z=92))
        assert edges == (0.0, 1.0, math.inf)
        assert result.converged
        (edges,), _ = self._edges(monkeypatch, QuantumState(N=1, L=0, Z=10))
        assert edges[-2:] == (math.log(1 / (10 * C.alpha0)), math.inf)


class TestDefaultSpecAccuracy:
    """Default-spec shifts and Bethe logarithms against rel_tol 1e-12 runs of the same route.

    Both runs share the tau series, which stops on TAU_REL_TOL |sum| alone.
    Under the former absolute floor of 1e-15 the series stopped at (50, 49),
    (50, 48), (60, 59) and (86, 85) on tail terms that were still rising, and
    the outer quadrature chased the resulting jumps: the default runs sat
    2.1e-8 .. 7.7e-7 from the tight ones, with converged=True.  Now (50, 49)
    sits 4.5e-12 (Z = 1) and 4.1e-12 (Z = 92) from its tight run, and the
    others of ROADMAP item 2's grid at most 1.9e-10 ((86, 84)).
    """

    TIGHT = QuadratureSpec(rel_tol=1e-12)

    @pytest.mark.parametrize(
        "N, L",
        [*TABLE1_STATES, (5, 4), (7, 2), (8, 3), (8, 7), (10, 9), (20, 10), (20, 18), (30, 28), (30, 29), (50, 49)],
    )
    def test_within_1e_11_of_the_tight_run(self, N, L):
        for Z in (1, 92):
            state = QuantumState(N=N, L=L, Z=Z)
            default, tight = lamb_shift(state), lamb_shift(state, spec=self.TIGHT)
            assert default.converged and tight.converged
            assert default.lamb_shift_MHz == pytest.approx(tight.lamb_shift_MHz, rel=1e-11, abs=0), Z

    @pytest.mark.parametrize("N, L", [(50, 48), (60, 59), (86, 85)])
    def test_high_l_shift_and_gamma_within_1e_9_of_the_tight_run(self, N, L):
        # ROADMAP item 2's gate on a sample of its grid: 2.3e-11, 2.6e-11 and
        # 4.5e-11 now, against 2.1e-8 .. 7.7e-7 under the tau series' floor
        for Z in (1, 92):
            state = QuantumState(N=N, L=L, Z=Z)
            default, tight = lamb_shift(state), lamb_shift(state, spec=self.TIGHT)
            assert default.converged and tight.converged
            assert default.lamb_shift_MHz == pytest.approx(tight.lamb_shift_MHz, rel=1e-9, abs=0), Z
            default, tight = bethe_log(N, L, Z=Z), bethe_log(N, L, spec=self.TIGHT, Z=Z)
            assert default.converged and tight.converged
            assert default.gamma == pytest.approx(tight.gamma, rel=1e-9, abs=0), Z


class TestErrorEstimateNeverOptimistic:
    """Each default-spec error_estimate is at least the gap to a tight run of the same integrand.

    The tight run takes rel_tol 1e-13 and starts from the default layout
    with each finite panel halved, so its accuracy does not rest on the
    estimate under test: a tight run on the default layout refines only as
    far as that estimate asks, and with the estimate scaled down 1e4 it
    stayed within that estimate of the default run.  The estimate is that
    of the outer phi integral, so a shift's is compared with the gap of
    that integral and a Bethe logarithm's with the gap of gamma, whose
    closed-form terms both runs share.  The smallest ratios of estimate to
    gap are 655 .. 758 for the Table-1 s states and 8.4e3 for the Bethe
    logarithms.  The tight run need not converge, only claim an error at
    most a tenth of the default's (at most 0.012 of it here): the tight
    (20, 10) run ends unconverged at 1.4 times its target after 11,565
    evaluations, its panels' roundoff floors summing to about that
    target, yet 2.2e-4 times the default estimate.
    """

    TIGHT = QuadratureSpec(rel_tol=1e-13)

    @staticmethod
    def _halved(monkeypatch, layout: str) -> None:
        """Make the shifts module's layout function split each of its finite panels in two."""
        import lambshift.shifts as shifts_mod

        coarse = getattr(shifts_mod, layout)

        def halved(*args):
            edges = coarse(*args)
            finite = [e for e in edges if e < math.inf]
            fine = [x for a, b in zip(finite, finite[1:]) for x in (a, 0.5 * (a + b))]
            return (*fine, finite[-1], *edges[len(finite) :])

        monkeypatch.setattr(shifts_mod, layout, halved)

    @pytest.mark.parametrize("N, L", [*TABLE1_STATES, (8, 3), (20, 10), (50, 49)])
    def test_shift(self, monkeypatch, N, L):
        state = QuantumState(N=N, L=L)
        default = lamb_shift(state).diagnostics.parts["tau_phi_integral"]
        self._halved(monkeypatch, "_transition_edges")
        tight = lamb_shift(state, spec=self.TIGHT).diagnostics.parts["tau_phi_integral"]
        assert default.converged and tight.error_estimate <= 0.1 * default.error_estimate
        assert default.error_estimate >= abs(default.value - tight.value)

    @pytest.mark.parametrize("N, L", [*TABLE2_STATES, *TABLE3_STATES])
    def test_bethe_log(self, monkeypatch, N, L):
        default = bethe_log(N, L)
        self._halved(monkeypatch, "_phi_edges")
        tight = bethe_log(N, L, spec=self.TIGHT)
        assert default.converged and tight.error_estimate <= 0.1 * default.error_estimate
        assert default.error_estimate >= abs(default.gamma - tight.gamma)


class TestSmallCouplingLimit:
    """The non-dipole shift tends to Bethe's form as Z alpha0 -> 0, against bethe_log.

    With A = bethe_amplitude and gamma = bethe_log(N, L).gamma,

        DeltaE/A + gamma + delta_{L0} 2 ln(Z alpha0) -> delta_{L0} (ln 4 - 1).

    alpha0 is shrunk through the constants alone.  This checks the shift's
    non-dipole weight, its x-panel tail, pole terms and stopping rule
    against the Bethe logarithm's dipole weight, cutoff marks and sum rule;
    the tau kernel and the residues are shared.  The bounds are measured
    at the default spec: for L >= 1, |DeltaE/A + gamma|/|gamma| is
    1.4e-6 .. 5.6e-10 at alpha0 = 1e-4 and falls 71-87-fold to 1.8e-8 ..
    7.9e-12 at 1e-5, a little short of alpha0^2; for L = 0 the remainder
    is 10.620 .. 10.660 alpha0 at both alpha0, the same across N to 7.8e-8.
    (50, 48) and (86, 85) stayed at 1.8e-7 and 2.9e-7 at both alpha0 while
    an absolute floor of 1e-15 stopped the tau series early at high L.
    """

    ALPHAS = (1e-4, 1e-5)

    @staticmethod
    def _remainder(N, L, alpha0):
        constants = PhysicalConstants(alpha0=alpha0, mec2_eV=C.mec2_eV, hbar_eVs=C.hbar_eVs)
        state = QuantumState(N=N, L=L)
        shift = constants.MHz_to_eV(lamb_shift(state, constants=constants).lamb_shift_MHz)
        remainder = shift / bethe_amplitude(state, constants) + bethe_log(N, L).gamma
        return remainder + 2.0 * math.log(alpha0) - (math.log(4.0) - 1.0) if L == 0 else remainder

    def test_s_states_reach_ln4_minus_1_at_order_alpha0(self):
        for alpha0 in self.ALPHAS:
            remainders = [self._remainder(N, 0, alpha0) for N in (1, 2, 10)]
            assert all(10.0 * alpha0 <= r <= 11.0 * alpha0 for r in remainders), (alpha0, remainders)
            assert max(remainders) - min(remainders) <= 1e-7, (alpha0, remainders)

    @pytest.mark.parametrize(
        "N, L",
        [(2, 1), (4, 1), (20, 10), (10, 9), (30, 28), (50, 49), (50, 48), (86, 85)],
    )
    def test_remainder_falls_almost_as_alpha0_squared(self, N, L):
        gamma = abs(bethe_log(N, L).gamma)
        coarse, fine = (abs(self._remainder(N, L, a)) / gamma for a in self.ALPHAS)
        assert fine <= 2e-8
        assert 60.0 <= coarse / fine <= 100.0, (coarse, fine)


# Shifts and Bethe logarithms beyond the tables, with their outer evaluation
# counts: (N, L, Z): (shift MHz, evaluations, gamma, evaluations).  The values
# are from the route before each integrand call became one array block; the
# (30, 28) shift is that of the purely relative stopping rule: an absolute
# floor of 1e-14 stopped (30, 28) 1.1e-8 from its rel_tol 1e-12 run after 135
# evaluations.  The shift counts are those of panels at most 1.5 wide through
# the weight's transition (shifts._transition_edges) under the Legendre-tail
# panel estimate (quadrature._panel_error); panels at most 1 wide under the
# |K15 - G7| estimate took 435, 555, 330 and 240, the doubling panels 495,
# 570, 285 and 255, and the Bethe logarithms of (30, 28) and (8, 3, Z = 92)
# took 225 and 165 under that estimate.
HIGH_N_BEFORE_BLOCKS = {
    (20, 0, 1): (1.0273018310731508, 450, 2.723967084293013, 360),
    (20, 10, 1): (1.3027704527679911e-05, 525, -9.603671400947368e-05, 225),
    (30, 28, 1): (1.0920844552864828e-07, 285, -2.717210126435994e-06, 195),
    (8, 3, 92): (929720.9167496533, 210, -0.00285911455929516, 135),
}


class TestHighNRegression:
    """The array-block integrand keeps the shifts and the Bethe logarithms beyond the tables, with pinned node counts."""

    @pytest.mark.parametrize("N, L, Z", list(HIGH_N_BEFORE_BLOCKS))
    def test_within_1e_10_with_the_same_evaluations(self, N, L, Z):
        shift, shift_evals, gamma, gamma_evals = HIGH_N_BEFORE_BLOCKS[N, L, Z]
        result = lamb_shift(QuantumState(N=N, L=L, Z=Z))
        assert result.converged and result.diagnostics.evaluations == shift_evals
        assert result.lamb_shift_MHz == pytest.approx(shift, rel=1e-10, abs=0)
        bethe = bethe_log(N, L, Z=Z)
        assert bethe.converged and bethe.diagnostics.evaluations == gamma_evals
        assert bethe.gamma == pytest.approx(gamma, rel=1e-10, abs=0)

    def test_exact_pole_node_names_the_state(self):
        # at phi = ln 50, N e^-phi is exactly 1.0, a residue pole of the closed
        # branch: the shift's integrand raises ArithmeticError naming the node
        # among nodes that are fine, instead of dividing by zero
        phi = math.log(50)
        assert 50 * math.exp(-phi) == 1.0
        weight = _photon_weight(QuantumState(N=50, L=0), NON_DIPOLE, C)
        integrand, _ = _bracket_integrand(50, 0, weight)
        with pytest.raises(ArithmeticError, match=rf"\(N, L, phi\) = \(50, 0, {phi!r}\)$"):
            integrand(np.array([2.0, 3.5, phi, 5.0]))


class TestBethe:
    def test_ground_state(self):
        result = bethe_log(1, 0)
        assert result.converged
        assert result.gamma == pytest.approx(2.98413, abs=1e-3)
        assert result.mean_excitation_Ry == pytest.approx(19.769, rel=1e-3)
        assert result.mean_excitation_Ry == math.exp(result.gamma)

    def test_2p(self):
        result = bethe_log(2, 1)
        assert result.gamma == pytest.approx(-0.0300156, abs=2e-4)

    def test_z_independence(self):
        # the integrand in units of gamma does not depend on Z; only the
        # phi of the reported cutoffs do
        spec = QuadratureSpec(rel_tol=1e-12)
        for N, L in ((1, 0), (2, 0), (2, 1)):
            gammas = [bethe_log(N, L, spec=spec, Z=Z).gamma for Z in (1, 2, 92)]
            assert max(gammas) - min(gammas) <= 1e-12, (N, L, gammas)

    def test_s_states_are_smooth_in_one_over_n_squared_beyond_the_tables(self):
        # gamma(N, 0) has an expansion in 1/N^2 for large N; a degree-5 fit
        # to N = 20, 22 .. 40 leaves 4.2e-10 at most, bounded at 3x that.  A
        # jump at one N leaves 1 - leverage of it in the residual: 0.29-0.71
        # at N = 24 .. 38 (3e-9 at N = 30 fails), 0.2 at 40, ~0 at 20 and 22
        Ns = range(20, 41, 2)
        gammas = [bethe_log(N, 0).gamma for N in Ns]
        x = 1.0 / np.array(Ns, dtype=float) ** 2
        fit = np.polynomial.Polynomial.fit(x, gammas, 5)
        assert np.abs(fit(x) - gammas).max() <= 1.25e-9

    @staticmethod
    def _cutoff_estimates(state, spec=None):
        """gamma's estimates from standalone dipole shifts at each of the BETHE_CUTOFFS."""
        amplitude = bethe_amplitude(state, C)
        expected = []
        for x in BETHE_CUTOFFS:
            shift = lamb_shift(state, DipoleOptions(enabled=True, cutoff_x=x), spec)
            estimate = -C.MHz_to_eV(shift.lamb_shift_MHz) / amplitude
            if state.L == 0:
                estimate += math.log(4.0 * x) - 2.0 * math.log(state.Z * C.alpha0)
            expected.append(estimate)
        return expected

    @pytest.mark.parametrize("N, L, Z", [(2, 0, 1), (3, 1, 1), (2, 0, 2)])
    def test_estimates_match_per_cutoff_shifts(self, N, L, Z):
        # the estimates are running sums of the phi integral, in units of
        # gamma; each standalone shift integrates its own [0, Phi], so they
        # agree to roundoff, not bit for bit
        expected = self._cutoff_estimates(QuantumState(N=N, L=L, Z=Z))
        got = bethe_log(N, L, Z=Z).estimates
        assert len(got) == len(expected)
        assert all(abs(g - e) <= 1e-12 for g, e in zip(got, expected))

    @pytest.mark.parametrize("Z", [1, 2, 92])
    def test_estimates_match_tight_per_cutoff_shifts(self, Z):
        # at a tight spec the interpolant of the panel holding each cutoff
        # is as accurate as the standalone shift's own panels ending there
        spec = QuadratureSpec(rel_tol=1e-12)
        for N, L in ((2, 0), (3, 1)):
            expected = self._cutoff_estimates(QuantumState(N=N, L=L, Z=Z), spec)
            result = bethe_log(N, L, spec=spec, Z=Z)
            assert result.converged
            assert all(abs(g - e) <= 1e-13 for g, e in zip(result.estimates, expected)), (N, L)

    # outer evaluations of each Table-2/3 state at the default spec, 735 in
    # all: one integral over [0, inf) whose phi panels end at the last cutoff
    # (1,155 when every increment between cutoffs had its own panel)
    TABLE_EVALUATIONS = {(1, 0): 75, (2, 0): 90, (3, 0): 105, (4, 0): 120, (2, 1): 120, (3, 1): 105, (4, 1): 120}

    def test_table_2_3_evaluations(self):
        counts = {(N, L): bethe_log(N, L).diagnostics.evaluations for N, L in self.TABLE_EVALUATIONS}
        assert counts == self.TABLE_EVALUATIONS
        assert sum(counts.values()) == 735

    def test_limits_accumulate_diagnostics(self):
        # one part: the integral over [0, inf), with the poles as panel
        # edges, the cutoffs as marks and (Phi_5, inf) as one x = e^-phi
        # panel; the error bar is its own
        result = bethe_log(3, 1)
        parts = result.diagnostics.parts
        assert list(parts) == ["tau_phi_integral"]
        (part,) = parts.values()
        assert part.converged and result.converged
        assert part.evaluations == 105 and len(part.running) == len(BETHE_CUTOFFS)
        assert result.error_estimate == part.error_estimate
        assert result.as_dict()["error_estimate"] == result.error_estimate
        assert result.as_dict()["diagnostics"] == result.diagnostics.as_dict()

    def test_cutoffs_share_each_inner_integral(self, monkeypatch):
        seen = []
        tau_integral = kernel.PhiKernel.tau_integral

        def counting(ker):
            seen.append(ker.phi)
            return tau_integral(ker)

        monkeypatch.setattr(kernel.PhiKernel, "tau_integral", counting)
        bethe_log(2, 1)
        monkeypatch.undo()
        assert len(seen) == len(set(seen))
        state = QuantumState(N=2, L=1)
        per_cutoff = sum(
            lamb_shift(state, DipoleOptions(enabled=True, cutoff_x=x))
            .diagnostics.parts["tau_phi_integral"].evaluations
            for x in BETHE_CUTOFFS
        )
        assert len(seen) < per_cutoff

    def test_unconverged_inner_integral_flags_result(self, monkeypatch):
        # every tau integral that a node reads reports (0 evaluations,
        # converged); an inner series that does not end flags the result by
        # raising out of bethe_log, not through the converged flag
        seen = []
        tau_integral = kernel.PhiKernel.tau_integral

        def recording(ker):
            result = tau_integral(ker)
            seen.append(result[2:])
            return result

        monkeypatch.setattr(kernel.PhiKernel, "tau_integral", recording)
        assert bethe_log(2, 1).converged
        assert seen and set(seen) == {(0, True)}

        def never_ends(kernels, *args, **kwargs):
            raise ArithmeticError("kernel series did not converge")

        monkeypatch.setattr(kernel, "_series_sums", never_ends)
        with pytest.raises(ArithmeticError, match="did not converge"):
            bethe_log(2, 1)

    @pytest.mark.parametrize("where", ["phi_to_last_cutoff", "phi_tail"])
    def test_unconverged_link_flags_result(self, monkeypatch, where):
        # inner integrals that add 1e-3/|phi - pole| to the integrand, a
        # non-integrable spike, only between the first two cutoffs, or only
        # past the last (on the x = e^-phi panel), leave the phi integral
        # unconverged, which flags its one part and the result
        state = QuantumState(N=2, L=1)
        limits = [DipoleOptions(enabled=True, cutoff_x=x).phi_cut(state, C) for x in BETHE_CUTOFFS]
        lo, hi = (limits[0], limits[1]) if where == "phi_to_last_cutoff" else (limits[-1], math.inf)
        pole = lo + (min(hi, lo + 1.0) - lo) / math.pi
        tau_integral = kernel.PhiKernel.tau_integral

        def spiked_inside(ker):
            value, err, evals, ok = tau_integral(ker)
            if lo < ker.phi < hi and abs(ker.phi - pole) < 0.25:
                weight = math.expm1(2.0 * ker.phi) / 4  # bethe_log's w at N = 2
                value += 1e-3 / (weight * abs(ker.phi - pole))
            return value, err, evals, ok

        monkeypatch.setattr(kernel.PhiKernel, "tau_integral", spiked_inside)
        result = bethe_log(2, 1)
        assert not result.converged
        assert {name: p.converged for name, p in result.diagnostics.parts.items()} == {
            "tau_phi_integral": False
        }
        outer = result.diagnostics.parts["tau_phi_integral"]
        # the refinement ends on a panel too narrow to split, not on the budget
        assert outer.subdivisions < QuadratureSpec().max_subdivisions // 10

    def test_one_residue_call_per_channel(self, monkeypatch):
        # the phi nodes read every R_n from fill_tau_integrals' rows; residue_coeffs
        # gives only each channel's pole strength, once per process
        import lambshift.shifts as shifts_mod

        seen = []
        residue = shifts_mod.residue_coeffs

        def counting(N, L, phi, n):
            seen.append((phi, n))
            return residue(N, L, phi, n)

        monkeypatch.setattr(shifts_mod, "residue_coeffs", counting)
        shifts_mod._channels.cache_clear()
        first = bethe_log(3, 1)
        assert seen == [(math.log(3 / n), n) for n in (1, 2)]
        assert bethe_log(3, 1) == first
        assert decay_rates(QuantumState(N=3, L=1)) and decay_rates(QuantumState(N=3, L=1), DIPOLE)
        assert len(seen) == 2

    # From the same pipeline with a 30-digit mpmath inner integral; they
    # agree with Drake & Swainson, PRA 41, 1243 (1990) to the digits recalled
    # in ROADMAP.md (-0.005232148, -0.006740939, -0.001733661).  The cutoff
    # route checks them too (test_oracles.py, test_bethe_log_matches_cutoff_route).
    @pytest.mark.parametrize(
        "N, L, gamma", [(3, 2, -0.005232148141), (4, 2, -0.006740938877), (4, 3, -0.001733661482)]
    )
    def test_high_l_states(self, N, L, gamma):
        result = bethe_log(N, L)
        assert result.converged
        assert result.gamma == pytest.approx(gamma, rel=1e-8)

    def test_tight_tolerances_converge_at_any_z(self):
        # at either tight spec each state converges at Z = 1 and 92, all four
        # gammas agree to 1e-12, and the default spec is within 1e-10 of them
        tight_specs = (
            QuadratureSpec(rel_tol=1e-12),
            QuadratureSpec(rel_tol=1e-13),
        )
        for N, L in BETHE_SAMPLE:
            tight = []
            for spec in tight_specs:
                for Z in (1, 92):
                    result = bethe_log(N, L, spec=spec, Z=Z)
                    assert result.converged, (N, L, spec, Z)
                    tight.append(result.gamma)
            assert max(tight) - min(tight) <= 1e-12, (N, L, tight)
            for Z in (1, 92):
                assert abs(bethe_log(N, L, Z=Z).gamma - tight[-1]) <= 1e-10, (N, L, Z)


class TestOneInnerIntegralPerNode:
    """One PhiKernel.tau_integral call per evaluation of the outer phi integrals.

    perfbench's tracer relies on it where it counts; pinned here in-process.
    Every node, series or closed branch, arrives with its value already
    filled by its call's block (kernel.fill_tau_integrals).
    """

    @staticmethod
    def _recording(monkeypatch):
        calls = []
        tau_integral = kernel.PhiKernel.tau_integral

        def recording(ker):
            calls.append((math.tanh(ker.phi / 2.0) ** 2 <= kernel.SERIES_T2_MAX, ker._tau is not None))
            return tau_integral(ker)

        monkeypatch.setattr(kernel.PhiKernel, "tau_integral", recording)
        return calls

    @pytest.mark.parametrize(
        "N, L, options",
        [(1, 0, NON_DIPOLE), (2, 1, NON_DIPOLE), (4, 1, NON_DIPOLE), (20, 10, NON_DIPOLE),
         (3, 0, DipoleOptions(enabled=True, cutoff_x=1e3))],
    )
    def test_lamb_shift(self, monkeypatch, N, L, options):
        calls = self._recording(monkeypatch)
        result = lamb_shift(QuantumState(N=N, L=L), options)
        assert len(calls) == result.diagnostics.parts["tau_phi_integral"].evaluations
        assert {series for series, _ in calls} == {True, False}
        assert all(filled for _, filled in calls)

    @pytest.mark.parametrize("N, L", [(1, 0), (2, 1), (4, 3), (10, 0)])
    def test_bethe_log(self, monkeypatch, N, L):
        calls = self._recording(monkeypatch)
        result = bethe_log(N, L)
        assert len(calls) == sum(part.evaluations for part in result.diagnostics.parts.values())
        assert {series for series, _ in calls} == {True, False}
        assert all(filled for _, filled in calls)


class TestDipoleLambFull:
    def test_requires_j(self):
        with pytest.raises(ValueError):
            dipole_lamb_full(QuantumState(N=2, L=0), 2.8)

    def test_2s_against_table(self):
        full, tilde = dipole_lamb_full(QuantumState(N=2, L=0, J=0.5), 2.8117699)
        assert full == pytest.approx(1039.31, rel=1e-3)
        assert tilde == pytest.approx(953.402, rel=1e-3)

    def test_2p_both_j_against_table(self):
        gamma = -0.0300167
        f12, t12 = dipole_lamb_full(QuantumState(N=2, L=1, J=0.5), gamma)
        f32, t32 = dipole_lamb_full(QuantumState(N=2, L=1, J=1.5), gamma)
        assert f12 == pytest.approx(-12.8840, rel=1e-3)
        assert f32 == pytest.approx(12.5492, rel=1e-3)
        assert t12 == t32 == pytest.approx(4.07142, rel=1e-3)

    def test_qed_constant_split(self):
        # for s states the two variants differ by exactly A*19/30
        gamma = 2.9841286
        full, tilde = dipole_lamb_full(QuantumState(N=1, L=0, J=0.5), gamma)
        amplitude = 8.0 * C.alpha0**3 / (3.0 * math.pi) * (C.mec2_eV * C.alpha0**2 / 2.0)
        assert full - tilde == pytest.approx(C.eV_to_MHz(amplitude * 19.0 / 30.0), rel=1e-12)

    @pytest.mark.parametrize("Z", [138, 200])
    def test_z_alpha0_of_one_or_more_raises(self, Z):
        # Z = 200 returned 2.0e10 MHz while bethe_log(2, 1, Z=200) raised
        with pytest.raises(ValueError, match="Z alpha0"):
            dipole_lamb_full(QuantumState(N=2, L=1, J=1.5, Z=Z), -0.03)


class TestTables:
    def test_table_1_layout_and_references(self):
        spec = QuadratureSpec(rel_tol=1e-7)
        cells = generate_table(1, spec=spec)
        shifts = [c for c in cells if c.quantity == "lamb_shift"]
        rates = [c for c in cells if c.quantity == "partial_rate"]
        assert len(shifts) == 7
        assert len(rates) == 13
        assert all(c.reference is not None for c in shifts)
        keyed = {(c.N, c.L, c.n): c for c in rates}
        assert keyed[(2, 1, 1)].reference == 626.813
        assert abs(keyed[(2, 1, 1)].rel_dev) < 1e-4
        assert keyed[(3, 0, 1)].computed == 0.0

    def test_table_3_layout(self):
        cells = generate_table(3)
        by_quantity = {}
        for c in cells:
            by_quantity.setdefault(c.quantity, []).append(c)
        assert len(by_quantity["bethe_log"]) == 3  # N = 2, 3, 4
        assert len(by_quantity["lamb_shift_dipole"]) == 6  # both J per N
        gamma_2p = [c for c in by_quantity["bethe_log"] if c.N == 2][0]
        assert gamma_2p.computed == pytest.approx(-0.0300156, abs=5e-4)

    @pytest.mark.parametrize("table_id, states, calls", [(2, 4, 4), (3, 3, 6)])
    def test_one_dipole_lamb_full_call_per_state_and_j(self, monkeypatch, table_id, states, calls):
        # the atomic cell comes from the J loop's calls, not from one more per state
        seen = []
        monkeypatch.setattr(
            "lambshift.shifts.dipole_lamb_full", lambda *args: seen.append(args) or dipole_lamb_full(*args)
        )
        cells = generate_table(table_id)
        assert len(seen) == calls
        assert len([c for c in cells if c.quantity == "lamb_shift_dipole_atomic"]) == states

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            generate_table(4)
