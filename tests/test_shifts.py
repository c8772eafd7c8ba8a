import math

import numpy as np
import pytest

from lambshift import kernel
from lambshift.constants import PhysicalConstants, default_constants
from lambshift.quadrature import QuadratureSpec, integrate_principal_value, kronrod_nodes_weights
from lambshift.shifts import (
    DEFAULT_BETHE_CUTOFFS,
    NON_DIPOLE,
    DipoleOptions,
    QuantumState,
    _pole_channels,
    _pole_pv,
    _shift_bracket,
    bethe_amplitude,
    bethe_log,
    circular_rate_closed_form,
    decay_rates,
    dipole_lamb_full,
    generate_table,
    lamb_shift,
    neville_extrapolate,
    shift_prefactor,
    weight_dipole,
    weight_nondipole,
)

C = default_constants()
DIPOLE = DipoleOptions(enabled=True)


class TestQuantumState:
    def test_validation(self):
        QuantumState(N=3, L=2, J=1.5, Z=2)
        with pytest.raises(ValueError):
            QuantumState(N=2, L=2)
        with pytest.raises(ValueError):
            QuantumState(N=2, L=0, Z=0)
        with pytest.raises(ValueError):
            QuantumState(N=2, L=1, J=2.0)
        with pytest.raises(ValueError):
            QuantumState(N=1, L=0, J=-0.5)

    def test_dipole_options_validation(self):
        with pytest.raises(ValueError):
            DipoleOptions(enabled=True, cutoff_x=-1.0)
        with pytest.raises(ValueError):
            DipoleOptions(enabled=True).phi_cut(QuantumState(N=1, L=0), C)
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

    def test_nondipole_direct_arithmetic(self):
        state = QuantumState(N=2, L=0)
        phi = math.log(2.0)
        s = 2.0 * (C.alpha0 / 2.0) ** 2 * math.exp(phi) * math.sinh(phi)
        want = (-1.0 + math.sqrt(1.0 + s)) / math.sqrt(1.0 + s)
        assert weight_nondipole(state, phi, C) == pytest.approx(want, rel=1e-13)

    def test_dipole_matches_replacement_rule(self):
        state = QuantumState(N=2, L=0)
        phi = math.log(2.0)
        want = 0.5 * (C.alpha0 / 2.0) ** 2 * (math.exp(2.0 * phi) - 1.0)
        assert weight_dipole(state, phi, C) == pytest.approx(want, rel=1e-14)

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
        # one-photon s -> s transitions carry no rate
        for N in (2, 3, 4):
            rates = dict(decay_rates(QuantumState(N=N, L=0)))
            assert rates[1] == 0.0

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


class TestCircularRates:
    def test_reduces_to_2p_value(self):
        assert circular_rate_closed_form(2) == pytest.approx(
            (2.0 / 3.0) ** 8 * C.rate_unit_per_s(1) / 1.0e6, rel=1e-14
        )

    def test_matches_general_pipeline(self):
        for N in (2, 5, 10):
            pipeline = dict(decay_rates(QuantumState(N=N, L=N - 1), DIPOLE))[N - 1]
            assert circular_rate_closed_form(N) == pytest.approx(pipeline, rel=1e-12)

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
        # the pole strengths of the shift and the rates share each channel's residue
        import lambshift.shifts as shifts_mod

        seen = []
        residue = shifts_mod.residue_coeffs

        def counting(N, L, phi, n):
            seen.append((phi, n))
            return residue(N, L, phi, n)

        state = QuantumState(N=4, L=1)
        expected = lamb_shift(state, options)
        monkeypatch.setattr(shifts_mod, "residue_coeffs", counting)
        result = lamb_shift(state, options)
        assert seen == [(math.log(4 / n), n) for n in (1, 2, 3)]
        assert result.partial_rates == decay_rates(state, options) == expected.partial_rates
        assert result.lamb_shift_MHz == expected.lamb_shift_MHz

    def test_total_rate_equals_rates_command_total(self, monkeypatch):
        # ShiftResult.total_rate and the `rates` command's total (before its
        # 12-digit rendering) sum the same rates the same way; the shift
        # itself is stubbed out, only the rates matter
        import argparse

        import lambshift.shifts as shifts_mod
        from lambshift.cli import _run_rates
        from lambshift.quadrature import Diagnostics

        monkeypatch.setattr(shifts_mod, "_shift_bracket", lambda *args: [(0.0, 0.0, Diagnostics())])
        for N in range(1, 21):
            for L in range(N):
                for dipole in (False, True):
                    options = DipoleOptions(enabled=dipole, cutoff_x=1e3)
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
        result = lamb_shift(QuantumState(N=2, L=1), spec=QuadratureSpec(rel_tol=1e-16, abs_tol=1e-30))
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
        assert abs(strength * _pole_pv(N, n, upper) - pv.value) <= min(pv.error_estimate, 1e-12)

    @pytest.mark.parametrize("upper", [1.0, None])
    def test_closed_log_at_tight_tolerance(self, upper):
        # the folded principal value at rel_tol 1e-12 against the hot path's
        # closed-form pole term: with the oracle's denominator 2 expm1(pole -
        # phi) it converges to it; with 3 e^-phi - 2, whose roundoff next to
        # the pole the fold amplifies, it stays finite and says whether it
        # met the tolerance
        pole, spec = math.log(3 / 2), QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
        want = _pole_pv(3, 2, upper)

        def pv(denominator):
            return integrate_principal_value(
                lambda phi: np.exp(pole - phi), pole, spec, denominator=denominator, upper=upper
            )

        accurate = pv(lambda phi: 2 * np.expm1(pole - phi))
        assert accurate.converged
        assert accurate.value == pytest.approx(want, rel=1e-12)
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

        monkeypatch.setattr(shifts_mod, "integrate_semi_infinite", probing)
        with pytest.raises(Probed):
            lamb_shift(QuantumState(50, 40), spec=QuadratureSpec(rel_tol=1e-13, abs_tol=1e-25))

    @pytest.mark.parametrize(
        "N, L, options, limits",
        [
            (4, 1, NON_DIPOLE, (None,)),
            (7, 2, NON_DIPOLE, (None,)),
            (4, 1, DIPOLE, (7.0, 8.0)),
            (7, 2, DIPOLE, (8.5, 9.0, 10.0)),
        ],
    )
    def test_every_pole_is_a_panel_edge(self, monkeypatch, N, L, options, limits):
        import lambshift.shifts as shifts_mod

        calls = []
        for name in ("integrate_panels", "integrate_semi_infinite"):
            original = getattr(shifts_mod, name)

            def recording(f, *args, original=original, **kwargs):
                def g(x):
                    calls.append(np.array(x, copy=True))
                    return f(x)

                return original(g, *args, **kwargs)

            monkeypatch.setattr(shifts_mod, name, recording)
        state = QuantumState(N=N, L=L)
        _shift_bracket(state, options, None, C, limits, _pole_channels(state, options, C))
        nodes = np.concatenate(calls)
        outer = kronrod_nodes_weights()[0][1]
        # nodes come in 15-node panels of (-x_i, x_i) pairs around the centre, which is last
        widths = np.repeat([2.0 * (p[1] - p[14]) / outer for c in calls for p in c.reshape(-1, 15)], 15)
        for n in range(max(1, L), N):
            gap = np.abs(nodes - math.log(N / n)) / widths
            assert gap.min() >= 0.004, n


class TestNeville:
    def test_exact_for_polynomial(self):
        xs = [0.05, 0.025, 0.0125, 0.00625]
        ys = [3.0 + 2.0 * x - 7.0 * x**2 + x**3 for x in xs]
        value, _ = neville_extrapolate(xs, ys)
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_residual_vanishes_when_degree_is_low(self):
        # a quadratic fitted by a cubic: the last elimination adds nothing
        xs = [0.05, 0.025, 0.0125, 0.00625]
        ys = [3.0 + 2.0 * x - 7.0 * x**2 for x in xs]
        value, residual = neville_extrapolate(xs, ys)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert residual < 1e-11

    def test_rejects_mismatched_input(self):
        with pytest.raises(ValueError):
            neville_extrapolate([1.0], [2.0])


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
        g1 = bethe_log(2, 0, Z=1).gamma
        g2 = bethe_log(2, 0, Z=2).gamma
        assert g1 == pytest.approx(g2, abs=1e-4)

    @pytest.mark.parametrize("N, L, Z", [(2, 0, 1), (3, 1, 1), (2, 0, 2)])
    def test_estimates_match_per_cutoff_shifts(self, N, L, Z):
        # the first cutoff is integrated as a standalone shift; the others add
        # their increments to it, so they agree to roundoff, not bit for bit
        state = QuantumState(N=N, L=L, Z=Z)
        amplitude = bethe_amplitude(state, C)
        expected = []
        for x in DEFAULT_BETHE_CUTOFFS:
            shift = lamb_shift(state, DipoleOptions(enabled=True, cutoff_x=x))
            estimate = -C.MHz_to_eV(shift.lamb_shift_MHz) / amplitude
            if L == 0:
                estimate += math.log(4.0 * x) - 2.0 * math.log(Z * C.alpha0)
            expected.append(estimate)
        got = bethe_log(N, L, Z=Z).estimates
        assert got[0] == expected[0]
        assert all(abs(g - e) <= 1e-12 for g, e in zip(got, expected))

    def test_limits_accumulate_diagnostics(self):
        state = QuantumState(N=3, L=1)
        limits = tuple(
            DipoleOptions(enabled=True, cutoff_x=x).phi_cut(state, C) for x in (1e3, 3e3, 1e4)
        )
        brackets = _shift_bracket(state, DIPOLE, None, C, limits, _pole_channels(state, DIPOLE, C))
        standalone = lamb_shift(state, DipoleOptions(enabled=True, cutoff_x=1e3))
        assert brackets[0][2].as_dict() == standalone.diagnostics.as_dict()
        assert brackets[0][0] + brackets[0][1] == standalone.lamb_shift_MHz
        # each limit adds one two-column 15-node panel at least
        evals = [diag.evaluations for _, _, diag in brackets]
        assert all(b - a >= 15 for a, b in zip(evals, evals[1:]))
        assert all(list(diag.parts) == list(brackets[0][2].parts) for _, _, diag in brackets)

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
            for x in DEFAULT_BETHE_CUTOFFS
        )
        assert len(seen) < per_cutoff

    def test_unconverged_inner_integral_flags_result(self, monkeypatch):
        flagged = []
        tau_integral = kernel.PhiKernel.tau_integral

        def failing_once(ker):
            value, err, evals, ok = tau_integral(ker)
            if not flagged and ker.phi < 1.0:
                flagged.append(ker.phi)
                ok = False
            return value, err, evals, ok

        monkeypatch.setattr(kernel.PhiKernel, "tau_integral", failing_once)
        result = bethe_log(2, 1)
        assert flagged
        assert not result.converged

    def test_unconverged_increment_flags_later_cutoffs_only(self, monkeypatch):
        state = QuantumState(N=2, L=1)
        limits = tuple(
            DipoleOptions(enabled=True, cutoff_x=x).phi_cut(state, C) for x in (1e3, 3e3, 1e4)
        )
        tau_integral = kernel.PhiKernel.tau_integral

        def failing_beyond_first(ker):
            value, err, evals, ok = tau_integral(ker)
            return value, err, evals, ok and not limits[0] < ker.phi < limits[1]

        monkeypatch.setattr(kernel.PhiKernel, "tau_integral", failing_beyond_first)
        brackets = _shift_bracket(state, DIPOLE, None, C, limits, _pole_channels(state, DIPOLE, C))
        assert [diag.converged for _, _, diag in brackets] == [True, False, False]

    def test_one_residue_call_per_channel(self, monkeypatch):
        # the phi nodes read every R_n from PhiKernel.residues; residue_coeffs
        # gives only each channel's pole strength, once for all cutoffs
        import lambshift.shifts as shifts_mod

        seen = []
        residue = shifts_mod.residue_coeffs

        def counting(N, L, phi, n):
            seen.append((phi, n))
            return residue(N, L, phi, n)

        monkeypatch.setattr(shifts_mod, "residue_coeffs", counting)
        bethe_log(3, 1, (1e3, 3e3, 1e4))
        assert seen == [(math.log(3 / n), n) for n in (1, 2)]

    # From the same pipeline with a 30-digit mpmath inner integral; they
    # agree with Drake & Swainson, PRA 41, 1243 (1990) to the digits recalled
    # in ROADMAP.md (-0.005232148, -0.006740939, -0.001733661).
    @pytest.mark.parametrize(
        "N, L, gamma", [(3, 2, -0.005232148141), (4, 2, -0.006740938877), (4, 3, -0.001733661482)]
    )
    def test_high_l_states(self, N, L, gamma):
        result = bethe_log(N, L)
        assert result.converged
        assert result.gamma == pytest.approx(gamma, rel=1e-8)
        wider = bethe_log(N, L, tuple(10.0 * x for x in DEFAULT_BETHE_CUTOFFS))
        assert wider.converged
        assert wider.gamma == pytest.approx(result.gamma, rel=1e-8)

    def test_cutoff_sequence_validation(self):
        with pytest.raises(ValueError):
            bethe_log(1, 0, cutoffs=(1e3, 1e4))
        with pytest.raises(ValueError):
            bethe_log(1, 0, cutoffs=(1e4, 1e3, 1e5))


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


class TestTables:
    def test_table_1_layout_and_references(self):
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-13)
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

    def test_table_3_with_cheap_cutoffs(self):
        cells = generate_table(3, bethe_cutoffs=(300.0, 1000.0, 3000.0))
        by_quantity = {}
        for c in cells:
            by_quantity.setdefault(c.quantity, []).append(c)
        assert len(by_quantity["bethe_log"]) == 3  # N = 2, 3, 4
        assert len(by_quantity["lamb_shift_dipole"]) == 6  # both J per N
        gamma_2p = [c for c in by_quantity["bethe_log"] if c.N == 2][0]
        assert gamma_2p.computed == pytest.approx(-0.0300156, abs=5e-4)

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            generate_table(4)
