import math

import mpmath as mp
import numpy as np
import pytest

from lambshift.quadrature import (
    IntegrandError,
    QuadratureSpec,
    _interpolant_weights,
    integrate_panels,
    integrate_principal_value,
    integrate_semi_infinite,
    kronrod_nodes_weights,
)

# frozen with mpmath at 50 digits: -exp(-1)*Ei(1)
PV_EXP_POLE_AT_ONE = -0.69717488323506606876547868191955159531717543095437

mp.mp.dps = 50
assert abs(float(-mp.e**-1 * mp.ei(1)) - PV_EXP_POLE_AT_ONE) < 1e-16


class TestRuleConstants:
    def test_weights_normalised(self):
        nodes, wk, wg = kronrod_nodes_weights()
        assert len(nodes) == 15
        assert math.fsum(wk) == pytest.approx(2.0, abs=5e-15)
        assert math.fsum(wg) == pytest.approx(2.0, abs=5e-15)

    def test_polynomial_exactness(self):
        # Gauss-7 exact through degree 13, Kronrod-15 through degree 22
        nodes, wk, wg = kronrod_nodes_weights()
        for deg in range(0, 23):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            k15 = math.fsum(w * x**deg for x, w in zip(nodes, wk))
            assert k15 == pytest.approx(exact, abs=4e-15), f"K15 at degree {deg}"
            if deg <= 13:
                g7 = math.fsum(w * x**deg for x, w in zip(nodes, wg))
                assert g7 == pytest.approx(exact, abs=4e-15), f"G7 at degree {deg}"

    def test_legendre_rows_pick_their_coefficient(self):
        # each hard-coded row of the estimate, applied to P_j at the nodes,
        # is delta_kj for every degree j the 15 nodes interpolate
        from lambshift.quadrature import _W, _X

        picked = _W[:, 2:].T @ np.polynomial.legendre.legvander(_X, 14)
        want = np.zeros((4, 15))
        want[range(4), (9, 10, 13, 14)] = 1.0
        assert np.abs(picked - want).max() <= 1e-13


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda x: np.exp(-x))
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_x_exponential(self):
        r = integrate_semi_infinite(lambda x: x * np.exp(-x))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_gaussian(self):
        r = integrate_semi_infinite(lambda x: np.exp(-x * x))
        # reference: sqrt(pi)/2 at 50 digits
        mp.mp.dps = 50
        ref = float(mp.sqrt(mp.pi) / 2)
        assert r.value == pytest.approx(ref, abs=1e-13)
        assert r.error_estimate <= 1e-9 * r.value

    def test_integrable_endpoint_singularity(self):
        r = integrate_semi_infinite(lambda x: np.exp(-x) / np.sqrt(x))
        mp.mp.dps = 30
        ref = float(mp.sqrt(mp.pi))
        assert r.value == pytest.approx(ref, rel=1e-8)

    def test_converged_flag_and_bound(self):
        spec = QuadratureSpec(rel_tol=1e-9)
        r = integrate_semi_infinite(lambda x: np.exp(-x) * np.sin(3 * x), spec)
        assert r.converged
        assert r.error_estimate <= spec.rel_tol * abs(r.value)
        assert r.value == pytest.approx(0.3, abs=1e-11)

    def test_non_finite_integrand_is_hard_error(self):
        with pytest.raises(IntegrandError):
            integrate_semi_infinite(lambda x: np.full_like(x, np.nan))

    def test_budget_exhaustion_flags_not_converged(self):
        spec = QuadratureSpec(rel_tol=1e-15, max_subdivisions=8)
        r = integrate_semi_infinite(lambda x: np.exp(-x) / (1e-4 + x), spec)
        assert not r.converged

    def test_budget_counts_panels_created(self):
        # 1 initial panel + 2 per bisection: the fourth bisection reaches 8
        spec = QuadratureSpec(rel_tol=1e-15, max_subdivisions=8)
        r = integrate_panels(lambda x: np.exp(-x) / (1e-4 + x), (0.0, 1.0), spec)
        assert r.subdivisions == 4
        assert r.evaluations == 135
        assert not r.converged

    def test_doubling_budget_stays_within_error_estimate(self):
        f = lambda x: np.exp(-x) * np.cos(7 * x) / (0.1 + x)
        base = QuadratureSpec(rel_tol=1e-10, max_subdivisions=500)
        double = QuadratureSpec(rel_tol=1e-10, max_subdivisions=1000)
        r1 = integrate_semi_infinite(f, base)
        r2 = integrate_semi_infinite(f, double)
        assert r1.converged
        assert abs(r2.value - r1.value) <= r1.error_estimate + 1e-16

    def test_truncation_scales_with_decay_rate(self):
        # the dyadic panels of an integrand with decay rate lambda end where a
        # whole panel falls below rel_tol times the running total
        for lam in (0.5, 2.0, 8.0):
            r = integrate_semi_infinite(lambda x, l=lam: np.exp(-l * x))
            assert r.value == pytest.approx(1.0 / lam, rel=1e-10)


class TestFinitePanels:
    def test_simple_interval(self):
        r = integrate_panels(lambda x: x * x, (0.0, 1.0))
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_panel_edges(self):
        r = integrate_panels(lambda x: np.sin(x), (0.0, 1.0, 2.0, math.pi))
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            integrate_panels(lambda x: x, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            integrate_panels(lambda x: x, (2.0, 1.0))
        # only the last edge may be infinite
        for edges in ((-math.inf, 0.0), (0.0, math.nan), (0.0, math.inf, math.inf)):
            with pytest.raises(ValueError, match="edges"):
                integrate_panels(lambda x: x, edges)

    def test_pole_at_an_edge_ends_unconverged(self):
        # 1/(x - 1) diverges at the edge x = 1: bisection closes in on it
        # until a node would round onto it, and stops there unconverged
        # instead of dividing by zero
        spec = QuadratureSpec(rel_tol=1e-12)
        r = integrate_panels(lambda x: 1.0 / (x - 1.0), (0.0, 1.0, 2.0), spec)
        assert not r.converged and math.isfinite(r.value)
        assert r.subdivisions < spec.max_subdivisions


class TestMarks:
    """Running integrals up to marks, read off the final panels and their interpolants."""

    @staticmethod
    def _poly(x):
        # degree 14: every panel's interpolant is the polynomial itself
        return 1.0 + x**14 - 3.0 * x**7

    @staticmethod
    def _poly_integral(x):
        return x + x**15 / 15.0 - 3.0 * x**8 / 8.0

    # a mark inside a panel that gets bisected (0.3 is no dyadic edge of
    # (0, 1)), one on the interior edge 1 and one at the end
    MARKS = (0.3, 1.0, 2.5)

    def test_exponential(self):
        # 0.3 lies in the unsplit panel (0, 1), 5.5 in a piece of the bisected (1, 20)
        spec = QuadratureSpec(rel_tol=1e-14)
        marks = (0.3, 1.0, 5.5, 20.0)
        r = integrate_panels(lambda x: np.exp(-x), (0.0, 1.0, 20.0), spec, marks=marks)
        assert r.converged and r.subdivisions > 0
        assert r.running[-1] == r.value
        for got, m in zip(r.running, marks):
            assert got == pytest.approx(-math.expm1(-m), rel=0, abs=4e-16)

    def test_polynomial_of_degree_14(self):
        spec = QuadratureSpec(rel_tol=1e-15)
        r = integrate_panels(self._poly, (0.0, 1.0, 2.5), spec, marks=self.MARKS)
        assert r.subdivisions > 0
        exact = [self._poly_integral(m) for m in self.MARKS]
        assert r.running == pytest.approx(exact, rel=1e-14, abs=0)

    def test_marks_cost_nothing_and_do_not_steer(self):
        f = lambda x: np.exp(-x) / (1e-2 + x)
        plain = integrate_panels(f, (0.0, 1.0, 3.0))
        marked = integrate_panels(f, (0.0, 1.0, 3.0), marks=(0.05, 2.0, 3.0))
        fields = lambda r: (r.value, r.error_estimate, r.evaluations, r.subdivisions, r.converged)
        assert fields(marked) == fields(plain) and plain.running == ()
        assert len(marked.running) == 3 and marked.running[-1] == marked.value

    def test_two_columns(self):
        # the running integral of a multi-column f sums its columns
        spec = QuadratureSpec(rel_tol=1e-14)
        pair = lambda x: np.column_stack((np.exp(-x), self._poly(x)))
        r = integrate_panels(pair, (0.0, 1.0, 2.5), spec, marks=self.MARKS)
        assert len(r.columns) == 2 and r.subdivisions > 0
        exact = [-math.expm1(-m) + self._poly_integral(m) for m in self.MARKS]
        assert r.running == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("y", [-1.0, -0.37, 0.2, 0.9, 1.0])
    def test_weights_integrate_every_monomial_up_to_degree_14(self, y):
        weights = _interpolant_weights(y)
        nodes = np.array(kronrod_nodes_weights()[0])
        for d in range(15):
            exact = (y ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            assert abs(math.fsum(weights * nodes**d) - exact) <= 2e-15, d

    def test_weights_at_the_ends_of_the_panel(self):
        # up to the panel's end they are the Kronrod weights, at its start nothing
        assert _interpolant_weights(1.0).tolist() == list(kronrod_nodes_weights()[1])
        assert _interpolant_weights(-1.0).tolist() == [0.0] * 15

    @pytest.mark.parametrize(
        "marks", [(0.0,), (-0.5,), (2.0 + 1e-15,), (1.5, 0.5), (0.5, 0.5), (0.5, 3.0)]
    )
    def test_rejects_marks_outside_or_out_of_order(self, marks):
        with pytest.raises(ValueError, match="marks"):
            integrate_panels(lambda x: x, (0.0, 1.0, 2.0), marks=marks)


class TestInfiniteLastEdge:
    """A last edge of math.inf: the panel (a, inf) is taken in t = e^-x on (0, e^-a)."""

    SPEC = QuadratureSpec(rel_tol=1e-13)
    E1_AT_1 = 0.21938393439552027  # E_1(1) = int_1^inf e^-x/x dx

    @pytest.mark.parametrize(
        "f, edges, exact",
        [
            (lambda x: np.exp(-x), (0.0, 1.0, math.inf), 1.0),
            (lambda x: np.exp(-x), (1.0, math.inf), math.exp(-1.0)),
            (lambda x: np.exp(-x) / x, (1.0, math.inf), E1_AT_1),
            (lambda x: np.exp(-x) / x, (1.0, 2.0, math.inf), E1_AT_1),
        ],
    )
    def test_closed_forms(self, f, edges, exact):
        r = integrate_panels(f, edges, self.SPEC)
        assert r.converged
        assert r.value == pytest.approx(exact, rel=0, abs=1e-13)

    def test_bisection_gives_a_phi_panel_and_a_new_tail(self):
        # (1, inf) halves at t = e^-1/2: its first bisection evaluates the
        # finite (1, 1 + ln 2) and then the new (1 + ln 2, inf)
        f, calls = _recording(lambda x: np.exp(-x) / x)
        r = integrate_panels(f, (1.0, math.inf), self.SPEC)
        assert r.subdivisions > 0 and [x.size for x in calls[:2]] == [15, 30]
        assert np.all(calls[0] > 1.0)
        mid = 1.0 + math.log(2.0)
        assert np.all((1.0 < calls[1][:15]) & (calls[1][:15] < mid))
        assert np.all(calls[1][15:] > mid)

    def test_constant_in_t_takes_one_panel(self):
        # e^-x is the constant 1 in t, so (1, inf) costs its 15 nodes
        r = integrate_panels(lambda x: np.exp(-x), (0.0, 1.0, math.inf))
        assert (r.evaluations, r.subdivisions, r.converged) == (30, 0, True)

    def test_marks_stay_at_or_below_the_last_finite_edge(self):
        f = lambda x: np.exp(-x)
        r = integrate_panels(f, (0.0, 1.0, math.inf), self.SPEC, marks=(0.5, 1.0))
        assert r.running == pytest.approx((-math.expm1(-0.5), -math.expm1(-1.0)), rel=0, abs=4e-16)
        for marks in ((2.0,), (math.inf,), (0.5, 1.0 + 1e-15)):
            with pytest.raises(ValueError, match="marks"):
                integrate_panels(f, (0.0, 1.0, math.inf), marks=marks)


def _recording(f):
    """f plus a list of copies of the node arrays it was called with."""
    calls = []

    def g(x):
        calls.append(np.array(x, copy=True))
        return f(x)

    return g, calls


class TestArrayContract:
    def test_one_call_for_all_starting_panels(self, monkeypatch):
        # k edges: one call of 15 (k - 1) nodes starts all k - 1 panels, and
        # each panel equals a one-panel _gk15 call bit for bit
        from lambshift import quadrature as Q

        def pair(x):
            return np.column_stack((np.sin(3.0 * x), np.exp(-x) / (0.5 + x)))

        started = []
        refine = Q._refine

        def recording(f, panels, *args):
            started.extend(panels)
            return refine(f, panels, *args)

        monkeypatch.setattr(Q, "_refine", recording)
        f, calls = _recording(pair)
        edges = (0.0, 1.0, 2.0, 4.0)
        r = integrate_panels(f, edges, QuadratureSpec(rel_tol=1e-6))
        assert r.subdivisions == 0
        nodes = np.array(kronrod_nodes_weights()[0])
        assert len(calls) == 1
        lead = [0.5 * (a + b) + 0.5 * (b - a) * nodes for a, b in zip(edges, edges[1:])]
        assert np.array_equal(calls[0], np.concatenate(lead))
        assert r.evaluations == 45
        assert len(started) == 3
        for panel, a, b in zip(started, edges, edges[1:]):
            (value,), (error,), (rows,) = Q._gk15(pair, (a, b))
            assert (panel.a, panel.b, panel.value, panel.error) == (a, b, value, error)
            assert np.array_equal(panel.rows, rows)

    def test_one_call_of_thirty_nodes_per_bisection(self):
        f, calls = _recording(lambda x: np.exp(-x) / (1e-2 + x))
        r = integrate_panels(f, (0.0, 1.0))
        assert r.converged and r.subdivisions > 0
        assert [x.size for x in calls] == [15] + [30] * r.subdivisions
        assert r.evaluations == sum(x.size for x in calls)
        # the first bisection covers both halves of (0, 1), left half first
        nodes = np.array(kronrod_nodes_weights()[0])
        halves = np.concatenate((0.25 + 0.25 * nodes, 0.75 + 0.25 * nodes))
        assert np.array_equal(calls[1], halves)

    def test_semi_infinite_counts_match_calls(self):
        f, calls = _recording(lambda x: np.exp(-x) * np.cos(7 * x) / (0.1 + x))
        r = integrate_semi_infinite(f)
        assert r.subdivisions > 0
        sizes = [x.size for x in calls]
        assert set(sizes) == {15, 30} and sizes.count(30) == r.subdivisions
        assert r.evaluations == sum(sizes)

    @pytest.mark.parametrize("i", range(15))
    def test_nan_at_any_node_of_a_panel_raises(self, i):
        def f(x):
            y = np.exp(-x)
            y[i] = np.nan
            return y

        f, calls = _recording(f)
        with pytest.raises(IntegrandError) as info:
            integrate_panels(f, (0.0, 1.0))
        assert f"x={float(calls[0][i])!r}" in str(info.value)

    @pytest.mark.parametrize("i", range(30))
    def test_nan_at_any_node_of_a_bisection_raises(self, i):
        def f(x):
            y = np.exp(-x) / (1e-2 + x)
            if x.size == 30:
                y[i] = np.nan
            return y

        f, calls = _recording(f)
        with pytest.raises(IntegrandError) as info:
            integrate_panels(f, (0.0, 1.0))
        assert [x.size for x in calls] == [15, 30]
        assert f"x={float(calls[1][i])!r}" in str(info.value)

    def test_batched_panel_matches_node_loop(self):
        # reference: the rule and the Legendre-tail estimate applied one node
        # at a time with exact sums
        from lambshift.quadrature import _W, _gk15

        nodes, wk, wg = kronrod_nodes_weights()
        legendre = _W[:, 2:].T.tolist()  # the rows of c9, c10, c13 and c14
        f = lambda x: np.exp(-x) * np.cos(7 * x) / (0.1 + x)
        edges = (0.3, 0.8, 2.0, 8.0)  # the last panel's coefficients have not decayed
        values, errors, rows = _gk15(f, edges)
        decayed = []
        for (a, b), (value,), error, row in zip(zip(edges, edges[1:]), values, errors, rows):
            c, h = 0.5 * (a + b), 0.5 * (b - a)
            fx = [math.exp(-(c + h * x)) * math.cos(7 * (c + h * x)) / (0.1 + c + h * x) for x in nodes]
            assert row.shape == (15, 1) and row[:, 0] == pytest.approx(fx, rel=1e-14, abs=0)
            k = h * math.fsum(w * y for w, y in zip(wk, fx))
            g = h * math.fsum(w * y for w, y in zip(wg, fx))
            c9, c10, c13, c14 = (abs(math.fsum(w * y for w, y in zip(rule, fx))) for rule in legendre)
            top, mid, scale = max(c13, c14), max(c9, c10), max(map(abs, fx))
            decayed.append(top <= 0.1 * mid or top <= 1e-13 * scale)
            if decayed[-1]:
                want = h * (2.0 * top * min(top / mid, 1.0) ** 0.75 + 2e-15 * scale)
            else:
                want = abs(k - g)
            assert value == pytest.approx(k, rel=1e-14, abs=0)
            assert error == pytest.approx(want, rel=1e-8, abs=1e-14 * abs(k))
        assert decayed == [True, True, False]

    def test_error_names_first_non_finite_node(self):
        def f(x):
            y = np.ones_like(x)
            y[[4, 9]] = (np.inf, np.nan)
            return y

        f, calls = _recording(f)
        with pytest.raises(IntegrandError, match="returned inf") as info:
            integrate_panels(f, (0.0, 1.0))
        assert f"x={float(calls[0][4])!r}" in str(info.value)


class TestColumns:
    """Integrands of several columns share nodes and refinement."""

    @staticmethod
    def _pair(x):
        # two oscillating columns whose sum is smooth
        wave = np.exp(-x) * np.cos(9 * x)
        return np.column_stack((wave + np.exp(-2 * x), -wave + 1.0 / (1.0 + x * x)))

    def test_column_totals_match_scalar_integrals(self):
        spec = QuadratureSpec(rel_tol=1e-12)
        both = integrate_semi_infinite(self._pair, spec)
        assert both.converged and len(both.columns) == 2
        for c, total in enumerate(both.columns):
            alone = integrate_semi_infinite(lambda x, c=c: self._pair(x)[:, c], spec)
            assert alone.converged
            assert total == pytest.approx(alone.value, abs=both.error_estimate + alone.error_estimate)
        assert both.value == pytest.approx(math.fsum(both.columns), abs=1e-15)
        # exact: 1/2 + pi/2, the oscillations cancel in the sum
        assert both.value == pytest.approx(0.5 + math.pi / 2.0, abs=1e-10)

    def test_error_estimate_covers_each_column(self):
        # refining on the smooth sum alone would stop at once; each column's
        # oscillation must be resolved too
        both = integrate_panels(self._pair, (0.0, 4.0))
        summed = integrate_panels(lambda x: self._pair(x).sum(axis=1), (0.0, 4.0))
        assert both.subdivisions > summed.subdivisions
        exact = integrate_panels(lambda x: self._pair(x)[:, 0], (0.0, 4.0), QuadratureSpec(rel_tol=1e-14))
        assert abs(both.columns[0] - exact.value) <= both.error_estimate

    def test_columns_add_and_scalar_results_have_none(self):
        a = integrate_panels(self._pair, (0.0, 1.0))
        b = integrate_panels(self._pair, (1.0, 2.0))
        assert (a + b).columns == (a.columns[0] + b.columns[0], a.columns[1] + b.columns[1])
        assert integrate_panels(lambda x: x, (0.0, 1.0)).columns == ()

    def test_non_finite_column_raises(self):
        def f(x):
            y = self._pair(x)
            y[3, 1] = np.inf
            return y

        with pytest.raises(IntegrandError, match="returned inf"):
            integrate_panels(f, (0.0, 1.0))

    def test_scalar_results_are_pinned(self):
        # the values of the scalar-only quadrature, bit for bit
        pinned = (
            (integrate_semi_infinite(lambda x: np.exp(-x) * np.cos(7 * x) / (0.1 + x)),
             (0.5379393688604394, 5.260879515866185e-10, 615, True, 17)),
            (integrate_panels(lambda x: np.exp(-x) / (1e-2 + x), (0.0, 1.0)),
             (3.860601580295792, 4.89176095183624e-10, 195, True, 6)),
            (integrate_principal_value(lambda x: np.exp(-x), 1.0),
             (-0.6971748832350663, 4.2400912018467706e-11, 165, True, 1)),
        )
        for r, want in pinned:
            assert (r.value, r.error_estimate, r.evaluations, r.converged, r.subdivisions) == want
            assert r.columns == ()


class TestPrincipalValue:
    def test_antisymmetric_pole_is_zero(self):
        r = integrate_principal_value(lambda x: np.ones_like(x), pole=1.0, upper=2.0)
        assert abs(r.value) < 1e-14

    def test_linear_numerator(self):
        r = integrate_principal_value(lambda x: x, pole=1.0, upper=2.0)
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_exponential_semi_infinite(self):
        r = integrate_principal_value(lambda x: np.exp(-x), pole=1.0)
        assert r.converged
        assert r.value == pytest.approx(PV_EXP_POLE_AT_ONE, abs=1e-12)

    @pytest.mark.parametrize("upper", [1.0, None])
    def test_error_covers_roundoff_below_the_fold_floor(self, upper):
        # PV int_0^U dx/(3 e^-x - 2): the denominator's roundoff next to the
        # pole ln 1.5 makes the folded integrand O(1)-noisy at the floor, so
        # refinement that reaches below it must not report a tighter error
        # than the gap to the exact -ln|3 - 2 e^U|/2 (for U = 1 the value was
        # 5.2e-9 off with error_estimate 8.1e-10)
        mp.mp.dps = 30
        pole = math.log(1.5)
        spec = QuadratureSpec(rel_tol=1e-12)
        denominator = lambda x: 3 * np.exp(-x) - 2  # noqa: E731
        if upper is None:
            numerator = lambda x: np.exp(-x)  # noqa: E731
            exact = -mp.log(2) / 3  # substituting u = e^-x: PV int_0^1 du/(3u - 2)
        else:
            numerator = np.ones_like
            exact = -mp.log(abs(3 - 2 * mp.e ** upper)) / 2
        r = integrate_principal_value(numerator, pole, spec, denominator=denominator, upper=upper)
        gap = abs(r.value - float(exact))
        assert gap <= r.error_estimate
        assert r.converged == (r.error_estimate <= spec.target(r.value))

    def test_custom_denominator(self):
        # PV int_0^inf e^{-2x}/(2e^{-x} - 1) dx with the pole at ln 2:
        # substituting u = e^{-x} gives PV int_0^1 u/(2u-1) du = 1/2 exactly
        pole = math.log(2.0)

        def denom(x):
            return 2.0 * np.exp(-x) - 1.0

        r = integrate_principal_value(lambda x: np.exp(-2.0 * x), pole, denominator=denom)
        assert r.converged
        assert r.value == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive_pole(self):
        with pytest.raises(ValueError):
            integrate_principal_value(lambda x: np.ones_like(x), pole=0.0)

    def test_rejects_pole_outside_domain(self):
        with pytest.raises(ValueError):
            integrate_principal_value(lambda x: np.ones_like(x), pole=3.0, upper=2.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(rel_tol=bad)
    # the budget counts panels; one of 0 or less left every integral unrefined and unconverged
    for bad in (0, -3, 2.5, 1.0, None):
        with pytest.raises(ValueError, match="max_subdivisions"):
            QuadratureSpec(max_subdivisions=bad)
    assert QuadratureSpec(max_subdivisions=1).max_subdivisions == 1
