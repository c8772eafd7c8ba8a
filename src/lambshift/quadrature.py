"""Adaptive Gauss-Kronrod quadrature and Cauchy principal values.

One 7-15 pair drives everything: panels are refined by bisecting
whichever panel carries the largest error estimate until their sum is at
most rel_tol |integral|.  A panel's estimate is that of its 15-point
value: where the Legendre coefficients of its degree-14 interpolant have
decayed, their tail extrapolated past degree 14, and elsewhere
|K15 - G7|, in effect the error of the 7-point rule (_panel_error).  A
last edge of math.inf makes the rest of a semi-infinite domain one such
panel in t = e^-x (integrate_panels), the oracles'
integrate_semi_infinite grows dyadic tail panels until a whole panel
falls below that target of the running total, and principal values fold
the integrand about the pole so the singular parts cancel before any
node is evaluated.  The shifts take their principal values by
singularity subtraction instead (shifts._shift_bracket);
integrate_principal_value is the independent check of that route
(oracles.pv_term_by_principal_values).

Integrands are array functions: f receives a 1-D numpy array of nodes and
returns an array of the values at all of them, or a (nodes, C) array of C
columns.  Columns share the nodes and the refinement, which follows the
larger of each column's error estimate and their sum's, and the result
carries each column's total besides their sum.  The starting panels of an
edge list are one call of f with all their nodes, 15 per panel (_panels),
and each bisection one call with the 30 nodes of both halves; every
returned value is checked and the first non-finite one raises
IntegrandError.

Each panel keeps its 15 rows of node values, so integrate_panels can also
report running integrals up to marks inside its domain at no further
evaluation: the final panels below a mark, plus the integral up to the
mark of the degree-14 interpolant of the panel that holds it, integrated
exactly by the rule itself on the part below the mark (_interpolant_weights).

All nodes are interior, so integrands may be singular (integrably) at
panel endpoints, in particular at the origin of a semi-infinite domain.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from itertools import takewhile
from typing import Callable, Sequence

import numpy as np

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1]
# (nonnegative abscissae; the rule is symmetric).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# Embedded 7-point Gauss weights, matching the odd Kronrod abscissae.
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


# Rows 9, 10, 13 and 14 of the inverse of V[i, k] = P_k(x_i) at the 15
# Kronrod nodes, on the nonnegative abscissae in _XGK's order (even rows are
# symmetric, odd rows antisymmetric): row k applied to a panel's node values
# is the Legendre coefficient c_k of their degree-14 interpolant.  Exact to
# 33 digits from mpmath; tests/test_quadrature.py checks them against P_j.
_LEGENDRE_ROWS = {
    9: (
        0.141673669082500858887716838969772,
        -0.166256623422168808443525045516796,
        -0.181442566122020068671858208642372,
        0.4197140759322146068371187877316,
        -0.147129786215698378209648982194021,
        -0.362454172761982560612537778617997,
        0.46372779425153965879074808408711,
        0.0,
    ),
    10: (
        0.138729956396644884713487351822309,
        -0.235232635615776707345103461614687,
        -0.00454163115413780707059047844412794,
        0.363653242793321034349259262382026,
        -0.473150543882563846276720045141115,
        0.172624106953099187663828202378926,
        0.302462337722854959012192012801631,
        -0.529089666426883410092705688369923,
    ),
    13: (
        0.0965707143346964659757319541552004,
        -0.267611327075807899988603947433705,
        0.384888865700437042524848209641181,
        -0.437899554807784831224381618068854,
        0.420657412237561756348294157405719,
        -0.33002741379440774152871413039661,
        0.180398285284409871492895370613197,
        0.0,
    ),
    14: (
        0.0505052523670278229945732489215619,
        -0.146201951379381873355681284188827,
        0.230755247928894226339117611484883,
        -0.306202939037978631793967696486851,
        0.372160738193176938473636235349442,
        -0.421651768144555709567794466643343,
        0.450176248927154346585241483090521,
        -0.459081657708674239350250263054775,
    ),
}

# The Legendre-tail error estimate of a panel (_panel_error), calibrated on
# Table 1, Tables 2/3 and the opt-in grid of tests/optin_high_n.py.  With
# top = max |c13|, |c14| and mid = max |c9|, |c10|, the coefficients have
# decayed where r = top/mid <= _DECAYED or top <= _NOISE max|y|; the error
# is then the tail extrapolated three degrees on at the observed decay
# r^(1/4) per degree, 2 top r^(3/4), plus _ROUNDOFF max|y|.  Extrapolating
# four or five degrees missed the tight Bethe marks at Z = 92 (1.1e-12
# against 1e-13), eight or ten degrees the 1e-11 default-spec pins of
# (1, 0), (20, 18) and (50, 49).
_DECAYED = 0.1
_NOISE = 1.0e-13
_ROUNDOFF = 2.0e-15


class IntegrandError(ValueError):
    """The integrand returned a non-finite value."""


class QuadratureSpec(namedtuple("QuadratureSpec", "rel_tol max_subdivisions")):
    """Tolerance and budget for one integral.

    An integral has converged once its summed error estimate is at most
    rel_tol |integral| (target), with no absolute floor, so a tolerance
    below the integral's roundoff ends unconverged.  Nothing truncates a
    domain: integrate_panels ends one on a last edge math.inf, and
    integrate_semi_infinite runs its panels below the target of its total.
    """

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1.0e-9, max_subdivisions: int = 2000) -> "QuadratureSpec":
        if not isinstance(rel_tol, (float, int, numbers.Real)) or not 0.0 < rel_tol < math.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
        if not isinstance(max_subdivisions, int) or isinstance(max_subdivisions, bool) or max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be an integer >= 1, got {max_subdivisions!r}")
        return tuple.__new__(cls, (rel_tol, max_subdivisions))

    def target(self, value: float) -> float:
        return self.rel_tol * abs(value)


class QuadratureResult(
    namedtuple(
        "QuadratureResult",
        "value error_estimate evaluations converged subdivisions columns running",
        defaults=(0, (), ()),
    )
):
    """An integral, its error estimate, its evaluation count and whether it converged.

    columns holds each column's total for a multi-column integrand, whose
    value is their sum; running holds the integral (all columns summed)
    from the first edge up to each of integrate_panels' marks, and a sum of
    results has none.
    """

    __slots__ = ()

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(
            value=self.value + other.value,
            error_estimate=self.error_estimate + other.error_estimate,
            evaluations=self.evaluations + other.evaluations,
            converged=self.converged and other.converged,
            subdivisions=self.subdivisions + other.subdivisions,
            columns=tuple(a + b for a, b in zip(self.columns, other.columns)),
        )


def _mirrored(half: Sequence[float], parity: float = 1.0) -> tuple[float, ...]:
    """The 15 node entries, in the rule's order (-x, x for each x of _XGK, then 0),
    of a symmetric (parity 1) or antisymmetric (parity -1) row given at _XGK."""
    out = []
    for x, v in zip(_XGK, half):
        out.extend((v,) if x == 0.0 else (parity * v, v))
    return tuple(out)


def kronrod_nodes_weights():
    """Full 15-node rule on [-1, 1]: (nodes, kronrod weights, gauss weights)."""
    gauss = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3])
    return _mirrored(_XGK, -1.0), _mirrored(_WGK), _mirrored(gauss)


_NODES, _WTS_K, _WTS_G = kronrod_nodes_weights()
_X = np.array(_NODES)
# (15, 6): the kronrod and gauss weights, then the rows of c_9, c_10, c_13, c_14
_W = np.array((_WTS_K, _WTS_G, *(_mirrored(row, (-1.0) ** k) for k, row in _LEGENDRE_ROWS.items()))).T
# x_k - x_j, by rows j and columns k, and infinite where j = k; built from
# floats, as numpy's comparison and casting loops add ~0.15 MB of peak RSS
_GAPS = np.array([[xk - xj if xk != xj else math.inf for xk in _NODES] for xj in _NODES])


def _interpolant_weights(y: float) -> np.ndarray:
    """int_{-1}^{y} l_k for each Lagrange basis polynomial l_k of the Kronrod nodes, y in [-1, 1].

    l_k = prod_{j != k} (x - x_j)/(x_k - x_j) has degree 14, so the rule
    itself, mapped onto (-1, y), integrates it exactly.  Its factors, as
    1 + (x - x_k)/(x_k - x_j), are 1 for j = k and make l_k(x_i) exactly 0 or 1.
    """
    c, h = _frame(-1.0, y)
    factors = 1.0 + (c + h * _X[:, None] - _X) / _GAPS[:, None, :]  # [j, node, k]
    return h * np.add.reduce(_W[:, :1] * np.multiply.reduce(factors, axis=0), axis=0)


def _frame(a: float, b: float) -> tuple[float, float]:
    """Centre and half-width of the panel (a, b) in its own variable.

    That is x itself for finite b.  A last panel (a, inf) is taken in
    t = e^-x on (0, e^-a), where its integrand is f(-ln t)/t: smooth up to
    t = 0 for an f that decays like e^-x or faster.
    """
    if b == math.inf:
        h = 0.5 * math.exp(-a)
        return h, h
    return 0.5 * (a + b), 0.5 * (b - a)


def _gk15(f: Callable[[np.ndarray], np.ndarray], edges: Sequence[float]):
    """Gauss-Kronrod panels between consecutive edges, all nodes in one call of f.

    Returns (kronrod values, error estimates, node rows), one entry per
    panel.  A value is the tuple of the C column values of f (C = 1 for an
    f of one array), and the estimate is the largest of the columns' and,
    for C > 1, their sum's (_panel_error): columns whose oscillations
    cancel make a smooth sum, whose estimate alone would bound no column.
    The rows are the (15, C) values of the panel's integrand at its nodes,
    f/t on a panel (a, inf) (_frame).
    """
    halves = [_frame(a, b) for a, b in zip(edges, edges[1:])]
    t = np.concatenate([c + h * _X for c, h in halves])
    tail = slice(-_X.size if edges[-1] == math.inf else t.size, None)  # the nodes in t = e^-x
    x = t.copy()
    x[tail] = -np.log(t[tail])
    rows = np.array(f(x), dtype=float).reshape(x.size, -1)
    rows[tail] /= t[tail, None]
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        bad = next(v for v in rows[i].tolist() if not math.isfinite(v))
        raise IntegrandError(f"integrand returned {bad!r} at x={float(x[i])!r}")
    panel_rows = rows.reshape(len(halves), _X.size, -1)
    columns = panel_rows.shape[2]
    judged = panel_rows
    if columns > 1:
        judged = np.concatenate((panel_rows, panel_rows.sum(axis=2, keepdims=True)), axis=2)
    # multiply and add, not a BLAS product, whose buffers add ~0.6 MB of peak
    # RSS; sums[panel][column] is (kronrod, gauss, c9, c10, c13, c14)
    sums = np.add.reduce(judged[..., None] * _W[:, None], axis=1).tolist()
    scales = np.abs(judged).max(axis=1).tolist()
    values, errors = [], []
    for (_, h), cols, scale in zip(halves, sums, scales):
        values.append(tuple(h * col[0] for col in cols[:columns]))
        errors.append(h * max(map(_panel_error, cols, scale)))
    return values, errors, panel_rows


def _panel_error(rules: list[float], scale: float) -> float:
    """The error of K15 on [-1, 1] for one column of a panel, given its
    (kronrod, gauss, c9, c10, c13, c14) sums (_gk15) and max|y| as scale.

    Where the column's Legendre coefficients have decayed, the tail of the
    series extrapolated past degree 14, 2 top r^(3/4), plus a roundoff
    floor; elsewhere |K15 - G7|, in effect the error of the 7-point rule
    (see _DECAYED for the constants and their calibration).  The null
    rules c9, c10, c13 and c14 are those of Berntsen and Espelid, ACM TOMS
    17(2), 1991, reviewed in Gonnet, ACM Computing Surveys 44(4), 2012.
    It runs on Python floats, once per panel and column: numpy steps over
    the few panels of a call cost ~1 us each, and that form read
    bethe_tables pass_s +2.4% and +2.5% in two rounds of ten perfbench
    pairs, this one +0.5% and +1.6% (BENCH_43.json).
    """
    k, g, c9, c10, c13, c14 = rules
    top, mid = max(abs(c13), abs(c14)), max(abs(c9), abs(c10))
    if top <= _DECAYED * mid or top <= _NOISE * scale:
        # r = top/mid at most 1: a noise-level tail above mid shows no decay
        # rate; 0 for a zero column
        r = top / max(mid, top, sys.float_info.min)
        return 2.0 * top * r**0.75 + _ROUNDOFF * scale
    return abs(k - g)


class _Panel(namedtuple("_Panel", "a b value error rows")):
    """A GK15 panel from a to b: each column's value, the panel error, and the
    (15, C) array rows of the integrand's values at its nodes (_gk15)."""

    __slots__ = ()

    def integral_upto(self, x: float) -> list[float]:
        """Each column's integral from a to x in [a, b] of the degree-14 interpolant of the rows."""
        c, h = _frame(self.a, self.b)
        weights = _interpolant_weights((x - c) / h)
        return (h * np.add.reduce(weights[:, None] * self.rows, axis=0)).tolist()

    def split(self, f) -> list["_Panel"] | None:
        """Both halves, or None where a half's outer nodes would round onto its edges.

        (a, inf) halves at t = e^-a/2, into (a, a + ln 2) and (a + ln 2, inf).
        """
        m = self.a + math.log(2.0) if self.b == math.inf else 0.5 * (self.a + self.b)
        for a, b in ((self.a, m), (m, self.b)):
            c, h = _frame(a, b)
            lo, hi = (a, b) if b < math.inf else (0.0, 2.0 * h)
            if not lo < c - h * _XGK[0] or not c + h * _XGK[0] < hi:
                return None
        return _panels(f, (self.a, m, self.b))


def _panels(f, edges: Sequence[float]) -> list[_Panel]:
    """One Gauss-Kronrod panel between each pair of consecutive edges, all in one call of f."""
    return list(map(_Panel, edges, edges[1:], *_gk15(f, edges)))


def _refine(f, panels: list[_Panel], spec: QuadratureSpec, marks: Sequence[float] = ()) -> QuadratureResult:
    """Bisect the worst panel in place until the summed error meets the tolerance.

    panels stay ordered by position; math.fsum is correctly rounded, so the
    order of the sums does not matter.  The budget counts panels created.
    A panel too narrow to split in floating point (its nodes would land on
    its edges, a pole among them) ends the refinement unconverged.  Each
    panel given took 15 evaluations, and each bisection takes 30.  The
    result's running is read off the final panels at each of marks.
    """
    evals = 15 * len(panels)
    subdivisions = 0
    while True:
        errors = [p.error for p in panels]
        columns = tuple(map(math.fsum, zip(*(p.value for p in panels))))
        total = math.fsum(columns)
        error = math.fsum(errors)
        converged = error <= spec.target(total)
        halves = None
        if not converged and len(panels) + subdivisions < spec.max_subdivisions:
            i = errors.index(max(errors))
            halves = panels[i].split(f)
        if halves is None:
            columns = columns if len(columns) > 1 else ()
            running = tuple(_running_sum(panels, m) for m in marks)
            return QuadratureResult(total, error, evals, converged, subdivisions, columns, running)
        panels[i:i + 1] = halves
        evals += 30
        subdivisions += 1


def _running_sum(panels: list[_Panel], mark: float) -> float:
    """The integral up to mark: every panel below it, and the interpolant of the panel holding it."""
    parts = []
    for p in takewhile(lambda p: p.a < mark, panels):
        parts.extend(p.value if p.b <= mark else p.integral_upto(mark))
    return math.fsum(parts)


def integrate_panels(
    f, edges: Sequence[float], spec: QuadratureSpec | None = None, marks: Sequence[float] = ()
) -> QuadratureResult:
    """Adaptive integral over panels bounded by the given ascending edges.

    The last edge may be math.inf, whose panel is taken in t = e^-x (_frame).

    For each of the ascending marks in (edges[0], last finite edge] the
    result's running holds the integral from edges[0] up to it, read off
    the final panels: those below the mark, plus the integral up to the
    mark of the degree-14 interpolant of the 15 node values of the panel
    that holds it, which the 15-node rule up to the mark integrates
    exactly.  Marks cost no evaluation and do not steer the refinement.
    """
    spec = spec or QuadratureSpec()
    if len(edges) < 2 or not -math.inf < edges[0] or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"edges must be strictly ascending from a finite first edge, got {edges!r}")
    last = edges[-2] if edges[-1] == math.inf else edges[-1]
    if any(not edges[0] < m <= last for m in marks) or any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError(f"marks must ascend within ({edges[0]!r}, {last!r}], got {marks!r}")
    return _refine(f, _panels(f, edges), spec, marks)


def _dyadic_edges(origin: float):
    edge = origin + 1.0
    width = 1.0
    while True:
        yield edge
        width *= 2.0
        edge += width


def dyadic_edges_upto(a: float, b: float) -> tuple[float, ...]:
    """Panel edges a, a+1, a+3, a+7, ... (widths 1, 2, 4, ...), clipped to end exactly at b.

    The doubling run stops before a clipped last panel would be narrower
    than the first width, 1, so no sliver of a panel costs its 15 nodes.
    """
    return (a, *takewhile(lambda edge: edge < b - 1.0, _dyadic_edges(a)), b)


def integrate_semi_infinite(
    f,
    spec: QuadratureSpec | None = None,
    origin: float = 0.0,
) -> QuadratureResult:
    """Adaptive integral over (origin, infinity) for eventually decaying f.

    Panels of doubling width, (0,1], (1,3], (3,7], ... from the origin,
    extend until a whole panel's value and error are within the target of
    the running total twice in a row; the panels are then refined like any
    finite-domain integral.
    """
    spec = spec or QuadratureSpec()
    panels, lo, quiet = [], origin, 0
    for hi in _dyadic_edges(lo):
        panels += _panels(f, (lo, hi))
        target = spec.target(math.fsum(v for p in panels for v in p.value))
        quiet = quiet + 1 if max(abs(math.fsum(panels[-1].value)), panels[-1].error) <= target else 0
        if quiet >= 2 or len(panels) >= spec.max_subdivisions:
            break
        lo = hi
    return _refine(f, panels, spec)


def integrate_principal_value(
    g,
    pole: float,
    spec: QuadratureSpec | None = None,
    denominator: Callable[[np.ndarray], np.ndarray] | None = None,
    upper: float | None = None,
) -> QuadratureResult:
    """Cauchy principal value of g(x)/denominator(x) over (0, upper).

    The denominator defaults to (x - pole) and must have a simple zero at
    the pole and nowhere else in the domain.  On the symmetric window
    [pole-delta, pole+delta] the integral is taken as int_0^delta F ds,
    F(s) = h(pole+s) + h(pole-s) with h the full integrand, which is
    regular at s = 0; for the default denominator F = [g(pole+s) -
    g(pole-s)]/s, so a g even about the pole folds to exact zeros.
    Outside the window ordinary adaptive quadrature applies, and
    upper = None means a semi-infinite domain.

    Below the floor s = sqrt(eps) pole, where pole +- s keeps less than
    half of the digits of s and a denominator with roundoff may vanish off
    the pole, the folded integrand F, even in s and so flat there, is taken
    at the floor.  F(floor) carries the roundoff of the fold, O(|F|) there,
    and a constant panel gets no error estimate above roundoff, so once the
    refinement reaches below the floor, [0, floor], integrated as
    floor F(floor), adds floor |F(floor) - F(eps^(1/4) pole)| to the error
    (F is flat, and its roundoff small, at the second point) and the window
    counts as converged only if it still meets the tolerance.  The fold
    cancels only as far as the denominator is accurate near its zero:
    N e^-x - n, unlike n expm1(pole - x), may miss a tight tolerance.
    """
    spec = spec or QuadratureSpec()
    if pole <= 0.0:
        raise ValueError(f"pole must be positive, got {pole}")
    if upper is not None and upper <= pole:
        raise ValueError(f"pole {pole} not inside (0, {upper})")

    if denominator is None:
        def h(x: np.ndarray) -> np.ndarray:
            return g(x) / (x - pole)
    else:
        def h(x: np.ndarray) -> np.ndarray:
            return g(x) / denominator(x)

    delta = min(0.5, pole / 2.0)
    if upper is not None:
        delta = min(delta, (upper - pole) / 2.0)

    floor = math.sqrt(sys.float_info.epsilon) * pole

    at_floor = []  # F(floor), once a node falls below the floor

    def folded(s: np.ndarray) -> np.ndarray:
        below = s < floor
        s = np.maximum(s, floor)
        values = (g(pole + s) - g(pole - s)) / s if denominator is None else h(pole + s) + h(pole - s)
        if not at_floor and below.any():
            at_floor.append(float(values[below.argmax()]))
        return values

    total = integrate_panels(folded, (0.0, delta), spec)
    if at_floor:
        # F(0) from F at eps^(1/4) pole, where its roundoff is ~sqrt(eps) F
        # and its curvature moves it as little
        reference = float(folded(np.array([sys.float_info.epsilon ** 0.25 * pole]))[0])
        error = total.error_estimate + floor * abs(at_floor[0] - reference)
        converged = total.converged and error <= spec.target(total.value)
        total = total._replace(error_estimate=error, evaluations=total.evaluations + 1, converged=converged)
    if pole - delta > 0.0:
        total = total + integrate_panels(h, (0.0, pole - delta), spec)
    if upper is None:
        total = total + integrate_semi_infinite(h, spec, origin=pole + delta)
    elif upper > pole + delta:
        total = total + integrate_panels(h, (pole + delta, upper), spec)
    return total


class Diagnostics(namedtuple("Diagnostics", "parts")):
    """Named quadrature results gathered while assembling a shift: a dict parts, empty by default."""

    __slots__ = ()

    def __new__(cls, parts: dict | None = None) -> "Diagnostics":
        return tuple.__new__(cls, ({} if parts is None else parts,))

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.parts.values())

    @property
    def error_estimate(self) -> float:
        return math.fsum(r.error_estimate for r in self.parts.values())

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.parts.values())

    def as_dict(self) -> dict:
        return {
            name: {
                "value": r.value,
                **({"columns": list(r.columns)} if r.columns else {}),
                "error_estimate": r.error_estimate,
                "evaluations": r.evaluations,
                "converged": r.converged,
            }
            for name, r in self.parts.items()
        }
