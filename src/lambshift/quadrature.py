"""Adaptive Gauss-Kronrod quadrature and Cauchy principal values.

One 7-15 pair drives everything: finite panels are refined by bisecting
whichever panel carries the largest |K15 - G7| estimate, semi-infinite
domains grow dyadic tail panels until a whole panel contributes less than
the absolute tolerance, and principal values fold the integrand about the
pole so the singular parts cancel before any node is evaluated.

Integrands are array functions: f receives a 1-D numpy array of nodes and
returns an array of the values at all of them.  Each panel is
one call of f with its 15 nodes, and each bisection one call with the 30
nodes of both halves, as in QUADPACK; every returned value is checked and
the first non-finite one raises IntegrandError.

All nodes are interior, so integrands may be singular (integrably) at
panel endpoints, in particular at the origin of a semi-infinite domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


class IntegrandError(ValueError):
    """The integrand returned a non-finite value."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one integral.

    abs_tol is also the truncation threshold of semi-infinite domains:
    panel extension stops once a whole panel contributes less than it.
    """

    rel_tol: float = 1.0e-9
    abs_tol: float = 1.0e-14
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")

    def target(self, value: float) -> float:
        return max(self.rel_tol * abs(value), self.abs_tol)


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    subdivisions: int = 0

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(
            value=self.value + other.value,
            error_estimate=self.error_estimate + other.error_estimate,
            evaluations=self.evaluations + other.evaluations,
            converged=self.converged and other.converged,
            subdivisions=self.subdivisions + other.subdivisions,
        )


def kronrod_nodes_weights():
    """Full 15-node rule on [-1, 1]: (nodes, kronrod weights, gauss weights)."""
    nodes, wk, wg = [], [], []
    for i, x in enumerate(_XGK):
        gauss_w = _WG[(i - 1) // 2] if i % 2 == 1 else 0.0
        if x == 0.0:
            nodes.append(0.0)
            wk.append(_WGK[i])
            wg.append(_WG[3])
        else:
            nodes.extend((-x, x))
            wk.extend((_WGK[i], _WGK[i]))
            wg.extend((gauss_w, gauss_w))
    return tuple(nodes), tuple(wk), tuple(wg)


_NODES, _WTS_K, _WTS_G = kronrod_nodes_weights()
_X = np.array(_NODES)
_W = np.array((_WTS_K, _WTS_G)).T  # (15, 2): kronrod and gauss columns


def _gk15(f: Callable[[np.ndarray], np.ndarray], edges: Sequence[float]):
    """Gauss-Kronrod panels between consecutive edges, all nodes in one call of f.

    Returns (kronrod values, |K-G| estimates), one entry per panel.
    """
    halves = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(edges, edges[1:])]
    x = np.concatenate([c + h * _X for c, h in halves])
    fx = np.asarray(f(x), dtype=float)
    finite = np.isfinite(fx)
    if not finite.all():
        i = int(np.argmin(finite))
        raise IntegrandError(f"integrand returned {float(fx[i])!r} at x={float(x[i])!r}")
    # multiply and add, not a BLAS product, whose buffers add ~0.6 MB of peak RSS
    sums = np.add.reduce(fx.reshape(-1, _X.size, 1) * _W, axis=1).tolist()
    values = [h * k for (_, h), (k, _) in zip(halves, sums)]
    errors = [abs(h * (k - g)) for (_, h), (k, g) in zip(halves, sums)]
    return values, errors


@dataclass
class _Panel:
    a: float
    b: float
    value: float
    error: float

    def split(self, f) -> tuple["_Panel", "_Panel"]:
        m = 0.5 * (self.a + self.b)
        (lv, rv), (le, re) = _gk15(f, (self.a, m, self.b))
        return _Panel(self.a, m, lv, le), _Panel(m, self.b, rv, re)


def _refine(f, panels: list[_Panel], spec: QuadratureSpec, evals: int) -> QuadratureResult:
    """Bisect the worst panel in place until the summed error meets the tolerance.

    panels stay ordered by position; math.fsum is correctly rounded, so the
    order of the sums does not matter.  The budget counts panels created.
    """
    subdivisions = 0
    while True:
        errors = [p.error for p in panels]
        total = math.fsum(p.value for p in panels)
        error = math.fsum(errors)
        converged = error <= spec.target(total)
        if converged or len(panels) + subdivisions >= spec.max_subdivisions:
            return QuadratureResult(total, error, evals, converged, subdivisions)
        i = errors.index(max(errors))
        panels[i:i + 1] = panels[i].split(f)
        evals += 30
        subdivisions += 1


def integrate_panels(f, edges: Sequence[float], spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Adaptive integral over panels bounded by the given ascending edges."""
    spec = spec or QuadratureSpec()
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"edges must be strictly ascending, got {edges!r}")
    panels = []
    evals = 0
    for a, b in zip(edges, edges[1:]):
        (value,), (error,) = _gk15(f, (a, b))
        evals += 15
        panels.append(_Panel(a, b, value, error))
    return _refine(f, panels, spec, evals)


def dyadic_edges_upto(a: float, b: float) -> tuple[float, ...]:
    """Panel edges a, a+1, a+3, a+7, ... (widths 1, 2, 4, ...), clipped to end exactly at b."""
    edges = [a]
    width = 1.0
    while edges[-1] + width < b:
        edges.append(edges[-1] + width)
        width *= 2.0
    edges.append(b)
    return tuple(edges)


def _dyadic_edges(origin: float):
    edge = origin + 1.0
    width = 1.0
    while True:
        yield edge
        width *= 2.0
        edge += width


def integrate_semi_infinite(
    f,
    spec: QuadratureSpec | None = None,
    origin: float = 0.0,
) -> QuadratureResult:
    """Adaptive integral over (origin, infinity) for eventually decaying f.

    Panels of doubling width, (0,1], (1,3], (3,7], ... from the origin,
    extend until an entire panel contributes below abs_tol twice in a row;
    the collected panels are then refined like any finite-domain integral.
    """
    spec = spec or QuadratureSpec()
    panels: list[_Panel] = []
    evals = 0
    lo = origin
    quiet = 0
    for hi in _dyadic_edges(origin):
        (value,), (error,) = _gk15(f, (lo, hi))
        evals += 15
        panels.append(_Panel(lo, hi, value, error))
        if abs(value) < spec.abs_tol and error < spec.abs_tol:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        if len(panels) >= spec.max_subdivisions:
            break
        lo = hi
    return _refine(f, panels, spec, evals)


def pv_half_width(pole: float, upper: float | None = None) -> float:
    """Half-width delta of the window [pole - delta, pole + delta] that
    integrate_principal_value folds about the pole."""
    delta = min(0.5, pole / 2.0)
    if upper is not None:
        delta = min(delta, (upper - pole) / 2.0)
    return delta


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
    [pole-delta, pole+delta] the integral is taken as
    int_0^delta [h(pole+s) + h(pole-s)] ds with h the full integrand,
    which is regular at s = 0; outside the window ordinary adaptive
    quadrature applies.  upper = None means a semi-infinite domain.
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

    delta = pv_half_width(pole, upper)

    def folded(s: np.ndarray) -> np.ndarray:
        return h(pole + s) + h(pole - s)

    total = integrate_panels(folded, (0.0, delta), spec)
    if pole - delta > 0.0:
        total = total + integrate_panels(h, (0.0, pole - delta), spec)
    if upper is None:
        total = total + integrate_semi_infinite(h, spec, origin=pole + delta)
    elif upper > pole + delta:
        total = total + integrate_panels(h, (pole + delta, upper), spec)
    return total


@dataclass
class Diagnostics:
    """Named quadrature results gathered while assembling a shift."""

    parts: dict = field(default_factory=dict)

    def record(self, name: str, result: QuadratureResult) -> QuadratureResult:
        self.parts[name] = result
        return result

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
                "error_estimate": r.error_estimate,
                "evaluations": r.evaluations,
                "converged": r.converged,
            }
            for name, r in self.parts.items()
        }
