"""Residue coefficients and the inner tau integral of the rotated contour.

The kernel is Q(T, phi) = sin^2(T/2) sum_n |D_{N,n}(phi)|^2 e^{-i n T}, D
the dilation matrix of the discrete series.  On the rotated contour T = -i
tau it is the exponential series sum_j q_j u^j in u = e^{-tau}, with
q_j = |D_{N,j}|^2/2 - |D_{N,j+1}|^2/4 - |D_{N,j-1}|^2/4 for every j (_q, the
one place the formula is written), every |D|^2 from one Jacobi closed form
(_row_weights for j <= N, _tail_weights beyond;
su11.rep_matrix_element is only an independent reference).  The q_j with
j < N are the residues R_j and the j >= N tail is the remainder Q~.
The kernels of one (N, L) are evaluated as blocks (fill_tau_integrals):
the shift integrand passes all phi nodes of a quadrature call as one
block, and a lone kernel is a block of one.  A block forms the weights
j = -1 .. N of all its nodes at once (_block_rows, one Jacobi recurrence
over the whole row, the same floats as _row_weights node by node), hence
their residues; the tail coefficients of its series-branch kernels come as
a forward stream of (kernels x j) chunks (_coeff_chunks), forming each
weight once, which _series_sums sums row by row.  PhiKernel itself holds
only (N, L, phi, nu, t^2) and the filled value.  Summing the tail directly
removes the catastrophic cancellation that subtracting the finite series
from the closed form would cause at small phi, where the integrand weight
e^{nu tau} grows almost as fast as the kernel decays.
Every phi-independent coefficient of these loops is computed once,
lazily, and then read: the binomial ratios, powers and Jacobi steps of
the weights j <= N (_row_table, its steps from specfun._jacobi_steps,
keyed by (N - j, 2L + 1) and so shared by every N, laid out as rows over
j by _row_steps), the indices, gain ratios and steps of every tail chunk
(_tail_table, the only source of them; the series branch stops within a
bounded depth for each (N, L), so the table stays bounded) and the factors
of each Euler log series with its first term 1/s! (_euler_rows).
At large phi the series converges too slowly (ratio t^2 -> 1,
t = tanh(phi/2)) and the closed u-form Q = pi(u) (1 - u t^2)^{-2N}, pi a
polynomial of degree 2N - L, takes over without ever being evaluated in
tau: Euler's integral turns the inner integral int e^{nu tau} dQ~/dtau
dtau into one Gauss function per factored term of pi, each summed in
closed form around t^2 = 1, for all closed-branch nodes of a block and
all terms at once (_euler_block, to whose pieces fill_tau_integrals adds
the residue terms); the same Gauss pieces at the complex nu + i eps are
the eps oracle's inner integral at large phi, reached without a PhiKernel
and so without a weight row.
Only the checks evaluate kernels: the u-form and the remainder Q~ in tau
(oracles.q_imag_time, oracles.remainder), the real-time kernel
(oracles.kernel_q) and the adaptive quadrature of the inner integral
(oracles.tau_integral_by_quadrature).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .specfun import _jacobi_from_steps, _jacobi_steps, digamma

# Unused here; kept bound because perfbench/tracing.py wraps
# kernel.integrate_semi_infinite and kernel.rep_matrix_element.
from .quadrature import integrate_semi_infinite  # noqa: F401
from .su11 import rep_matrix_element  # noqa: F401

# Switch from the exponential series to the Euler closed form once the
# series ratio tanh^2(phi/2) exceeds this (phi ~ 2.89).
SERIES_T2_MAX = 0.80
# The series branch's tau integral stops once its tail bound meets
# max(TAU_REL_TOL |value|, TAU_ABS_TOL).
TAU_REL_TOL, TAU_ABS_TOL = 1.0e-13, 1.0e-15
EULER_GAMMA = 0.57721566490153286061


def validate_quantum_numbers(N: int, L: int) -> None:
    if N != int(N) or L != int(L) or N < 1 or L < 0 or L > N - 1:
        raise ValueError(f"invalid quantum numbers N={N!r}, L={L!r} (need 0 <= L <= N-1)")


def _jacobi_point(L: int, phi: float) -> tuple[float, float, float]:
    """(w, t^2, G_N) of the Jacobi form: w = 1 - 2t^2, G_N = cosh^{-4(L+1)}(phi/2)."""
    sech2 = math.cosh(phi / 2.0) ** -2
    return 2.0 * sech2 - 1.0, math.tanh(phi / 2.0) ** 2, sech2 ** (2 * (L + 1))


@lru_cache(maxsize=None)
def _row_table(N: int, L: int) -> tuple:
    """The phi-independent factors of the weights L < j <= N, kept per (N, L).

    Entry j - L - 1 is (C(N+L, 2L+1)/C(j+L, 2L+1), N - j, the Jacobi
    steps of degree 1 .. j - L - 1 at (N - j, 2L + 1) from specfun's table):
    the binomial ratio of G_j, the power of t^2 in it and the recurrence of
    its Jacobi polynomial (see _row_weights).
    """
    top, rows = math.comb(N + L, 2 * L + 1), []
    for j in range(L + 1, N + 1):
        degree = j - L - 1
        steps = tuple(_jacobi_steps(degree, N - j, 2 * L + 1)[:degree])
        rows.append((top / math.comb(j + L, 2 * L + 1), N - j, steps))
    return tuple(rows)


def _row_weights(N: int, L: int, point, j0: int, j1: int) -> list[float]:
    """|D_{N,j}|^2 for j0 <= j < j1, L < j1 <= N + 1 (zero for j <= L), point from _jacobi_point.

    Bargmann's closed form makes each weight a Jacobi polynomial at a point
    in [-1, 1], symmetric in N and j, free of alternating sums; with
    l = min(N, j), h = max(N, j) and t = tanh(phi/2),

        |D_{N,j}|^2 = G_j P_{l-L-1}^{(h-l, 2L+1)}(1 - 2t^2)^2,
        G_j = C(h+L, 2L+1)/C(l+L, 2L+1) t^{2(h-l)} cosh^{-4(L+1)}(phi/2).

    Here j <= N, and every phi-independent factor comes from _row_table;
    the zeros j <= L never index it.  The square is a product, as in
    _block_rows, whose rows equal these floats bit for bit.
    """
    w, t2, gain = point
    lo = max(j0, L + 1)
    weights = [0.0] * (lo - j0)
    for ratio, power, steps in _row_table(N, L)[lo - L - 1 : j1 - L - 1]:
        p = _jacobi_from_steps(steps, w)
        weights.append(ratio * t2**power * gain * p * p)
    return weights


@lru_cache(maxsize=None)
def _row_steps(N: int, L: int) -> tuple:
    """The Jacobi steps of the weights L < j <= N as rows over j, kept per (N, L).

    Step k is (c1, c0, c2), three arrays whose entry j - L - 1 is step k of
    weight j's polynomial (_row_table) up to its degree j - L - 1 and
    (0, 1, 0) past it, which leaves a value exactly as it is: one
    recurrence over the arrays gives every weight's own polynomial.
    """
    table = _row_table(N, L)
    keep = (0.0, 1.0, 0.0)
    return tuple(
        tuple(map(np.array, zip(*(steps[k] if k < len(steps) else keep for _, _, steps in table))))
        for k in range(N - L - 1)
    )


def _block_rows(kernels) -> tuple[np.ndarray, np.ndarray]:
    """(points, rows) of a block of kernels of one (N, L): the Jacobi points
    (w, t^2, G_N) as an (M x 3) array and the weights |D_{N,j}|^2, j = -1 .. N,
    one row per kernel.

    The batched _row_weights: each row equals _row_weights(N, L, point, -1,
    N + 1) bit for bit.  The factors G_j are formed per kernel in Python
    floats (t^{2(N-j)} by pow, as there) and the polynomials of all
    weights j <= N of all kernels in one recurrence (_row_steps), so a
    block costs N - L - 1 array steps where its nodes alone would cost
    (N - L)^2/2 scalar steps each.
    """
    N, L = kernels[0].N, kernels[0].L
    points = [_jacobi_point(L, ker.phi) for ker in kernels]
    table = _row_table(N, L)
    gains = np.array([[ratio * t2**power * gain for ratio, power, _ in table] for _, t2, gain in points])
    points = np.array(points)
    p = _jacobi_from_steps(_row_steps(N, L), points[:, :1])
    rows = np.zeros((len(kernels), N + 2))
    rows[:, L + 2 :] = gains * p * p
    return points, rows


def _q(below, at, above):
    """q_j from |D_{j-1}|^2, |D_j|^2 and |D_{j+1}|^2: floats or arrays, the same IEEE operations."""
    return 0.5 * at - 0.25 * above - 0.25 * below


@lru_cache(maxsize=None)
def _tail_table(N: int, L: int, j0: int, j1: int):
    """The phi-independent part of _tail_weights over j0 <= j < j1, kept per (N, L, j0, j1).

    (j - 1, ratios, steps) over the array j as floats: j - 1 indexes the
    q_{j-1} that weight j completes (its last neighbour), the gain ratios
    are (j+L)/(j-L-1) and the Jacobi steps are at alpha = j - N.
    """
    j = np.arange(j0, j1, dtype=float)
    degree = N - L - 1
    return j - 1.0, (j + L) / (j - L - 1), _jacobi_steps(degree, j - N, 2.0 * L + 1.0) if degree else ()


def _tail_weights(N: int, L: int, point, j0: int, j1: int, gain):
    """|D_{N,j}|^2 for N < j0 <= j < j1 and the gain G at j1 - 1, given G at j0 - 1.

    The one route for the weights beyond _row_weights: one cumulative
    product of G_j/G_{j-1} = t^2 (j+L)/(j-L-1), which is sequential, so
    carrying G across a split changes no value.  Its coefficients come
    from _tail_table, built once per (N, L, j0, j1).  point is that of one
    node (floats) or of a block of nodes (w and t^2 as columns, gain a row
    of their gains): a block is one row per node, each row the same floats
    as the node alone.
    """
    w, t2, _ = point
    _, ratios, steps = _tail_table(N, L, j0, j1)
    gains = t2 * ratios
    gains[..., 0] *= gain
    np.cumprod(gains, axis=-1, out=gains)
    return gains * _jacobi_from_steps(steps, w) ** 2, gains[..., -1]


def residue_coeffs(N: int, L: int, phi: float, n: int) -> float:
    """Residue R_n = q_n of e^{-n tau} in the kernel series, L <= n <= N-1.

    Only the three weights j = n-1, n, n+1 are computed, as plain floats
    from the entries of _row_table that PhiKernel's rows read, and _q
    combines them: a scalar call (one per decay channel per process, at
    its pole, through shifts._channels, which every rate, pole strength
    and Bethe logarithm reads) would spend more on a whole row of
    weights or on a numpy array than on the arithmetic.  It equals
    PhiKernel(N, L, phi).residues[n] bit for bit.
    """
    validate_quantum_numbers(N, L)
    if n != int(n) or not L <= n < N:
        raise ValueError(f"residue index n={n!r} outside [L, N-1] = [{L}, {N - 1}]")
    return _q(*_row_weights(N, L, _jacobi_point(L, phi), n - 1, n + 2))


@lru_cache(maxsize=None)
def _series_term_ratios(N: int, L: int) -> tuple[float, ...]:
    """Terminating-series coefficients t_k of 2F1(L+1-N, -L-N; 1; z)."""
    a, b = L + 1 - N, -L - N
    ratios = [1.0]
    for k in range(N - L - 1):
        ratios.append(ratios[-1] * (a + k) * (b + k) / ((k + 1) * (k + 1)))
    return tuple(ratios)


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


class _EulerRows(NamedTuple):
    """The phi-independent data of _euler_block, as arrays over the factored terms k < N - L.

    With m = q_k + 1 - 2N, s = |m| and h = max(m, 0): amp = -t_k/4, p =
    N - 1 - k and h as floats, psi the index p + h - 1 of psi(b+h) in a
    node's digamma row, psi0 = -psi(1) - psi(s+1) + psi(2N+h) =
    gamma - H_s + H_{2N+h-1} (the integer digammas of the log series at
    j = 0), first = 1/s! its first term, a = 2N + h and s, and for the
    terms with m < 0 (all but the last when L = 0, where m = 1)
    finite = q!/(2N-1)! (q+1)_j (s-j-1)!/j! for j < s, zero beyond, and
    past = 1.0 where j >= s, else 0.0, both over the longest s.  series is
    the list [heads, steps] of the log series' factors from
    _log_series_step as (terms x j) arrays, grown by _log_series to the
    longest series summed so far.
    """

    amp: np.ndarray
    p: np.ndarray
    h: np.ndarray
    psi: list
    psi0: np.ndarray
    first: np.ndarray
    a: list
    s: np.ndarray
    finite: np.ndarray
    past: np.ndarray
    series: list


@lru_cache(maxsize=None)
def _euler_rows(N: int, L: int) -> _EulerRows:
    """The _EulerRows of (N, L), built once.

    1/s! is a double only for s <= 170, and s = 2N - 3 at k = 0, so the
    rows exist for N <= 86: beyond, an OverflowError names the state.
    """
    terms = []
    for k, tk in enumerate(_series_term_ratios(N, L)):
        q = 2 * k + 2
        m = q + 1 - 2 * N
        s, h = abs(m), max(m, 0)
        finite = [
            math.factorial(q + j) * math.factorial(s - j - 1)
            / (math.factorial(2 * N - 1) * math.factorial(j))
            for j in range(s if m < 0 else 0)
        ]
        psi0 = EULER_GAMMA - _harmonic(s) + _harmonic(2 * N + h - 1)
        try:
            first = 1.0 / math.factorial(s)
        except OverflowError:
            raise OverflowError(
                f"the Euler closed form at (N, L) = ({N}, {L}) needs 1/{s}!, but s! is a double "
                f"only for s <= 170, which limits shifts and Bethe logarithms to N <= 86"
            ) from None
        terms.append((-0.25 * tk, N - 1 - k, h, N - 2 - k + h, psi0, first, 2 * N + h, s, finite))
    amp, p, h, psi, psi0, first, a, s, finite = zip(*terms)
    finite = [row for row in finite if row]
    width = len(finite[0]) if finite else 0  # the longest s, at k = 0
    return _EulerRows(
        np.array(amp), np.array(p, dtype=float), np.array(h, dtype=float), list(psi), np.array(psi0),
        np.array(first), list(a), np.array(s, dtype=float),
        np.array([row + [0.0] * (width - len(row)) for row in finite]).reshape(len(finite), width),
        np.array([[float(j >= si) for j in range(width)] for si in s[: len(finite)]]).reshape(len(finite), width),
        [np.empty((len(a), 0))] * 2,
    )


def _log_series_step(a: int, s: int, j: int) -> tuple[float, float]:
    """(a+j)/((j+1)(j+s+1)) and 1/(a+j) - 1/(j+1) - 1/(j+s+1): the parts of step j
    of a log series S_k (_euler_block) that do not depend on phi."""
    return (a + j) / ((j + 1) * (j + s + 1)), 1.0 / (a + j) - 1.0 / (j + 1) - 1.0 / (j + s + 1)


def _ln_cosh2(phi: float) -> float:
    """ln cosh^2(phi/2), overflow-safe for any phi."""
    return phi - 2.0 * math.log(2.0) + 2.0 * math.log1p(math.exp(-phi))


# Nodes x terms x steps of one _log_series slice: 16 kB per array, so
# that a block's sums add little to the peak memory of a pass.
_SERIES_ELEMENTS = 1 << 11

# Steps past which a log series that has not ended is an error, not a
# longer retry.  The longest that ends, over N <= 86 with L in
# {0, N//2, N-1}, phi = 2.89 .. 30 and nu real or nu + i eps, takes 129
# steps (at (86, 0)); an entry that is NaN never meets the stopping test.
_SERIES_MAX_STEPS = 1 << 12


def _series_length(N: int, w: float) -> int:
    """Steps that the log series of (N, any L) take at w, a little more than measured.

    The terms peak by j ~ N sqrt(w) and then fall about like w^j: the
    longest series of every (N, L) with L in {0, N//2, N-1}, N <= 12 and
    N in {16, 18, 20, 25, 30, 40, 50, 60}, at w = 1.3e-3 .. 0.2, stop
    within this, rounded up to a multiple of 8 (1.35 times their length in
    the median).
    """
    steps = 2.5 * N**0.85 * math.sqrt(w / 0.2) + 2.0 + 40.0 / -math.log(min(max(w, 1.0e-300), 0.5))
    return 8 * math.ceil(steps / 8)


def _log_series(rows: _EulerRows, N: int, bh, g, w):
    """S_k of _euler_block for each node and term, every one stopped by the test of a term-by-term loop.

    Entry (i, k) sums term_j g_j, term_0 = 1/s! and term_{j+1} = term_j
    ratio_j with ratio_j = (a+j)(bh+j) w/((j+1)(j+s+1)), and g_{j+1} = g_j
    + 1/(a+j) - 1/(j+1) - 1/(j+s+1) + 1/(bh+j), the digamma recurrences of
    its bracket, from g_0 = g; bh and g are (nodes x terms), w a column.
    The terms, brackets and running sums of the first few steps are
    cumulative products and sums over j, which add in the loop's order, so
    each running sum is the loop's float; an entry ends at the first j
    with |ratio_j| < 1 and |term_j g_j ratio_j| <= 1e-17 (1 - |ratio_j|)
    |sum through j|.  The nodes go in slices of falling w, each summed to
    _series_length at its largest w, and that length doubles while an
    entry of the slice has not ended, up to _SERIES_MAX_STEPS; a series
    still open there (a NaN entry never ends) raises ArithmeticError
    naming (N, L).
    """
    nodes, terms = bh.shape
    order = sorted(range(nodes), key=w[:, 0].tolist().__getitem__, reverse=True)
    bh, g, w = bh[order], g[order], w[order]
    out = np.empty_like(bh)
    lo = 0
    while lo < nodes:
        length = _series_length(N, float(w[lo, 0]))
        count = max(1, _SERIES_ELEMENTS // (terms * length))
        while True:
            series = rows.series
            if series[0].shape[1] < length:
                size = max(length, 2 * series[0].shape[1])
                table = [[_log_series_step(a, s, j) for j in range(size)] for a, s in zip(rows.a, rows.s.tolist())]
                series[:] = np.ascontiguousarray(np.array(table).transpose(2, 0, 1))
            # three arrays of (slice x terms x length): x, then the terms, their products
            # and |product ratio|; the ratios, then the bound; the brackets, then the sums
            x = bh[lo : lo + count, :, None] + np.arange(length, dtype=float)
            ratio = series[0][:, :length] * x
            ratio *= w[lo : lo + count, :, None]
            sums = np.empty_like(x)
            sums[..., 0] = g[lo : lo + count]
            np.divide(1.0, x[..., :-1], out=sums[..., 1:])
            sums[..., 1:] += series[1][:, : length - 1]
            x[..., 0] = rows.first
            x[..., 1:] = ratio[..., :-1]
            np.cumprod(x, axis=2, out=x)
            np.cumsum(sums, axis=2, out=sums)
            x *= sums
            np.cumsum(x, axis=2, out=sums)
            x *= ratio
            np.abs(x, out=x)
            np.abs(ratio, out=ratio)
            ends = ratio < 1.0
            np.subtract(1.0, ratio, out=ratio)
            ratio *= 1.0e-17
            ratio *= sums  # |1e-17 (1 - r) sum| wherever r < 1, the only entries that can end
            ends &= x <= np.abs(ratio, out=ratio)
            del x, ratio
            try:  # the first end of each entry
                at = [flags.index(True) for flags in ends.reshape(-1, length).tolist()]
                break
            except ValueError:
                length *= 2
                if length > _SERIES_MAX_STEPS:
                    raise ArithmeticError(
                        f"a log series of the Euler closed form at (N, L) = ({N}, {N - terms}) has not "
                        f"ended within {length // 2} steps"
                    ) from None
        out[lo : lo + count] = sums.reshape(-1, length)[range(len(at)), at].reshape(-1, terms)
        lo += count
    result = np.empty_like(out)
    result[order] = out
    return result


def _euler_block(N: int, L: int, phis, nus) -> np.ndarray:
    """The Gauss pieces of the inner tau integral at each (phi, nu) of a block, by Euler's integral.

    The u-form's polynomial is pi(u) = sum_k A_k u^{p_k} (1-u)^{q_k}
    with p_k = N-1-k and q_k = 2k+2, k < N-L (oracles._closed_terms).
    Integrating by parts (Q(u = 1) = 0 since every q_k >= 2) and
    applying Euler's integral (DLMF 15.6.1), continued analytically in
    nu so that the residue poles are subtracted, gives

        I = sum_n n R_n/(n - nu)
            - nu sum_k A_k B(b, q_k+1) 2F1(2N, b; b+q_k+1; t^2),  b = p_k - nu.

    c - a - b = m = q_k + 1 - 2N is an odd integer <= 1, so each 2F1 is
    expanded around z = 1 in w = 1 - t^2 = sech^2(phi/2) <= 0.2 by the
    degenerate formula (DLMF 15.8.10, after Euler's transformation when
    m < 0).  Gamma(b) of the beta function cancels there.  With
    A_k = base_k w^-m, base_k = -t_k t^{2k} w^3/4, s = |m|,
    h = max(m, 0), a = 2N + h and

        S_k = sum_j (a)_j (b+h)_j/(j! (j+s)!) w^j
              [ln w - psi(j+1) - psi(j+s+1) + psi(a+j) + psi(b+h+j)],

    the Gauss terms are

        m < 0:  A_k B F = base_k [sum_{j<s} f_j (b-s)_j (-w)^j - (b-s)_s (-w)^s S_k],
        m = 1:  A_k B F = A_k/b + 2N base_k S_k,  and -nu A_k/b = A_k,

    f_j from _euler_rows.  What is left are Pochhammer polynomials in b,
    one finite sum and one log series in w per term (_log_series); every
    psi(b+h+j) follows from one digamma by recurrence, and
    w = 4 e^-phi/(1+e^-phi)^2 is formed directly, never as 1 - t^2.

    The nodes are one block: each node's transcendental functions are
    taken in Python floats, and the rest is array operations over
    (nodes x terms), and over j for the sums, each in the order of a
    term-by-term loop, so a node's pieces do not depend on the rest of the
    block.  Returns a (nodes x 2(N-L)) array of the Gauss terms only, two
    per k; fill_tau_integrals adds the residue terms n R_n/(n - nu).
    All of it is analytic in nu, which may be complex: the eps oracle
    passes nu + i eps, where the Gauss terms alone are its damped integral
    (oracles._inner_t_integral_spectral).  A real nu equal to an integer
    n < N, where N e^-phi rounds onto a residue pole, raises
    ArithmeticError naming (N, L, phi) of every such node.
    """
    poles = [phi for phi, nu in zip(phis, nus) if nu == int(nu.real) and 1 <= nu.real < N]
    if poles:
        at = ", ".join(f"({N}, {L}, {phi!r})" for phi in poles)
        raise ArithmeticError(f"nu = N e^-phi is a residue pole of the closed-form tau integral at (N, L, phi) = {at}")
    rows = _euler_rows(N, L)
    nodes, psis = [], []
    for phi, nu in zip(phis, nus):
        e = math.exp(-phi)
        w = 4.0 * e / (1.0 + e) ** 2
        t2 = math.tanh(phi / 2.0) ** 2
        nodes.append((w, w**3, -_ln_cosh2(phi), *(t2**k for k in range(N - L))))
        # psi(1 - nu + i), i < N, by recurrence from the first positive argument
        first = int(nu.real)
        psi = [0.0] * N
        psi[first] = digamma(1.0 - nu + first)
        for i in range(first + 1, N):
            psi[i] = psi[i - 1] + 1.0 / (i - nu)
        for i in range(first - 1, -1, -1):
            psi[i] = psi[i + 1] - 1.0 / (i + 1 - nu)
        psis.append([psi[i] for i in rows.psi])
    nu = np.array(nus)[:, None]
    columns = np.array(nodes)
    w, w3, ln_w = columns[:, :3].T[:, :, None]
    amp = rows.amp * columns[:, 3:]
    base = amp * w3
    total = _log_series(rows, N, rows.p - nu + rows.h, ln_w + rows.psi0 + np.array(psis), w)
    pieces = []
    f, width = rows.finite.shape
    if f:
        # (b-s)_j (-w)^j for j <= s, held at (b-s)_s past each term's s (x 0 + 1 there)
        steps = ((rows.p[:f] - nu - rows.s[:f])[:, :, None] + np.arange(width, dtype=float)) * -w[:, :, None]
        steps *= 1.0 - rows.past
        steps += rows.past
        poch = np.concatenate((np.ones((len(nus), f, 1)), steps), axis=2)
        np.cumprod(poch, axis=2, out=poch)
        fin = np.cumsum(rows.finite * poch[:, :, :-1], axis=2)[:, :, -1]
        pieces += (-nu * base[:, :f] * fin, nu * base[:, :f] * poch[:, :, -1] * total[:, :f])
    if f < N - L:  # the m = 1 term, k = N - 1 at L = 0
        pieces += (amp[:, f:] * w * w, -2 * N * nu * base[:, f:] * total[:, f:])
    return np.concatenate(pieces, axis=1)


class PhiKernel:
    """Kernel data at fixed (N, L, phi): the residues and the inner tau integral.

    Construction keeps N, L, phi, nu = N e^-phi and t^2 = tanh^2(phi/2)
    only; the weights are formed for whole blocks of nodes
    (fill_tau_integrals), and a lone kernel is a block of one.
    """

    def __init__(self, N: int, L: int, phi: float):
        validate_quantum_numbers(N, L)
        if phi < 0.0:
            raise ValueError(f"phi must be nonnegative, got {phi}")
        self.N = N
        self.L = L
        self.phi = phi
        self.nu = N * math.exp(-phi)
        self.t2 = math.tanh(phi / 2.0) ** 2
        self._tau = None  # (value, error bound) of tau_integral, see fill_tau_integrals

    @cached_property
    def residues(self) -> tuple[float, ...]:
        """R_0 .. R_{N-1} (zero below L), from the node's weights j = -1 .. N as a block of one."""
        row = _block_rows([self])[1][0]
        return tuple(_q(row[:-2], row[1:-1], row[2:]).tolist())

    def _use_series(self) -> bool:
        return self.t2 <= SERIES_T2_MAX

    def tau_integral(self):
        """int_0^inf e^{nu tau} dQ~/dtau dtau, the inner integral of the shift.

        Returns (value, error_bound, evaluations, converged), with no
        evaluations of an integrand on either branch: the value and bound
        that fill_tau_integrals left, or those of a block of this kernel
        alone.  In the series regime the integral is the exact sum
        -sum_j j q_j/(j - nu), summed until the tail bound meets
        max(1e-13 |value|, 1e-15), which is the bound returned.  Otherwise
        it is the closed form, the residue terms n R_n/(n - nu) plus the
        Gauss pieces of _euler_block, whose error bound is the roundoff
        1e-15 sum |pieces|.
        """
        if self.nu >= self.N:  # phi = 0: the j = N denominator vanishes
            raise ValueError("the weighted tau integral diverges at phi = 0")
        if self._tau is None:
            fill_tau_integrals([self])
        value, bound = self._tau
        return value, bound, 0, True


def _coeff_chunks(kernels, block=None):
    """The tail q_j, j >= N, of a block of kernels of one (N, L), as chunks (j, q).

    j holds the chunk's indices as floats, 96 doubling to 4096 of them,
    and q one row per open kernel.  Each |D_{N,j}|^2 is formed once.  A
    chunk extends the weights by _tail_weights from the gains of the last
    one and carries only each row's last two weights into the next, so a
    chunk costs the same whatever came before it, every q_j equals its
    value from one _tail_weights call over the whole range, and each row
    equals that of its kernel in a block of one, bit for bit.  block is
    the kernels' (points, rows) of _block_rows, formed here when not
    given.  The consumer decides when each row stops: it sends a boolean
    mask of the rows to keep (None, as iteration sends, keeps them all),
    and the next chunk holds those rows only.
    """
    N, L = kernels[0].N, kernels[0].L
    points, rows = block or _block_rows(kernels)
    # one row per kernel: w, t^2, the gain G_N and the weights j = N - 1, N
    w, t2, gain, edge = points[:, :1], points[:, 1:2], points[:, 2], rows[:, -2:]
    j0, chunk = N, 96
    while True:
        j1 = j0 + chunk
        tail, gain = _tail_weights(N, L, (w, t2, None), j0 + 1, j1 + 1, gain)
        weights = np.concatenate((edge, tail), axis=1)
        del tail  # only q and the last two weights outlive the chunk
        q = _q(weights[:, :-2], weights[:, 1:-1], weights[:, 2:])
        edge = weights[:, -2:].copy()
        del weights
        keep = yield _tail_table(N, L, j0 + 1, j1 + 1)[0], q
        if keep is not None:
            w, t2, gain, edge = w[keep], t2[keep], gain[keep], edge[keep]
        j0 = j1
        chunk = min(2 * chunk, 4096)


def _series_sums(kernels, factor, rel_tol: float = 1.0e-13, abs_tol: float = 1.0e-300, block=None) -> list[float]:
    """sum_{j >= N} q_j factor(j, nu) for each kernel of a block, for positive decreasing-enough factors.

    One stream of _coeff_chunks serves the whole block (block as there);
    factor gets a chunk's j and the column of its open rows' nu.  Each row
    stops on its own tail bound, taken in Python floats, after as many
    chunks as its kernel would take alone, so every sum equals that of a
    block of one bit for bit.  A row still open past j = 2e6 raises
    ArithmeticError naming (N, L, phi) of every open kernel.
    """
    N = kernels[0].N
    nu = np.array([[ker.nu] for ker in kernels])
    totals = np.zeros(len(kernels))
    sums, rows = [0.0] * len(kernels), range(len(kernels))  # rows: the kernel of each open row
    chunks = _coeff_chunks(kernels, block)
    j, q = next(chunks)
    while True:
        terms = q
        terms *= factor(j, nu)  # in place: the stream keeps no chunk
        totals += terms.sum(axis=1)
        j1 = int(j[-1]) + 1
        tails = np.abs(terms[:, -8:]).max(axis=1).tolist()
        keep = []
        for i, total, tail in zip(rows, totals.tolist(), tails):
            ratio = min(0.999, kernels[i].t2 * (1.0 + 2.0 * N / j1))
            sums[i] = total
            keep.append(not tail * ratio / (1.0 - ratio) <= max(rel_tol * abs(total), abs_tol))
        if not any(keep):
            return sums
        if all(keep):
            keep = None
        else:
            rows = [i for i, going in zip(rows, keep) if going]
            keep = np.array(keep)
            nu, totals = nu[keep], totals[keep]
        if j1 > 2_000_000:
            open_ = ", ".join(f"({kernels[i].N}, {kernels[i].L}, {kernels[i].phi!r})" for i in rows)
            raise ArithmeticError(f"kernel series did not converge by j = {j1} at (N, L, phi) = {open_}")
        j, q = chunks.send(keep)


# Kernels per series stream: a chunk of 96 coefficients then holds at most
# this many rows (24 kB per array), so that a call of 55 nodes adds little
# to the peak memory of a pass.
_STREAM_ROWS = 32


def fill_tau_integrals(kernels) -> np.ndarray:
    """Fill the tau integrals of kernels of one (N, L) as one block; return their residues.

    The block forms the weight rows j = -1 .. N of every kernel at once
    (_block_rows) and from them the residues R_0 .. R_{N-1}, one row per
    kernel, which it returns.  The series-branch kernels with nu < N
    (phi > 0) get their sums from _series_sums streams of up to
    _STREAM_ROWS kernels; the closed-branch kernels get their residue
    terms and the Gauss pieces of one _euler_block, each node's pieces
    summed by math.fsum.  Every value equals that of the kernel in a block
    of one bit for bit.  The kernels at phi = 0 are left as they are:
    tau_integral raises there.
    """
    N, L = kernels[0].N, kernels[0].L
    points, rows = _block_rows(kernels)
    residues = _q(rows[:, :-2], rows[:, 1:-1], rows[:, 2:])
    series = [ker._use_series() for ker in kernels]
    summed = [on and ker.nu < N for on, ker in zip(series, kernels)]
    if any(summed):
        block = [ker for ker, on in zip(kernels, summed) if on]
        mask = np.array(summed)
        data = points[mask], rows[mask]
        for lo in range(0, len(block), _STREAM_ROWS):
            group = slice(lo, lo + _STREAM_ROWS)
            sums = _series_sums(
                block[group], lambda j, nu: j / (j - nu), TAU_REL_TOL, TAU_ABS_TOL, tuple(a[group] for a in data)
            )
            for ker, total in zip(block[group], sums):
                ker._tau = -total, max(TAU_REL_TOL * abs(total), TAU_ABS_TOL)
    if not all(series):
        block = [ker for ker, on in zip(kernels, series) if not on]
        nus = [ker.nu for ker in block]
        gauss = _euler_block(N, L, [ker.phi for ker in block], nus)
        n = np.arange(max(L, 1), N, dtype=float)
        terms = n * residues[np.logical_not(series)][:, max(L, 1) :] / (n - np.array(nus)[:, None])
        pieces = np.concatenate((terms, gauss), axis=1)
        for ker, row, sizes in zip(block, pieces.tolist(), np.abs(pieces).tolist()):
            ker._tau = math.fsum(row), 1.0e-15 * math.fsum(sizes)
    return residues
