"""Residue coefficients and the inner tau integral of the rotated contour.

The kernel is Q(T, phi) = sin^2(T/2) sum_n |D_{N,n}(phi)|^2 e^{-i n T}, D
the dilation matrix of the discrete series.  On the rotated contour T = -i
tau it is the exponential series sum_j q_j u^j in u = e^{-tau}, with
q_j = |D_{N,j}|^2/2 - |D_{N,j+1}|^2/4 - |D_{N,j-1}|^2/4 for every j (_q, the
one place the formula is written), every |D|^2 from one Jacobi closed form
(_row_table's factors for j <= N, _tail_weights beyond;
su11.rep_matrix_element is only an independent reference).  The q_j with
j < N are the residues R_j and the j >= N tail is the remainder Q~.
The kernels of one (N, L) are evaluated as blocks (fill_tau_integrals,
the only function that reads or writes PhiKernel objects; every function
below it takes (N, L) and arrays of phi and nu): the shift integrand
passes all phi nodes of a quadrature call as one block, and a lone kernel
is a block of one.  A block forms the weights j = -1 .. N of all its nodes
at once (_block_rows, one Jacobi recurrence over the whole row), hence
their residues, the same floats as residue_coeffs channel by channel; the tail
coefficients of all its series-branch nodes come in forward (nodes x j)
chunks of one stream that _series_sums sums row by row, forming each weight
once and dropping each row once it has stopped.  PhiKernel itself holds
only (N, L, phi, nu) and the filled value.  Summing the tail
directly removes the catastrophic cancellation that subtracting the finite
series from the closed form would cause at small phi, where the integrand
weight e^{nu tau} grows almost as fast as the kernel decays.
Every phi-independent coefficient of these loops is computed lazily and
then read.  The binomial ratios and Jacobi steps of the weights j <= N
are _row_table, kept per (N, L) for the whole process, since every rate
reads it once per channel; its steps come from specfun._jacobi_steps,
keyed by (N - j, 2L + 1) and so shared by every N.  Everything else that
depends on (N, L) alone lives in one record, _tables, which holds the
last state asked for and no other: the weight steps as rows over j
(_row_steps), the gain ratios and steps of each tail chunk narrower than
the stream's 4096-column cap (_tail_table; the series branch stops
within its first four chunks, so a series that never stops keeps six),
the factors of each Euler log series with its first term 1/s!
(_euler_rows) and the steps of the log series themselves (_log_table,
one table per length).  Every caller reads a state's tables only while
it works on that state, so each is built once per state and a sweep over
states holds one state's tables.
At large phi the series converges too slowly (ratio t^2 -> 1,
t = tanh(phi/2)) and the closed u-form Q = pi(u) (1 - u t^2)^{-2N}, pi a
polynomial of degree 2N - L, takes over without ever being evaluated in
tau: Euler's integral turns the inner integral int e^{nu tau} dQ~/dtau
dtau into one Gauss function per factored term of pi, each summed in
closed form around t^2 = 1, for all closed-branch nodes of a block and
all terms at once (_euler_block, its log series one (nodes x terms x j)
slab in _log_series, to whose pieces fill_tau_integrals adds the residue
terms); the same Gauss pieces at the complex nu + i eps are the eps
oracle's inner integral at large phi, reached without a PhiKernel and so
without a weight row.  Within a block, only a node's Jacobi point
(_block_rows) and its e^-phi (_euler_block) are scalar calls; every
other per-node quantity is an array operation over the block's nodes,
the digamma heads too (one specfun.digamma per block, _psi_rows) and the
weight gains: their powers t^{2k} are running products, as in
residue_coeffs, not pow, so the rows keep its floats.
Only the checks evaluate kernels: the u-form and the remainder Q~ in tau
(oracles.q_imag_time, oracles.remainder), the real-time kernel
(oracles.kernel_q) and the adaptive quadrature of the inner integral
(oracles.tau_integral_by_quadrature).
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from functools import lru_cache
from operator import index

import numpy as np

from .specfun import _jacobi_from_steps, _jacobi_steps, digamma

# Unused here; kept bound because perfbench/tracing.py wraps
# kernel.integrate_semi_infinite and kernel.rep_matrix_element.
from .quadrature import integrate_semi_infinite  # noqa: F401
from .su11 import rep_matrix_element  # noqa: F401

# Switch from the exponential series to the Euler closed form once the
# series ratio tanh^2(phi/2) exceeds this (phi ~ 2.89).
SERIES_T2_MAX = 0.80
# Every kernel series (the series branch's tau integral and the oracles'
# remainders) stops once its tail bound meets TAU_REL_TOL |sum|, with no
# absolute floor: at high L the tail terms rise for a while before they
# decay, and a floor ends the sum on terms that are still growing.
TAU_REL_TOL = 1.0e-13
EULER_GAMMA = 0.57721566490153286061
# The types a quantum number or residue index may have (numpy's integers
# are registered as numbers.Integral; an integral float is not one).  int
# comes first: the ABC check alone took ~0.5 us on a shared 2-vCPU VM, and
# it runs on every node and channel (so does validate_quantum_numbers'
# operator.index, which costs a third of int()).
_INTEGERS = (int, numbers.Integral)


def validate_quantum_numbers(N: int, L: int) -> tuple[int, int]:
    """(N, L) as Python ints, the only keys of the per-(N, L) tables: a numpy integer hashes like its int."""
    if not isinstance(N, _INTEGERS) or not isinstance(L, _INTEGERS) or not 0 <= L < N:
        raise ValueError(f"invalid quantum numbers N={N!r}, L={L!r} (need 0 <= L <= N-1)")
    return index(N), index(L)


def _jacobi_point(L: int, phi: float) -> tuple[float, float, float]:
    """(w, t^2, G_N) of the Jacobi form: w = 1 - 2t^2, G_N = cosh^{-4(L+1)}(phi/2)."""
    sech2 = math.cosh(phi / 2.0) ** -2
    return 2.0 * sech2 - 1.0, math.tanh(phi / 2.0) ** 2, sech2 ** (2 * (L + 1))


@lru_cache(maxsize=None)
def _row_table(N: int, L: int) -> tuple:
    """The phi-independent factors of the weights L < j <= N, kept per (N, L).

    Bargmann's closed form makes each weight a Jacobi polynomial at a point
    in [-1, 1], symmetric in N and j, free of alternating sums; with
    l = min(N, j), h = max(N, j) and t = tanh(phi/2),

        |D_{N,j}|^2 = G_j P_{l-L-1}^{(h-l, 2L+1)}(1 - 2t^2)^2,
        G_j = C(h+L, 2L+1)/C(l+L, 2L+1) t^{2(h-l)} cosh^{-4(L+1)}(phi/2).

    Here j <= N: entry j - L - 1 is (C(N+L, 2L+1)/C(j+L, 2L+1), the Jacobi
    steps of degree 1 .. j - L - 1 at (N - j, 2L + 1) from specfun's
    table), the binomial ratio of G_j and the recurrence of its Jacobi
    polynomial; the power N - j of t^2 in G_j is the entry's distance from
    the last.  The weights j <= L are zero and never index it.
    """
    top, rows = math.comb(N + L, 2 * L + 1), []
    for j in range(L + 1, N + 1):
        degree = j - L - 1
        steps = tuple(_jacobi_steps(degree, N - j, 2 * L + 1)[:degree])
        rows.append((top / math.comb(j + L, 2 * L + 1), steps))
    return tuple(rows)


@lru_cache(maxsize=1)
def _tables(N: int, L: int) -> dict:
    """The tables of the last (N, L) asked for, by (builder, key); _table fills it."""
    return {}


def _table(builder, N: int, L: int, *key):
    """builder(N, L, *key), built once while (N, L) is the state that _tables holds."""
    tables = _tables(N, L)
    if (builder, key) not in tables:
        tables[builder, key] = builder(N, L, *key)
    return tables[builder, key]


def _row_steps(N: int, L: int) -> tuple:
    """The Jacobi steps of the weights L < j <= N as rows over j.

    Step k is (c1, c0, c2), three arrays whose entry j - L - 1 is step k of
    weight j's polynomial (_row_table) up to its degree j - L - 1 and
    (0, 1, 0) past it, which leaves a value exactly as it is: one
    recurrence over the arrays gives every weight's own polynomial.
    """
    table = _row_table(N, L)
    keep = (0.0, 1.0, 0.0)
    return tuple(
        tuple(map(np.array, zip(*(steps[k] if k < len(steps) else keep for _, steps in table))))
        for k in range(N - L - 1)
    )


def _block_rows(N: int, L: int, phis) -> tuple[np.ndarray, np.ndarray]:
    """(points, rows) of a block of nodes phis of one (N, L): the Jacobi points
    (w, t^2, G_N) as an (M x 3) array and the weights |D_{N,j}|^2, j = -1 .. N,
    one row per node.

    Only the Jacobi points are per-node calls.  The factors
    G_j = ratio_j t^{2(N-j)} G_N of all nodes and weights (_row_table) are
    one array expression, t^{2k} one cumulative product over k (not pow: C
    pow and numpy's power round differently in ~8% of their results), and
    the polynomials of all weights j <= N of all nodes are one recurrence
    (_row_steps), so a block costs N - L - 1 array steps where its nodes
    alone would cost (N - L)^2/2 scalar steps each.
    """
    points = np.array([_jacobi_point(L, phi) for phi in phis])
    powers = np.empty((len(points), N - L))  # t^{2k}, k = 0 .. N - L - 1
    powers[:, 0] = 1.0
    powers[:, 1:] = points[:, 1:2]
    np.cumprod(powers, axis=1, out=powers)
    ratios = np.array([ratio for ratio, _ in _row_table(N, L)])
    p = _jacobi_from_steps(_table(_row_steps, N, L), points[:, :1])
    rows = np.zeros((len(points), N + 2))
    rows[:, L + 2 :] = ratios * powers[:, ::-1] * points[:, 2:] * p * p  # weight j has power N - j
    return points, rows


def _q(below, at, above):
    """q_j from |D_{j-1}|^2, |D_j|^2 and |D_{j+1}|^2: floats or arrays, the same IEEE operations."""
    return 0.5 * at - 0.25 * above - 0.25 * below


def _tail_table(N: int, L: int, j0: int, j1: int):
    """The phi-independent part of _tail_weights over j0 <= j < j1.

    (ratios, steps) over the array j as floats: the gain ratios
    (j+L)/(j-L-1) and the Jacobi steps at alpha = j - N.
    """
    j = np.arange(j0, j1, dtype=float)
    return (j + L) / (j - L - 1), _jacobi_steps(N - L - 1, j - N, 2.0 * L + 1.0)


def _tail_weights(N: int, L: int, point, j0: int, j1: int, gain):
    """|D_{N,j}|^2 for N < j0 <= j < j1 and the gain G at j1 - 1, given G at j0 - 1.

    The one route for the weights beyond _row_table's: one cumulative
    product of G_j/G_{j-1} = t^2 (j+L)/(j-L-1), which is sequential, so
    carrying G across a split changes no value.  Its coefficients come
    from _tail_table, kept in _tables for a range narrower than the
    stream's 4096-column cap and built afresh at the cap, where a stream
    that does not stop asks for ever new ranges.  point is that of one
    node (floats) or of a block of nodes (w and t^2 as columns, gain a row
    of their gains): a block is one row per node, each row the same floats
    as the node alone.
    """
    w, t2, _ = point
    ratios, steps = _table(_tail_table, N, L, j0, j1) if j1 - j0 < 4096 else _tail_table(N, L, j0, j1)
    gains = t2 * ratios
    gains[..., 0] *= gain
    np.cumprod(gains, axis=-1, out=gains)
    return gains * _jacobi_from_steps(steps, w) ** 2, gains[..., -1]


def residue_coeffs(N: int, L: int, phi: float, n: int) -> float:
    """Residue R_n = q_n of e^{-n tau} in the kernel series, L <= n <= N-1.

    Only the three weights j = n+1, n, n-1 (those above L) are computed,
    as plain floats from the entries of _row_table that the rows of
    _block_rows read, and _q combines them: a scalar call (one per decay
    channel per process, at its pole, through shifts._channels, which
    every rate, pole strength and Bethe logarithm reads) would spend more
    on a whole row of weights or on a numpy array than on the arithmetic.
    Each weight's Jacobi recurrence runs inline, specfun._jacobi_from_steps'
    loop written out with no call per weight.  t^{2(N-j)} is the running
    product (t^2)^k that _block_rows' cumulative product forms, here from
    the last weight down, and the square is a product, so R_n equals the
    residue of fill_tau_integrals' row at phi bit for bit.
    """
    N, L = validate_quantum_numbers(N, L)
    if not isinstance(n, _INTEGERS) or not L <= n < N:
        raise ValueError(f"residue index n={n!r} outside [L, N-1] = [{L}, {N - 1}]")
    w, t2, gain = _jacobi_point(L, phi)
    table, weights, power = _row_table(N, L), [0.0, 0.0, 0.0], 1.0
    for _ in range(N - n - 1):  # k = N - j of j = n + 1
        power *= t2
    for j in range(n + 1, max(n - 2, L), -1):
        ratio, steps = table[j - L - 1]
        p, p_prev = 1.0, 0.0
        for c1, c0, c2 in steps:
            p, p_prev = (c1 * w + c0) * p - c2 * p_prev, p
        weights[j - n + 1] = ratio * power * gain * p * p
        power *= t2
    return _q(*weights)


def _series_term_ratios(N: int, L: int) -> tuple[float, ...]:
    """Terminating-series coefficients t_k of 2F1(L+1-N, -L-N; 1; z)."""
    a, b = L + 1 - N, -L - N
    ratios = [1.0]
    for k in range(N - L - 1):
        ratios.append(ratios[-1] * (a + k) * (b + k) / ((k + 1) * (k + 1)))
    return tuple(ratios)


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


class _EulerRows(namedtuple("_EulerRows", "amp p h psi psi0 first a s finite past")):
    """The phi-independent data of _euler_block, as arrays over the factored terms k < N - L.

    With m = q_k + 1 - 2N, s = |m| and h = max(m, 0): amp = -t_k/4, p =
    N - 1 - k and h as floats, psi the index p + h - 1 of psi(b+h) in a
    node's digamma row, psi0 = -psi(1) - psi(s+1) + psi(2N+h) =
    gamma - H_s + H_{2N+h-1} (the integer digammas of the log series at
    j = 0), first = 1/s! its first term, a = 2N + h and s, and for the
    terms with m < 0 (all but the last when L = 0, where m = 1)
    finite = q!/(2N-1)! (q+1)_j (s-j-1)!/j! for j < s, zero beyond, and
    past = 1.0 where j >= s, else 0.0, both over the longest s.  All are
    float arrays but psi, a list of ints.
    """

    __slots__ = ()


def _euler_rows(N: int, L: int) -> _EulerRows:
    """The _EulerRows of (N, L).

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
        np.array(first), np.array(a, dtype=float), np.array(s, dtype=float),
        np.array([row + [0.0] * (width - len(row)) for row in finite]).reshape(len(finite), width),
        np.array([[float(j >= si) for j in range(width)] for si in s[: len(finite)]]).reshape(len(finite), width),
    )


def _log_table(N: int, L: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The parts of steps j < length of the log series S_k (_euler_block) that do not depend on phi.

    Two (terms x length) arrays, (a+j)/((j+1)(j+s+1)) and 1/(a+j) - 1/(j+1)
    - 1/(j+s+1) with a and s from _euler_rows.  Every operand is an
    integer-valued float far below 2^53, so each entry is the float of the
    same expression in Python integers.
    """
    rows = _table(_euler_rows, N, L)
    a, s, j = rows.a[:, None], rows.s[:, None], np.arange(length, dtype=float)
    return (a + j) / ((j + 1.0) * (j + s + 1.0)), 1.0 / (a + j) - 1.0 / (j + 1.0) - 1.0 / (j + s + 1.0)


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


def _log_series(N: int, L: int, bh, g, w):
    """S_k of _euler_block for each node and term, every one stopped by the test of a term-by-term loop.

    Entry (i, k) sums term_j g_j, term_0 = 1/s! and term_{j+1} = term_j
    ratio_j with ratio_j = (a+j)(bh+j) w/((j+1)(j+s+1)), and g_{j+1} = g_j
    + 1/(a+j) - 1/(j+1) - 1/(j+s+1) + 1/(bh+j), the digamma recurrences of
    its bracket, from g_0 = g; bh and g are (nodes x terms), w a column.
    The terms, brackets and running sums of the first few steps are
    cumulative products and sums over j, which add in the loop's order, so
    each running sum is the loop's float; an entry ends at the first j
    with |ratio_j| < 1 and |term_j g_j ratio_j| <= 1e-17 (1 - |ratio_j|)
    |sum through j|.  All entries are one (nodes x terms x steps) slab,
    summed to _series_length at the block's largest w; that length doubles
    while an entry has not ended, up to _SERIES_MAX_STEPS, and a series
    still open there (a NaN entry never ends) raises ArithmeticError
    naming (N, L).  An entry's sum does not depend on the length, so it
    does not depend on the rest of the block either.
    """
    first = _table(_euler_rows, N, L).first
    length = _series_length(N, float(w.max()))
    while True:
        heads, steps = _table(_log_table, N, L, length)
        # three arrays of (nodes x terms x length): x, then the terms, their products
        # and |product ratio|; the ratios, then the bound; the brackets, then the sums
        x = bh[:, :, None] + np.arange(length, dtype=float)
        ratio = heads * x
        ratio *= w[:, :, None]
        sums = np.empty_like(x)
        sums[..., 0] = g
        np.divide(1.0, x[..., :-1], out=sums[..., 1:])
        sums[..., 1:] += steps[:, :-1]
        x[..., 0] = first
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
        ends = np.logical_or.accumulate(ends, axis=2)  # True from the first end on
        if ends[..., -1].all():
            break
        length *= 2
        if length > _SERIES_MAX_STEPS:
            raise ArithmeticError(
                f"a log series of the Euler closed form at (N, L) = ({N}, {L}) has not "
                f"ended within {length // 2} steps"
            )
    ends[..., 1:] &= ~ends[..., :-1]  # the first end of each entry alone
    return sums[ends].reshape(bh.shape)


def _psi_rows(N: int, nus) -> np.ndarray:
    """psi(1 - nu + i), i < N, one row per nu (real or complex, with 1 - nu + i never 0 or a negative integer).

    The rows of the scalar recurrence (float for float at real nu): the
    heads at the first positive argument, i = int(nu), where 1 - nu + i
    lies on digamma's strip (0 < Re <= 1, |Im| = eps), all from one array
    specfun.digamma, then running sums (cumsum adds in the loop's order) of
    1/(i - nu) upward and of -1/(i + 1 - nu) downward.  Every head is the
    float of its node alone, so each row is too.
    """
    first = [int(x.real) for x in nus]  # Python ints: np.floor would page in its code
    nu, i, f = np.array(nus)[:, None], np.arange(N, dtype=float), np.array(first, dtype=float)
    below, at = i < f[:, None], [k * N + j for k, j in enumerate(first)]
    heads = digamma(1.0 - nu[:, 0] + f)
    inv = np.zeros((len(nus), N + 1), dtype=nu.dtype)
    inv[:, 1:] = 1.0 / (i + 1.0 - nu)
    psi = inv[:, :-1].copy()
    psi[below] = 0.0
    psi.flat[at] = heads
    np.cumsum(psi, axis=1, out=psi)
    if any(first):
        down = -inv[:, 1:]
        down[~below] = 0.0
        down.flat[at] = heads
        psi[below] = np.cumsum(down[:, ::-1], axis=1)[:, ::-1][below]
    return psi


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
    psi(b+h+j) follows from one digamma head by recurrence, and
    w = 4 e^-phi/(1+e^-phi)^2 is formed directly, t^2 as 1 - w.

    The nodes are one block.  w, w^3, ln w and t^{2k} are columns over the
    nodes, and the digamma rows psi(1 - nu + i), i < N, cumulative sums
    from each node's digamma head at i = int(nu), upward and, where
    int(nu) >= 1, downward, in the recurrence's order (_psi_rows, all heads
    of the block from one array specfun.digamma).  Only e^-phi (math.exp:
    numpy's first exp pages in its code, ~0.1 MB of a pass's peak memory)
    is a scalar call per node.  The rest is array operations over
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
    rows = _table(_euler_rows, N, L)
    phi, nu = np.array(phis, dtype=float)[:, None], np.array(nus)[:, None]
    e = np.array([math.exp(-x) for x in phis])[:, None]  # by math.exp, see above
    u = 1.0 + e
    w = 4.0 * e / u**2
    # ln w = -ln cosh^2(phi/2) = -(phi - 2 ln 2 + 2 log1p(e)), log1p(e) as log(u) corrected for the
    # rounding of u (numpy's first log1p, like its first exp, would page in its code)
    w3, ln_w = w**3, -(phi - 2.0 * math.log(2.0) + 2.0 * (np.log(u) - (u - 1.0 - e) / u))
    amp = rows.amp * (1.0 - w) ** np.arange(N - L, dtype=float)  # -t_k t^{2k}/4, t^2 = 1 - w
    base = amp * w3
    total = _log_series(N, L, rows.p - nu + rows.h, ln_w + rows.psi0 + _psi_rows(N, nus)[:, rows.psi], w)
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
    """Kernel data at fixed (N, L, phi): the inner tau integral.

    Construction keeps N, L, phi and nu = N e^-phi only; the weights are
    formed for whole blocks of nodes (fill_tau_integrals), and a lone
    kernel is a block of one.
    """

    def __init__(self, N: int, L: int, phi: float):
        self.N, self.L = validate_quantum_numbers(N, L)
        if phi < 0.0:
            raise ValueError(f"phi must be nonnegative, got {phi}")
        self.phi = phi
        self.nu = self.N * math.exp(-phi)
        self._tau = None  # (value, error bound) of tau_integral, see fill_tau_integrals

    def tau_integral(self):
        """int_0^inf e^{nu tau} dQ~/dtau dtau, the inner integral of the shift.

        Returns (value, error_bound, evaluations, converged), with no
        evaluations of an integrand on either branch: the value and bound
        that fill_tau_integrals left, or those of a block of this kernel
        alone.  In the series regime the integral is the exact sum
        -sum_j j q_j/(j - nu), summed until the tail bound meets
        TAU_REL_TOL |value| (1e-13), which is the bound returned: relative
        alone, since at high L the value can lie far below any fixed floor
        (2.4e-8 at (50, 49, 2.8), whose first 96 tail terms are all below
        1e-15 and still rising).  Otherwise it is the closed form, the
        residue terms n R_n/(n - nu) plus the Gauss pieces of _euler_block,
        whose error bound is the roundoff 1e-15 sum |pieces|.
        """
        if self.nu >= self.N:  # phi = 0: the j = N denominator vanishes
            raise ValueError("the weighted tau integral diverges at phi = 0")
        if self._tau is None:
            fill_tau_integrals([self])
        value, bound = self._tau
        return value, bound, 0, True


def _series_sums(N: int, L: int, phis, nu, factor, block=None) -> list[float]:
    """sum_{j >= N} q_j factor(j, nu) at each node of a block of one (N, L), for positive decreasing-enough factors.

    phis is a list of the nodes and nu an array of their nu; block is their
    (points, rows) of _block_rows, formed here when not given.  The tail
    q_j come in chunks of 96 doubling to 4096 columns, one row per open
    node, each extending the weights by _tail_weights from the gains of the
    last chunk and carrying only each row's last two weights into the next:
    each |D_{N,j}|^2 is formed once, a chunk costs the same whatever came
    before it, and every q_j equals its value from one _tail_weights call
    over the whole range.  factor gets a chunk's j (floats) and the
    column of its open rows' nu.  Each row stops once
    its tail bound, the largest of the chunk's last eight terms times
    r/(1 - r) with r the ratio t^2 (1 + 2N/j) capped at 0.999, meets
    TAU_REL_TOL |sum|, read at call time (see there: no absolute floor).
    One array comparison over the open rows per chunk decides, and a
    stopped row leaves the chunks that follow, after as many chunks as its
    node would take alone, so every sum equals that of a block of one bit
    for bit.  A row still open past j = 2e6 raises
    ArithmeticError naming (N, L, phi) of every open node.  The block is
    one stream whatever its size: the 4096-column cap and the j = 2e6
    guard, not a cap on rows, bound the arrays of a run that does not
    converge.
    """
    points, rows = block or _block_rows(N, L, phis)
    # one row per open node: w, t^2, nu, the gain G at the chunk's start and the weights j0 - 1, j0
    w, t2, nu, gain, edge = points[:, :1], points[:, 1:2], np.asarray(nu)[:, None], points[:, 2], rows[:, -2:]
    totals, sums = np.zeros(len(points)), np.zeros(len(points))
    open_ = np.arange(len(points))  # the node of each open row
    j0, chunk = N, 96
    while True:
        j1 = j0 + chunk
        tail, gain = _tail_weights(N, L, (w, t2, None), j0 + 1, j1 + 1, gain)
        weights = np.concatenate((edge, tail), axis=1)
        del tail  # only the terms and the last two weights outlive the chunk
        terms = _q(weights[:, :-2], weights[:, 1:-1], weights[:, 2:])
        edge = weights[:, -2:].copy()
        del weights
        terms *= factor(np.arange(j0, j1, dtype=float), nu)
        totals += terms.sum(axis=1)
        sums[open_] = totals
        ratio = np.minimum(0.999, t2[:, 0] * (1.0 + 2.0 * N / j1))
        keep = ~(np.abs(terms[:, -8:]).max(axis=1) * ratio / (1.0 - ratio) <= TAU_REL_TOL * np.abs(totals))
        if not keep.any():
            return sums.tolist()
        if not keep.all():
            open_, w, t2, nu, gain, edge, totals = (a[keep] for a in (open_, w, t2, nu, gain, edge, totals))
        if j1 > 2_000_000:
            at = ", ".join(f"({N}, {L}, {phis[i]!r})" for i in open_.tolist())
            raise ArithmeticError(f"kernel series did not converge by j = {j1} at (N, L, phi) = {at}")
        j0, chunk = j1, min(2 * chunk, 4096)


def fill_tau_integrals(kernels) -> np.ndarray:
    """Fill the tau integrals of kernels of one (N, L) as one block; return their residues.

    The one function that touches kernel objects: it reads their phi and
    nu once, works on arrays of them and writes each kernel's value once.
    The block forms the weight rows j = -1 .. N of every node at once
    (_block_rows) and from them the residues R_0 .. R_{N-1}, one row per
    kernel, which it returns.  The series-branch nodes with nu < N
    (phi > 0) get their sums from one _series_sums stream, however many
    they are; the closed-branch nodes get their residue terms and the
    Gauss pieces of one _euler_block, each node's pieces summed by
    math.fsum and their magnitudes, for the bound, by one array sum over
    the block.  Every value equals that of the kernel in a block of one
    bit for bit.  The kernels at phi = 0 are left unfilled: tau_integral
    raises there.
    """
    N, L = kernels[0].N, kernels[0].L
    phis = np.array([ker.phi for ker in kernels], dtype=float)
    nus = np.array([ker.nu for ker in kernels])
    points, rows = _block_rows(N, L, phis.tolist())
    residues = _q(rows[:, :-2], rows[:, 1:-1], rows[:, 2:])
    taus = [None] * len(kernels)  # None at phi = 0, where tau_integral raises
    series = points[:, 1] <= SERIES_T2_MAX  # t^2 of each node
    summed = np.flatnonzero(series & (nus < N))
    if summed.size:
        sums = _series_sums(
            N, L, phis[summed].tolist(), nus[summed], lambda j, nu: j / (j - nu), (points[summed], rows[summed])
        )
        for i, total in zip(summed.tolist(), sums):
            taus[i] = -total, TAU_REL_TOL * abs(total)
    closed = np.flatnonzero(~series)
    if closed.size:
        gauss = _euler_block(N, L, phis[closed].tolist(), nus[closed].tolist())
        n = np.arange(max(L, 1), N, dtype=float)
        terms = n * residues[closed, max(L, 1) :] / (n - nus[closed, None])
        pieces = np.concatenate((terms, gauss), axis=1)
        bounds = 1.0e-15 * np.abs(pieces).sum(axis=1)
        for i, row, bound in zip(closed.tolist(), pieces.tolist(), bounds.tolist()):
            taus[i] = math.fsum(row), bound
    for ker, tau in zip(kernels, taus):
        ker._tau = tau
    return residues
