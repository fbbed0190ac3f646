"""Numerical estimates for the conditions governing the summation methods:
the Muckenhoupt product over dyadic intervals, the Carleson separation sup,
and the two line integrability checks.

A diagnosis of the line is its table: line_diagnostics returns the (3, 2)
array of the A2 scan and the two integrals (rows) on the windows [-X, X]
and [-2X, 2X] (columns), from one log|G| pass per line height, and the
caller forms the 2X/X trends from its two columns.  The A2 scan is a lower
bound only (dyadic intervals, finite window); the artifact reports values
and trends, never membership claims.

The Carleson sup is the largest of N row sums over N - 1 pairs each; an
exact best-first search sums only the rows whose bound can still reach the
largest sum found, and returns the direct pass's bits.
"""

from __future__ import annotations

import math

import numpy as np

from pwsum.grids import line_grid
from pwsum.spectrum import inverse_square_sums


class DiagnosticsError(ValueError):
    pass


def _check_shift(gen, a: float) -> None:
    if len(gen.spectrum) and np.min(np.abs(gen.spectrum.points.imag - a)) < 1e-9:
        raise DiagnosticsError("shift a hits a spectrum height; |G| vanishes on the line")


def _a2_from_logs(logs: np.ndarray) -> float:
    """max over dyadic subintervals of the window, and the window itself, of
    avg|G(x+ia)|^2 * avg|G(x+ia)|^-2 (trapezoid means), from the samples
    log|G(x+ia)| on the window's nodes: a lower bound for the Muckenhoupt
    supremum, >= 1 by Cauchy-Schwarz.  Interval lengths are 2^j node
    spacings for j >= 2, at aligned offsets.

    avg|G|^2 * avg|G|^-2 does not change when log|G| moves by a constant, so
    the samples are first centred on their midrange: u and v then overflow
    only where log|G| spans more than ~709 over the window.  A product that
    is still not finite raises DiagnosticsError."""
    t = logs - 0.5 * (logs.max() + logs.min())

    def avgs(c, f, j0, m):
        # trapezoid means over samples j0..j0+m, vectorized over offsets
        total = c[j0 + m + 1] - c[j0] - 0.5 * (f[j0] + f[j0 + m])
        return total / m

    best = [1.0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        u = np.exp(2.0 * t)
        v = np.exp(-2.0 * t)
        cu = np.concatenate([[0.0], np.cumsum(u)])
        cv = np.concatenate([[0.0], np.cumsum(v)])
        n = u.size
        m = 4
        while m < n:
            j0 = np.arange(0, n - m, m)
            best.append(np.max(avgs(cu, u, j0, m) * avgs(cv, v, j0, m)))
            m *= 2
        # the full window as one interval
        j0 = np.array([0])
        best.append((avgs(cu, u, j0, n - 1) * avgs(cv, v, j0, n - 1))[0])
    if not np.all(np.isfinite(best)):
        raise DiagnosticsError("A2 product not finite: |G| on the line spans beyond the float range")
    return float(max(best))


# Bernoulli numbers B_2k, k = 1..8 (DLMF 24.2.2): the asymptotic series of trigamma
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_TRIGAMMA_MIN = 10  # the series is used at x >= 10, where its terms are below 1e-16


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi'(x) = sum_{m >= 0} 1/(x + m)^2 for real x; inf at x = 0, -1, -2, ...

    Reflection psi'(x) = pi^2/sin^2(pi x) - psi'(1 - x) (DLMF 5.15.6) at
    x <= 0; then psi'(x) = psi'(x + 10) + sum_{k < 10} 1/(x + k)^2
    (DLMF 5.15.5) below 10, a fixed number of steps whatever x is; then
    psi'(x) = 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) (DLMF 5.15.8)."""
    x = np.array(x, dtype=float, ndmin=1)  # a copy: moved in place below
    refl = x <= 0
    if np.any(refl):
        v = x[refl]
        s = np.sin(math.pi * (v - np.round(v)))  # exact reduction: sin(pi v) = +-sin(pi f)
        with np.errstate(divide="ignore"):  # a pole: pi^2/0 = inf
            head = math.pi**2 / (s * s)
        x[refl] = 1.0 - v
    low = x < _TRIGAMMA_MIN
    if np.any(low):
        u = x[low]
        acc = np.zeros(u.shape)
        for _ in range(_TRIGAMMA_MIN):
            acc += 1.0 / (u * u)
            u += 1.0
        x[low] = u
    r = 1.0 / x
    r2 = r * r
    series = np.full(x.shape, _BERNOULLI[-1])
    for b in _BERNOULLI[-2::-1]:
        series *= r2
        series += b
    series *= r2 * r
    series += r * (1.0 + 0.5 * r)
    if np.any(low):
        series[low] += acc
    if np.any(refl):
        series[refl] = head - series[refl]  # pi^2/sin^2(pi x) - psi'(1 - x)
    return series


# carleson_sup's search: the exact terms of the _NEAR index neighbours on
# each side of a point enter its bound, and the rows are summed in batches of
# _FIRST_BATCH, 2 _FIRST_BATCH, 4 _FIRST_BATCH, ... rows
_NEAR = 8
_FIRST_BATCH = 16
_EPS = float(np.finfo(float).eps)  # 2u, u = 2^-53 the unit roundoff


def _row_bounds(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """carleson_sup's B_i per point i, sorted by real part x: the terms of
    the _NEAR index neighbours on each side, plus (W_R + E)/g_R^2 over the
    index ranges R, |j - i| in [_NEAR + 2^k, _NEAR + 2^(k+1)), with W_R from
    prefix sums of w, E = 2 N eps sum(w) and g_R the gap to R's nearest x."""
    n = x.size
    out = np.zeros(n)
    for o in range(1, min(_NEAR, n - 1) + 1):
        # |lambda_i - lambda_j|^2 as squared_distances forms it, so each
        # term is the one the row's sum adds; one d2 serves i and j = i + o
        dx, dy = x[o:] - x[:-o], y[o:] - y[:-o]
        d2 = dx * dx + dy * dy
        out[:-o] += w[o:] / d2
        out[o:] += w[:-o] / d2
    # c[n + k] = sum(w[:k]), held at 0 below k = 0 and at sum(w) above k = n
    c = np.concatenate([np.zeros(n + 1), np.cumsum(w)])
    c = np.concatenate([c, np.full(n, c[-1])])
    slack = 2.0 * n * _EPS * c[2 * n]
    span = 1
    while _NEAR + span < n:
        # row i < k's right range starts at a = i + d, row a's left range
        # ends at i: both are g = x_a - x_i from their row
        d = _NEAR + span
        k = n - d
        g = x[d:] - x[:k]
        g *= g
        out[:k] += (c[n + d + span : n + d + span + k] - c[n + d : n + d + k] + slack) / g
        out[d:] += (c[n + 1 : n + 1 + k] - c[n + 1 - span : n + 1 - span + k] + slack) / g
        span *= 2
    return out


def _tail_sums(tail, x: np.ndarray) -> np.ndarray:
    """sum over the tail sites mu of 1/(x_i - Re mu)^2 per real x_i, by
    trigamma per sublattice: its sites Re c +- (spacing m + offset), m >=
    start, give weight/spacing^2 (psi'(rho - u) + psi'(rho + u)) with u =
    (x - Re c)/spacing and rho = start + offset/spacing."""
    out = np.zeros(x.shape)
    for sl in tail.sublattices:
        u = (x - sl.c.real) / sl.spacing
        rho = sl.start + sl.offset / sl.spacing
        out += sl.weight / sl.spacing**2 * (_trigamma(rho - u) + _trigamma(rho + u))
    return out


def carleson_sup(s) -> float:
    """sup over lambda of sum_{mu != lambda} (1+|Im lambda|)(1+|Im mu|)/|lambda-mu|^2.

    Exact over the stored window; for the built-in lattice-type families a
    trigamma tail (_tail_sums) adds the contribution of the family points
    beyond the window, each sublattice at its own real offset, with the
    weight 1 + delta of a tail site and the distances along the real
    direction: exact where every point sits at the tail's height delta.
    The pair sums run in real arithmetic.  A sum that is not finite (a point
    whose real part is a tail site, a pole of the trigamma) raises
    DiagnosticsError.

    The search is best-first and exact.  Row i's value is V_i = w_i S_i +
    T_i, with w = 1 + |Im|, S_i = sum_{j != i} w_j/|lambda_i - lambda_j|^2
    and T_i the tail term.  With the points sorted by real part, B_i
    (_row_bounds) adds the computed terms of the _NEAR index neighbours on
    each side to a bound on all other terms: a dyadic index range R beyond
    them holds the weight W_R, and none of its points is nearer in real part
    than the one next to the row.  U_i = (w_i B_i + T_i)(1 + (N + 256) eps),
    all in O(N (_NEAR + log N)).  The rows are summed in descending U, in
    batches that double in size, each by inverse_square_sums over all N
    columns with its own column skipped, until the largest sum so far is at
    least the next bound.  Each row is reduced on its own, in column order
    (row_blocks), so a summed row has the bits of the direct pass over all N
    rows, and so has the max: a row left out has V_i <= U_i <= that max.  On
    a separated lattice the rows are near equal and all are summed.

    Why V_i <= U_i.  Let u = eps/2 and h = 2^-1075, the largest error of a
    result in the subnormal range; each inequality is between computed
    floats, read as reals.  A term of S_i is t_ij = fl(w_j/d_ij), d_ij =
    fl(fl(dx^2) + fl(dy^2)), dx = fl(x_i - x_j).  Rounding is monotone, so
    for j in a range R whose point next to the row is a, |dx| >= |fl(x_a -
    x_i)| = g and d_ij >= fl(g^2): t_ij <= (1 + u) w_j/fl(g^2) + h.  Each
    prefix sum is off by at most gamma_N sum(w), so W_R <= W'_R + E, W'_R
    the computed difference of two, and R's term f_R = fl(fl(W'_R +
    E)/fl(g^2)) gives sum_R t_ij <= (1 + u)(1 - u)^-2 (f_R + h) + |R| h.
    The neighbour terms are the t_ij themselves.  A float sum of k
    nonnegative terms, in any order, is within (1 +- u)^(k - 1) of the exact
    sum (an addition never loses to underflow); B_i has at most 2 _NEAR + 2
    * 63 < 145 terms and S_i has N.  So S_i <= (1 + u)^N (1 - u)^-146 B_i +
    2 (N + 128) h, and the products by w_i >= 1 and the sums with T_i (the
    same float on both sides) give V_i <= (1 + u)^(N + 2) (1 - u)^-148 (w_i
    B_i + T_i) + 4 (N + 128) w_i h.  With B_i >= 2^-900 the last term is
    below 2^-120 (N + 128) u w_i B_i, and while N u < 1e-2 (any N that fits
    in memory) the factor, with the two roundings of U's own product, stays
    below 1 + (N + 256) eps.  A row with B_i < 2^-900 (a point alone, or far
    from all others), or with U_i > 2^1000, where a sum may overflow, or
    NaN, gets U_i = inf.  Such rows are summed first, so a sum that is not
    finite still raises.
    """
    pts = s.points
    n = pts.size
    if not n:
        return 0.0
    w = 1.0 + np.abs(pts.imag)
    tail = np.zeros(n)
    if s.tail is not None:
        tail = w * (1.0 + s.tail.delta) * _tail_sums(s.tail, pts.real)
    order = np.argsort(pts.real, kind="stable")
    b = np.empty(n)
    with np.errstate(divide="ignore", over="ignore"):  # inf bounds: rows summed first
        b[order] = _row_bounds(pts.real[order], pts.imag[order], w[order])
        bound = (w * b + tail) * (1.0 + (n + 256) * _EPS)
    bound[~((b >= 2.0**-900) & (bound <= 2.0**1000))] = np.inf
    rows = np.argsort(-bound, kind="stable")
    best, start, size = -np.inf, 0, _FIRST_BATCH
    while start < n and not best >= bound[rows[start]]:
        batch = rows[start : start + size]
        sums = inverse_square_sums(pts[batch], pts, w, skip=batch)
        sums *= w[batch]  # w_lambda sum_mu w_mu/|lambda - mu|^2
        sums += tail[batch]
        if not np.all(np.isfinite(sums)):
            raise DiagnosticsError("Carleson sum not finite: a point's real part is a site of the lattice tail")
        best = max(best, float(np.max(sums)))
        start, size = start + size, 2 * size
    return best


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, ka, kb): the sorted union of the increasing arrays a and b (b
    not empty), with nodes[ka] = a and nodes[kb] = b; an entry of a equal to
    one of b is taken once.  One searchsorted of a into b merges them: k
    counts the entries of b below each entry of a, and an entry that b
    lacks goes in just before b[k]."""
    k = np.searchsorted(b, a)
    new = b[np.minimum(k, b.size - 1)] != a
    ka = k + np.cumsum(new) - new
    kb = np.arange(b.size) + np.cumsum(np.bincount(k[new], minlength=b.size + 1))[: b.size]
    nodes = np.empty(b.size + np.count_nonzero(new))
    nodes[ka] = a
    nodes[kb] = b
    return nodes, ka, kb


def line_diagnostics(gen, X: float, h: float, a: float = 0.0) -> np.ndarray:
    """The (3, 2) table of the line: rows the A2 scan on the line at height
    a, int |G|^2/(1+x^2) and int |G|^-2/(1+x^2) on the real line; columns
    the windows [-X, X] and [-2X, 2X].

    A window [-W, W] has the nodes and trapezoid weights of
    line_grid(W, h).  One log|G| pass per line height, over the union of
    both windows' nodes (_merge_sorted; at even m the [-X, X] nodes are
    nodes of [-2X, 2X]): each node's value depends on that node alone, so
    each window reads the bits a pass of its own would give.  An integral
    that is not finite raises DiagnosticsError."""
    _check_shift(gen, a)
    windows = [line_grid(W, h) for W in (X, 2 * X)]
    nodes, *at = _merge_sorted(windows[0][0], windows[1][0])
    line = gen.log_abs_G(nodes)
    shifted = line if a == 0 else gen.log_abs_G(nodes, a=a)
    table = np.empty((3, 2))
    for j, ((x, w), k) in enumerate(zip(windows, at)):
        table[0, j] = _a2_from_logs(shifted[k])
        base = 1.0 + x * x
        with np.errstate(over="ignore"):  # checked below
            table[1, j] = np.sum(w * np.exp(2.0 * line[k]) / base)
            table[2, j] = np.sum(w * np.exp(-2.0 * line[k]) / base)
    if not np.all(np.isfinite(table)):
        raise DiagnosticsError("intG integral not finite: |G| on the line is beyond the float range")
    return table
