"""Numerical estimates for the conditions governing the summation methods:
the Muckenhoupt product over dyadic intervals, the Carleson separation sup,
and the two line integrability checks.

A diagnosis of the line is its table: line_diagnostics returns the (3, 2)
array of the A2 scan and the two integrals (rows) on the windows [-X, X]
and [-2X, 2X] (columns), from one log|G| pass per line height, and the
caller forms the 2X/X trends from its two columns.  The A2 scan is a lower
bound only (dyadic intervals, finite window); the artifact reports values
and trends, never membership claims.
"""

from __future__ import annotations

import math

import numpy as np

from pwsum.grids import line_grid
from pwsum.spectrum import inverse_square_sums, unique_sorted


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


def carleson_sup(s) -> float:
    """sup over lambda of sum_{mu != lambda} (1+|Im lambda|)(1+|Im mu|)/|lambda-mu|^2.

    Exact over the stored window; for the built-in lattice-type families a
    trigamma tail adds the contribution of the family points beyond the
    window, scaled by the tail's site density.  The pair sums run in real
    arithmetic.  A sum that is not finite (a point whose real part is a tail
    site, a pole of the trigamma) raises DiagnosticsError.
    """
    pts = s.points
    if not pts.size:
        return 0.0
    w = 1.0 + np.abs(pts.imag)
    sums = inverse_square_sums(pts, pts, w, skip=np.arange(pts.size))
    sums *= w  # w_lambda sum_mu w_mu/|lambda - mu|^2
    tail = s.tail
    if tail is not None:
        # tail sites sit near +-m + i*delta, m >= first_site; trigamma sums
        # the inverse-square distances along the real direction
        wt = w * (1.0 + tail.delta)
        psi1 = _trigamma(tail.first_site - pts.real) + _trigamma(tail.first_site + pts.real)
        sums += tail.density * wt * psi1
    if not np.all(np.isfinite(sums)):
        raise DiagnosticsError("Carleson sum not finite: a point's real part is a site of the lattice tail")
    return float(np.max(sums))


def line_diagnostics(gen, X: float, h: float, a: float = 0.0) -> np.ndarray:
    """The (3, 2) table of the line: rows the A2 scan on the line at height
    a, int |G|^2/(1+x^2) and int |G|^-2/(1+x^2) on the real line; columns
    the windows [-X, X] and [-2X, 2X].

    A window [-W, W] has the nodes and trapezoid weights of
    line_grid(W, h).  One log|G| pass per line height, over the union of
    both windows' nodes: each node's value depends on that node alone, so
    each window reads the bits a pass of its own would give.  An integral
    that is not finite raises DiagnosticsError."""
    _check_shift(gen, a)
    windows = [line_grid(W, h) for W in (X, 2 * X)]
    nodes = unique_sorted(np.concatenate([x for x, _ in windows]))
    line = gen.log_abs_G(nodes)
    shifted = line if a == 0 else gen.log_abs_G(nodes, a=a)
    table = np.empty((3, 2))
    for j, (x, w) in enumerate(windows):
        k = np.searchsorted(nodes, x)
        table[0, j] = _a2_from_logs(shifted[k])
        base = 1.0 + x * x
        with np.errstate(over="ignore"):  # checked below
            table[1, j] = np.sum(w * np.exp(2.0 * line[k]) / base)
            table[2, j] = np.sum(w * np.exp(-2.0 * line[k]) / base)
    if not np.all(np.isfinite(table)):
        raise DiagnosticsError("intG integral not finite: |G| on the line is beyond the float range")
    return table
