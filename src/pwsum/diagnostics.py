"""Numerical estimates for the conditions governing the summation methods:
the Muckenhoupt product over dyadic intervals, the Carleson separation sup,
and the two line integrability checks.

The A2 scan is a lower bound only (dyadic intervals, finite window); the
artifact reports values and trends, never membership claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pwsum.spectrum import inverse_square_sums


class DiagnosticsError(ValueError):
    pass


@dataclass
class _Window:
    """log|G(x + ia)| on the nodes x of one window, spaced `step` apart."""

    step: float
    x: np.ndarray
    logs: np.ndarray


def _intervals(X: float, h: float) -> int:
    """m = round(2X/h), at least 1: the intervals of the window [-X, X]."""
    return max(1, round(2 * X / h))


def _line_window(gen, X: float, h: float, a: float) -> _Window:
    """The window [-X, X] on the nodes (2X/m)(k - m/2), k = 0..m, which are
    exactly symmetric about 0."""
    m = _intervals(X, h)
    step = 2 * X / m
    x = step * (np.arange(m + 1) - m / 2)
    return _Window(step, x, gen.log_abs_G(x, a=a))


def _line_samples(gen, X: float, h: float, a: float) -> tuple[_Window, _Window]:
    """The windows [-X, X] and [-2X, 2X] of the line at height a.

    When m = _intervals(X, h) is even and _intervals(2X, h) = 2m, both
    windows have the spacing 2X/m bit for bit, and the X nodes are the
    middle m + 1 nodes of the 2X window: then one pass over the 2X window
    gives both, and the slice is the very array a pass over the X window
    would give.  Otherwise each window takes its own pass."""
    m = _intervals(X, h)
    wide = _line_window(gen, 2 * X, h, a)
    if m % 2 or _intervals(2 * X, h) != 2 * m:
        return _line_window(gen, X, h, a), wide
    mid = slice(m // 2, m // 2 + m + 1)
    return _Window(wide.step, wide.x[mid], wide.logs[mid]), wide


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


@dataclass
class IntegrabilityReport:
    pos_integral: float
    neg_integral: float
    pos_integral_2X: float
    neg_integral_2X: float

    @property
    def pos_trend(self) -> float:
        return self.pos_integral_2X / self.pos_integral if self.pos_integral else np.inf

    @property
    def neg_trend(self) -> float:
        return self.neg_integral_2X / self.neg_integral if self.neg_integral else np.inf


def _intG_from_samples(*windows: _Window) -> IntegrabilityReport:
    """Trapezoid values of int |G|^2/(1+x^2) and int |G|^-2/(1+x^2) on the
    windows [-X, X] and [-2X, 2X] of the real line, each weighted by its own
    node spacing; the 2X/X ratio reports the growth trend.  An integral that
    is not finite raises DiagnosticsError."""
    vals = []
    for w in windows:
        wts = np.full(w.x.size, w.step)
        wts[0] = wts[-1] = w.step / 2
        base = 1.0 + w.x * w.x
        with np.errstate(over="ignore"):  # checked below
            vals.append(float(np.sum(wts * np.exp(2.0 * w.logs) / base)))
            vals.append(float(np.sum(wts * np.exp(-2.0 * w.logs) / base)))
    if not np.all(np.isfinite(vals)):
        raise DiagnosticsError("intG integral not finite: |G| on the line is beyond the float range")
    return IntegrabilityReport(*vals)


def line_diagnostics(gen, X: float, h: float, a: float = 0.0) -> tuple[float, float, IntegrabilityReport]:
    """(the A2 scan of [-X, X], the A2 scan of [-2X, 2X], the intG integrals),
    the scans on the line at height a and the integrals on the real line,
    bit-identical to one log|G| pass per window, from _line_samples: one
    pass over [-2X, 2X] when the X nodes are its middle nodes, and one more
    over [-X, X] otherwise; the A2 scan takes as many again at a shift
    a != 0."""
    _check_shift(gen, a)
    line = _line_samples(gen, X, h, 0.0)
    shifted = line if a == 0 else _line_samples(gen, X, h, a)
    v1, v2 = (_a2_from_logs(w.logs) for w in shifted)
    return v1, v2, _intG_from_samples(*line)

