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

from pwsum.spectrum import block_rows


class DiagnosticsError(ValueError):
    pass


def _line_samples(gen, X: float, h: float, a: float) -> tuple[np.ndarray, np.ndarray]:
    n = int(round(2 * X / h)) + 1
    x = np.linspace(-X, X, n)
    logs = gen.log_abs_G(x, a=a)
    return x, logs


def _check_shift(gen, a: float) -> None:
    if len(gen.spectrum) and np.min(np.abs(gen.spectrum.points.imag - a)) < 1e-9:
        raise DiagnosticsError("shift a hits a spectrum height; |G| vanishes on the line")


def a2_estimate(gen, X: float, a: float = 0.0, h: float = 0.01) -> float:
    """max over dyadic subintervals of [-X, X] of avg|G(x+ia)|^2 * avg|G(x+ia)|^-2.

    Lower bound for the Muckenhoupt supremum; >= 1 by Cauchy-Schwarz.
    Interval lengths are 2^j h for j >= 2 at aligned offsets.
    """
    _check_shift(gen, a)
    return _a2_from_logs(_line_samples(gen, X, h, a)[1])


def _a2_from_logs(logs: np.ndarray) -> float:
    """a2_estimate from the samples log|G(x+ia)| on the window's nodes."""
    u = np.exp(2.0 * logs)
    v = np.exp(-2.0 * logs)
    cu = np.concatenate([[0.0], np.cumsum(u)])
    cv = np.concatenate([[0.0], np.cumsum(v)])

    def avgs(c, f, j0, m):
        # trapezoid means over samples j0..j0+m, vectorized over offsets
        total = c[j0 + m + 1] - c[j0] - 0.5 * (f[j0] + f[j0 + m])
        return total / m

    n = u.size
    best = 1.0
    m = 4
    while m < n:
        j0 = np.arange(0, n - m, m)
        prods = avgs(cu, u, j0, m) * avgs(cv, v, j0, m)
        best = max(best, float(np.max(prods)))
        m *= 2
    # the full window as one interval
    j0 = np.array([0])
    p = float((avgs(cu, u, j0, n - 1) * avgs(cv, v, j0, n - 1))[0])
    return float(max(best, p))


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
    window, scaled by the tail's site density.  The pair sums run over
    blocks of block_rows(points) rows.
    """
    pts = s.points
    if pts.size < 2:
        return 0.0
    w = 1.0 + np.abs(pts.imag)
    sums = np.zeros(pts.size)
    step = block_rows(pts.size)
    for i in range(0, pts.size, step):
        blk = pts[i : i + step, None] - pts[None, :]
        d2 = np.abs(blk) ** 2
        np.fill_diagonal(d2[:, i : i + step], np.inf)
        sums[i : i + step] = ((w[i : i + step, None] * w[None, :]) / d2).sum(axis=1)
    tail = s.lattice_tail()
    if tail is not None:
        # tail sites sit near +-m + i*delta, m >= first_site; trigamma sums
        # the inverse-square distances along the real direction
        re = pts.real
        wt = (1.0 + np.abs(pts.imag)) * (1.0 + tail.delta)
        psi1 = _trigamma(tail.first_site - re) + _trigamma(tail.first_site + re)
        sums += tail.density * wt * psi1
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

    @property
    def pos_divergent(self) -> bool:
        return self.pos_trend > 1.5

    @property
    def neg_divergent(self) -> bool:
        return self.neg_trend > 1.5


def intG_check(gen, X: float, h: float = 0.01) -> IntegrabilityReport:
    """Trapezoid values of int |G|^2/(1+x^2) and int |G|^-2/(1+x^2) on
    [-X, X] and [-2X, 2X]; the 2X/X ratio reports the growth trend."""
    return _intG_from_samples(h, _line_samples(gen, X, h, 0.0), _line_samples(gen, 2 * X, h, 0.0))


def _intG_from_samples(h: float, window_X, window_2X) -> IntegrabilityReport:
    """intG_check from the (x, log|G(x)|) samples on [-X, X] and [-2X, 2X]."""
    vals = []
    for x, logs in (window_X, window_2X):
        wts = np.full(x.size, h)
        wts[0] = wts[-1] = h / 2
        base = 1.0 + x * x
        vals.append(float(np.sum(wts * np.exp(2.0 * logs) / base)))
        vals.append(float(np.sum(wts * np.exp(-2.0 * logs) / base)))
    return IntegrabilityReport(*vals)


def line_diagnostics(gen, X: float, h: float, a: float = 0.0) -> tuple[float, float, IntegrabilityReport]:
    """(a2_estimate on [-X, X], a2_estimate on [-2X, 2X], intG_check(gen, X, h)),
    bit-identical to the three calls, from one log|G| pass per window; the
    A2 scan takes one more pass per window at a shift a != 0."""
    _check_shift(gen, a)
    line = [_line_samples(gen, Xw, h, 0.0) for Xw in (X, 2 * X)]
    shifted = line if a == 0 else [_line_samples(gen, Xw, h, a) for Xw in (X, 2 * X)]
    v1, v2 = (_a2_from_logs(logs) for _, logs in shifted)
    return v1, v2, _intG_from_samples(h, *line)


def save_report_csv(rows, path) -> None:
    """rows: iterable of (condition, window_X, value, trend_ratio)."""
    with open(path, "w") as fh:
        fh.write("condition,window_X,value,trend_ratio\n")
        for cond, X, val, trend in rows:
            fh.write(f"{cond},{X:.12e},{val:.12e},{trend:.12e}\n")
