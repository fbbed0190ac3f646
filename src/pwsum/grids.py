"""The real-line grid and the transforms acting on samples on it.

Everything measured on the line (L2 errors, norm probes, Riesz projections,
outer-function phases, the A2 scan and the integrability checks) is a sum
over the nodes of one rule, line_grid(X, h): m + 1 exactly symmetric nodes
of [-X, X], m = round(2X/h), with the trapezoid weights of their spacing.
Samples are plain arrays on those nodes; the transforms take them with the
window's (X, h).
"""

from __future__ import annotations

import math

import numpy as np


class GridError(ValueError):
    """Grid construction or alignment failure."""


def line_grid(X: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(x, w): the nodes x_k = (2X/m)(k - m/2), k = 0..m, of [-X, X], with
    m = round(2X/h) at least 1, and their trapezoid weights, 2X/m halved at
    both ends.  The nodes are exactly symmetric about 0, and at even m the
    nodes of [-X, X] are nodes of [-2X, 2X], bit for bit.  X and h must be
    finite and positive."""
    if not (math.isfinite(X) and math.isfinite(h) and X > 0 and h > 0):
        raise GridError("X and h must be finite and positive")
    m = max(1, round(2 * X / h))
    step = 2 * X / m
    w = np.full(m + 1, step)
    w[0] = w[-1] = step / 2
    return step * (np.arange(m + 1) - m / 2), w


def sample_count(X: float, h: float) -> int:
    """Node count 2X/h + 1 of line_grid(X, h) where 2X/h is an integer, the
    rule of a config's grid keys; X and h must be finite and positive."""
    if not (math.isfinite(X) and math.isfinite(h) and X > 0 and h > 0):
        raise GridError("X and h must be finite and positive")
    m = 2.0 * X / h
    if not math.isfinite(m) or abs(m - round(m)) > 1e-8:
        raise GridError("2X/h must be an integer sample count")
    return int(round(m)) + 1


# ---------------------------------------------------------------------------
# Discrete Hilbert transform
#
# Hf(x) = (1/pi) p.v. integral f(t)/(x-t) dt is discretized with the
# odd-offset midpoint kernel Hf(x_j) ~ (2/pi) sum_{m odd} f(x_{j-m})/m.
# The symbol of this kernel is exactly -i*sgn(xi) for |xi| < pi/h, so the
# scheme is exact on band-limited data up to Nyquist; the remaining error
# is the part of the integral beyond the grid, which an optional rational
# tail model a/t + b/t^2 (fitted on the outer samples) supplies in closed
# form.
# ---------------------------------------------------------------------------

def _hilbert_kernel(n: int) -> np.ndarray:
    m = np.arange(-(n - 1), n, dtype=float)
    k = np.zeros(2 * n - 1)
    odd = (np.abs(m).astype(int) % 2) == 1
    k[odd] = 2.0 / (np.pi * m[odd])
    return k


def _tail_kernel_one_over_t(x: np.ndarray, Xe: float) -> np.ndarray:
    # p.v. integral of (1/t)/(x-t) over |t| > Xe, both sides combined
    u = x / Xe
    small = np.abs(u) < 1e-4
    out = np.empty_like(x, dtype=float)
    us = u[small]
    out[small] = (-2.0 / Xe) * (1.0 + us**2 / 3.0 + us**4 / 5.0)
    ub = u[~small]
    out[~small] = (np.log1p(-ub) - np.log1p(ub)) / x[~small]
    return out


def _tail_kernel_one_over_t2(x: np.ndarray, Xe: float) -> np.ndarray:
    # same for (1/t^2)/(x-t)
    u = x / Xe
    small = np.abs(u) < 1e-4
    out = np.empty_like(x, dtype=float)
    xs = x[small]
    us = u[small]
    out[small] = (-2.0 * xs / (3.0 * Xe**3)) * (1.0 + 3.0 * us**2 / 5.0)
    xb = x[~small]
    ub = u[~small]
    out[~small] = (np.log1p(-ub) - np.log1p(ub)) / xb**2 + 2.0 / (xb * Xe)
    return out


def fit_rational_tail(values: np.ndarray, X: float, h: float) -> tuple[complex, complex]:
    """Least-squares (a, b) with f(t) ~ a/t + b/t^2 on the outer 15% of the
    samples of f on line_grid(X, h)."""
    x, _ = line_grid(X, h)
    mask = np.abs(x) >= 0.85 * X
    t = x[mask]
    if t.size < 8:
        return 0j, 0j
    A = np.column_stack([1.0 / t, 1.0 / t**2]).astype(complex)
    coef, *_ = np.linalg.lstsq(A, values[mask], rcond=None)
    return complex(coef[0]), complex(coef[1])


def _fast_len(n: int) -> int:
    """The smallest 5-smooth length 2^a 3^b 5^c >= n, a fast numpy.fft size."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that is >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def hilbert_transform(values: np.ndarray, X: float, h: float, tail_fit: bool = True) -> np.ndarray:
    """The discrete Hilbert transform of the samples of f on line_grid(X, h),
    at the same nodes; with tail_fit, plus the rational tail model's part
    beyond the grid."""
    x, _ = line_grid(X, h)
    if values.shape != x.shape:
        raise GridError(f"expected {x.size} samples for X={X}, h={h}, got {values.size}")
    n = values.size
    kern = _hilbert_kernel(n)
    # linear convolution with the kernel, zero-padded to a fast FFT length
    m = _fast_len(n + kern.size - 1)
    out = np.fft.ifft(np.fft.fft(values, m) * np.fft.fft(kern, m))[n - 1 : 2 * n - 1].copy()
    if tail_fit:
        a, b = fit_rational_tail(values, X, h)
        if a != 0 or b != 0:
            Xe = X + h / 2.0
            out += (a * _tail_kernel_one_over_t(x, Xe) + b * _tail_kernel_one_over_t2(x, Xe)) / np.pi
    return out
