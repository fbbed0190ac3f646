"""Uniformly sampled real-line functions and the transforms acting on them.

Everything downstream (norms, Riesz projections, outer-function phases)
runs on these grids, so the conventions are pinned here once: nodes are
x_j = -X + j*h with (2X/h) integral, norms are trapezoid sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Grid construction or alignment failure."""


@dataclass
class GridFunction:
    """Samples of a complex function at x_j = -X + j*h, j = 0..2X/h."""

    X: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        n = sample_count(self.X, self.h)
        vals = np.asarray(self.values, dtype=complex).ravel()
        if vals.size != n:
            raise GridError(f"expected {n} samples for X={self.X}, h={self.h}, got {vals.size}")
        self.values = vals

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.X, self.X, len(self))

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(len(self), self.h)
        w[0] = w[-1] = self.h / 2.0
        return w

    def norm(self) -> float:
        """Trapezoid-rule L2 norm over [-X, X]."""
        return float(np.sqrt(np.sum(self.trapezoid_weights() * np.abs(self.values) ** 2)))

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            abs(self.X - other.X) < 1e-12
            and abs(self.h - other.h) < 1e-12
            and len(self) == len(other)
        )

    def copy_with(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.X, self.h, values)


def sample_count(X: float, h: float) -> int:
    """Node count 2X/h + 1 of the grid on [-X, X] with spacing h; X and h
    must be finite and positive, 2X/h an integer."""
    if not (math.isfinite(X) and math.isfinite(h) and X > 0 and h > 0):
        raise GridError("X and h must be finite and positive")
    m = 2.0 * X / h
    if not math.isfinite(m) or abs(m - round(m)) > 1e-8:
        raise GridError("2X/h must be an integer sample count")
    return int(round(m)) + 1


def grid_template(X: float, h: float) -> GridFunction:
    return GridFunction(X, h, np.zeros(sample_count(X, h), dtype=complex))


def sample_on_grid(fn, X: float, h: float) -> GridFunction:
    g = grid_template(X, h)
    return g.copy_with(np.asarray(fn(g.x), dtype=complex))


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


def fit_rational_tail(g: GridFunction) -> tuple[complex, complex]:
    """Least-squares (a, b) with f(t) ~ a/t + b/t^2 on the outer 15% of the samples."""
    x = g.x
    mask = np.abs(x) >= 0.85 * g.X
    t = x[mask]
    if t.size < 8:
        return 0j, 0j
    A = np.column_stack([1.0 / t, 1.0 / t**2]).astype(complex)
    coef, *_ = np.linalg.lstsq(A, g.values[mask], rcond=None)
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


def hilbert_transform(g: GridFunction, tail_fit: bool = True) -> GridFunction:
    n = len(g)
    kern = _hilbert_kernel(n)
    # linear convolution with the kernel, zero-padded to a fast FFT length
    m = _fast_len(n + kern.size - 1)
    out = np.fft.ifft(np.fft.fft(g.values, m) * np.fft.fft(kern, m))[n - 1 : 2 * n - 1].copy()
    if tail_fit:
        a, b = fit_rational_tail(g)
        if a != 0 or b != 0:
            Xe = g.X + g.h / 2.0
            x = g.x
            out += (a * _tail_kernel_one_over_t(x, Xe) + b * _tail_kernel_one_over_t2(x, Xe)) / np.pi
    return g.copy_with(out)

