"""Generating function G: truncated canonical products with tail accounting.

G(z) = G(0) * prod (1 - z/lambda), factors multiplied in |lambda|-ascending
order.  For the built-in lattice-type families the product over the stored
window is completed by an analytic tail: beyond the window the family
formula pairs points symmetrically, (1 - z/(c+q))(1 - z/(c-q)) =
(q^2 - (c-z)^2)/(q^2 - c^2), and the product of those pairs over a
sublattice is a ratio of Gamma functions, evaluated through log-Gamma.
Custom point lists are taken as the whole zero set: G is the finite
product over the stored points, with no tail.

The outer factor is recovered from |G| on the line by the Schwarz-Poisson
integral; only its modulus is contractual (the unimodular constant is
never fixed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from pwsum.grids import GridFunction, grid_template, hilbert_transform
from pwsum.spectrum import LatticeTail, Spectrum, block_log_sum, block_rows

_COLLISION_RTOL = 1e-12


class GenFunError(ValueError):
    pass


class CollisionError(GenFunError):
    """Evaluation point collides with a spectrum point."""


# ---------------------------------------------------------------------------
# Analytic tail
# ---------------------------------------------------------------------------


def _tail_log(tail: LatticeTail, z: np.ndarray) -> np.ndarray:
    """log of the product of (1 - z/mu) over the family points mu beyond the window.

    Each sublattice pairs c + q_m with c - q_m, q_m = s(m + r/s), and
    prod_{m >= M} (q_m^2 - (c-z)^2)/(q_m^2 - c^2) is a ratio of Gamma
    functions (DLMF 5.8) with rho = M + r/s.
    """
    out = np.zeros(z.shape, dtype=complex)
    for sl in tail.sublattices:
        rho = sl.start + sl.offset / sl.spacing
        a, b = sl.c / sl.spacing, (sl.c - z) / sl.spacing
        out += sl.weight * (
            loggamma(rho - a) + loggamma(rho + a) - loggamma(rho - b) - loggamma(rho + b)
        )
    return out


# ---------------------------------------------------------------------------
# Generating function
# ---------------------------------------------------------------------------


class GeneratingFunctionEvaluator:
    """G and G' from the stored window, tail-corrected.

    Standing assumption (documented, not checked numerically): the full G
    is of exponential type pi in both half-planes when the spectrum is an
    infinite lattice-type family; finite windows without a tail model are
    entire of exponential type 0, recorded in `exp_type`.
    """

    def __init__(self, spectrum: Spectrum, normalization: complex = 1.0 + 0j):
        if normalization == 0:
            raise GenFunError("normalization G(0) must be nonzero")
        self.spectrum = spectrum
        self.normalization = complex(normalization)
        self._tail = spectrum.lattice_tail()
        self.exp_type = math.pi if self._tail is not None else 0.0
        self._prime = np.full(len(spectrum), np.nan, dtype=complex)  # G' memo; nan = unknown
        self._grid_cache: dict[tuple, np.ndarray] = {}

    # -- internals ---------------------------------------------------------

    # Both window kernels run over blocks of block_rows(zeros) points.
    def _window_log(self, z: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
        """sum of log(1 - z/lambda) over the stored points per point of z, one
        log per block of factors (Im modulo 2 pi).  With skip, point i leaves
        out the factor of spectrum index skip[i], through an exact factor 1."""
        lam = self.spectrum.points
        out = np.zeros(z.shape, dtype=complex)
        if not lam.size:
            return out
        lre, lim = lam.real, lam.imag
        tol2 = (_COLLISION_RTOL * np.maximum(1.0, np.abs(lam))) ** 2
        step = block_rows(lam.size)
        for i in range(0, z.size, step):
            zc = z[i : i + step, None]
            d2 = (zc.real - lre) ** 2 + (zc.imag - lim) ** 2
            bad = d2 <= tol2
            factor = zc / lam
            np.subtract(1.0, factor, out=factor)
            if skip is not None:
                rows, cols = np.arange(zc.shape[0]), skip[i : i + step]
                factor[rows, cols] = 1.0
                bad[rows, cols] = False
            if np.any(bad):
                zi = np.argwhere(bad)[0][0]
                raise CollisionError(f"z={zc[zi, 0]} collides with a spectrum point")
            out[i : i + step] = block_log_sum(factor)
        return out

    def _window_log_abs(self, x: np.ndarray, a: float) -> np.ndarray:
        """sum of log|1 - (x+ia)/lambda| over the stored points, in real arithmetic only."""
        lam = self.spectrum.points
        out = np.zeros(x.shape)
        if not lam.size:
            return out
        lre, lim = lam.real, lam.imag
        log_l2 = np.log(lre * lre + lim * lim)
        tol2 = (_COLLISION_RTOL * np.maximum(1.0, np.abs(lam))) ** 2
        step = block_rows(lam.size)
        for i in range(0, x.size, step):
            xc = x[i : i + step, None]
            d2 = (xc - lre[None, :]) ** 2 + (a - lim[None, :]) ** 2
            if np.any(d2 <= tol2[None, :]):
                raise CollisionError("line sample collides with a spectrum point")
            out[i : i + step] = 0.5 * (np.log(d2) - log_l2).sum(axis=1)
        return out

    def _log_G(self, z: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
        """log of the product; with skip, point i leaves out the linear factor
        of spectrum index skip[i]."""
        out = np.full(z.shape, np.log(self.normalization), dtype=complex)
        out += self._window_log(z, skip)
        if self._tail is None:
            return out
        return out + _tail_log(self._tail, z)

    # -- public API ----------------------------------------------------------

    def log_G(self, z):
        """A log of G(z): the window takes one log per block of LOG_BLOCK
        factors, so Im log_G is defined modulo 2 pi.  Only exp(log_G) is
        ever used (G and G')."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        out = self._log_G(z_arr)
        return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out

    def eval_G(self, z):
        return np.exp(self.log_G(z))

    def log_abs_G(self, x, a: float = 0.0):
        """log|G(x + i a)| on real x (vectorized, real arithmetic in the window)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(x_arr.shape, np.log(abs(self.normalization)))
        out += self._window_log_abs(x_arr, a)
        if self._tail is not None:
            out += _tail_log(self._tail, x_arr + 1j * a).real
        return out[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def eval_G_prime_at_lambda(self, k: int | np.ndarray) -> complex | np.ndarray:
        """G'(lambda_k) = normalization * (-1/lambda_k) * prod_{mu != lambda_k} (1 - lambda_k/mu)
        for an index k (a complex) or an index array (an array).

        Vectorized and memoized once per node: the nodes not yet known are
        computed in one blocked pass, each leaving out its own factor."""
        ks = np.asarray(k)
        if np.any((ks < 0) | (ks >= len(self.spectrum))):
            raise GenFunError("invalid spectrum index")
        todo = np.unique(ks[np.isnan(self._prime[ks])])
        if todo.size:
            lam = self.spectrum.points[todo]
            self._prime[todo] = (-1.0 / lam) * np.exp(self._log_G(lam, skip=todo))
        return complex(self._prime[ks]) if ks.ndim == 0 else self._prime[ks]

    def eval_G_on_grid(self, grid: GridFunction) -> np.ndarray:
        key = (grid.X, grid.h, len(grid))
        vals = self._grid_cache.get(key)
        if vals is None:
            vals = np.exp(self._log_G(grid.x.astype(complex)))
            self._grid_cache[key] = vals
        return vals

    def tail_uncertainty(self, z) -> np.ndarray:
        """Upper estimate for the relative error left by the tail model:
        slope_slack |z|, and 0 without one."""
        slack = self._tail.slope_slack if self._tail is not None else 0.0
        return slack * np.abs(np.atleast_1d(np.asarray(z, dtype=complex)))


# ---------------------------------------------------------------------------
# Outer factor
# ---------------------------------------------------------------------------


class OuterEvaluator:
    """Outer function of the upper half-plane recovered from log|G| on R.

    omega(z) = exp( (1/(i pi)) int [1/(t-z) - t/(1+t^2)] log|G(t)| dt ),
    up to a unimodular constant; only |omega| is contractual.  The mean of
    the boundary data over the window is handled analytically (the Schwarz
    integral of a constant is that constant), which kills the dominant
    finite-window truncation error; the oscillating remainder is integrated
    by the trapezoid rule (interior points) or by the discrete Hilbert
    transform (boundary values).
    """

    def __init__(self, boundary_log_modulus: GridFunction):
        g = boundary_log_modulus
        if np.any(~np.isfinite(g.values.real)):
            raise GenFunError("boundary log-modulus has non-finite samples")
        self.grid = g
        phi = g.values.real.astype(float)
        w = g.trapezoid_weights()
        self.mean = float((w * phi).sum() / (2.0 * g.X))
        self._phit = phi - self.mean
        x = g.x
        self._kappa = float((w * (x * self._phit / (1.0 + x * x))).sum() / np.pi)
        self._w = w
        self._boundary: np.ndarray | None = None

    @classmethod
    def from_generating(cls, gen: GeneratingFunctionEvaluator, X: float = 200.0, h: float = 0.01):
        grid = grid_template(X, h)
        vals = gen.log_abs_G(grid.x)
        return cls(grid.copy_with(vals.astype(complex)))

    @property
    def halfwidth(self) -> float:
        return self.grid.X

    @property
    def spacing(self) -> float:
        return self.grid.h

    def eval_outer(self, z):
        """omega(z) for Im z >= h, |Re z| <= X/2 (blocks of block_rows(nodes) points)."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(z_arr.imag < self.grid.h * (1.0 - 1e-12)):
            raise GenFunError("eval_outer needs Im z >= one grid spacing")
        if np.any(np.abs(z_arr.real) > self.grid.X / 2.0):
            raise GenFunError("evaluation point beyond half the boundary grid")
        t = self.grid.x
        wphi = self._w * self._phit
        out = np.empty(z_arr.shape, dtype=complex)
        step = block_rows(t.size)
        for i in range(0, z_arr.size, step):
            zc = z_arr[i : i + step]
            out[i : i + step] = (wphi[None, :] / (t[None, :] - zc[:, None])).sum(axis=1)
        log_omega = self.mean + out / (1j * np.pi) + 1j * self._kappa
        res = np.exp(log_omega)
        return res[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else res

    def boundary_values(self) -> np.ndarray:
        """omega on the grid nodes themselves (boundary limit from above)."""
        if self._boundary is None:
            H = hilbert_transform(self.grid.copy_with(self._phit.astype(complex)), tail_fit=False)
            log_omega = self.mean + self._phit + 1j * (H.values.real + self._kappa)
            self._boundary = np.exp(log_omega)
        return self._boundary

    def boundary_on(self, grid: GridFunction) -> np.ndarray:
        """Boundary values restricted to an aligned sub-grid."""
        if abs(grid.h - self.grid.h) > 1e-12:
            raise GenFunError("sub-grid spacing must match the boundary grid")
        off = (self.grid.X - grid.X) / self.grid.h
        if off < -1e-9 or abs(off - round(off)) > 1e-6:
            raise GenFunError("sub-grid is not aligned with the boundary grid")
        j0 = int(round(off))
        return self.boundary_values()[j0 : j0 + len(grid)]


# ---------------------------------------------------------------------------
# Factorization cross-check
# ---------------------------------------------------------------------------


@dataclass
class FactorizationReport:
    points: np.ndarray
    mismatches: np.ndarray

    @property
    def max_mismatch(self) -> float:
        return float(np.max(self.mismatches)) if self.mismatches.size else 0.0


def check_factorization(
    gen: GeneratingFunctionEvaluator,
    outer: OuterEvaluator,
    b_plus,
    b_minus,
    sample_points,
) -> FactorizationReport:
    """Compare |G| against |omega B+ e^{-i tau z}| (upper) and
    |omega# B- e^{+i tau z}| (lower) at the sample points.

    b_plus and b_minus are the evaluators of upper_lower_evaluators: Lambda+
    and the mirror conj(Lambda-), or None when that half-plane holds no
    spectrum points (their product is then 1).  A lower z is read through
    w = conj z: |omega#(z)| = |omega(w)|, |B-(z)| = |B_mirror(w)| and
    |e^{i tau z}| = |e^{-i tau w}|.  tau is the evaluator's exponential type
    (pi for lattice-type tails, 0 for finite windows).
    """
    pts = np.asarray(sample_points, dtype=complex).ravel()
    if np.any(pts.imag == 0):
        raise GenFunError("sample points must avoid the real axis")
    tau = gen.exp_type
    mism = np.empty(pts.size)
    for i, z in enumerate(pts):
        lhs = abs(gen.eval_G(z))
        b, w = (b_plus, z) if z.imag > 0 else (b_minus, np.conj(z))
        bmod = math.exp(b.log_abs_B(w)) if b is not None else 1.0
        rhs = abs(outer.eval_outer(w)) * bmod * abs(np.exp(-1j * tau * w))
        mism[i] = abs(lhs - rhs) / max(lhs, 1e-300)
    return FactorizationReport(points=pts, mismatches=mism)
