"""Generating function G: truncated canonical products with tail accounting.

G(z) = G(0) * prod (1 - z/lambda), factors multiplied in |lambda|-ascending
order.  For the built-in lattice-type families the product over the stored
window is completed by an analytic tail: beyond the window the family
formula pairs points symmetrically, (1 - z/(c+q))(1 - z/(c-q)) =
(q^2 - (c-z)^2)/(q^2 - c^2), and the product of those pairs over a
sublattice is a ratio of Gamma functions, evaluated through log-Gamma.
Custom point lists carry an uncontrolled-tail warning instead.

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
from pwsum.spectrum import LatticeTail, Spectrum

_CHUNK = 4096
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
    """G and G' from the stored window, radius-truncated, tail-corrected.

    Standing assumption (documented, not checked numerically): the full G
    is of exponential type pi in both half-planes when the spectrum is an
    infinite lattice-type family; finite windows without a tail model are
    entire of exponential type 0, recorded in `exp_type`.
    """

    def __init__(
        self,
        spectrum: Spectrum,
        radius: float = math.inf,
        normalization: complex = 1.0 + 0j,
    ):
        if normalization == 0:
            raise GenFunError("normalization G(0) must be nonzero")
        self.spectrum = spectrum
        self.radius = float(radius)
        self.normalization = complex(normalization)
        self._tail = spectrum.lattice_tail()
        stop = int(np.searchsorted(spectrum.moduli, self.radius, side="left"))
        self._lam_in = spectrum.points[:stop]
        self._lam_out = spectrum.points[stop:]
        self.tail_warning = self._tail is None and self._lam_out.size > 0
        self.exp_type = math.pi if self._tail is not None else 0.0
        self._prime_cache: dict[int, complex] = {}
        self._grid_cache: dict[tuple, np.ndarray] = {}

    # -- internals ---------------------------------------------------------

    def _window_log(self, z: np.ndarray, lam: np.ndarray, skip: int | None = None) -> np.ndarray:
        out = np.zeros(z.shape, dtype=complex)
        if not lam.size:
            return out
        keep = np.ones(lam.size, dtype=bool)
        if skip is not None:
            keep[skip] = False
        lam_used = lam[keep]
        for i in range(0, z.size, _CHUNK):
            zc = z[i : i + _CHUNK, None]
            dist = np.abs(zc - lam_used[None, :])
            bad = dist <= _COLLISION_RTOL * np.maximum(1.0, np.abs(lam_used))[None, :]
            if np.any(bad):
                zi = np.argwhere(bad)[0][0]
                raise CollisionError(f"z={zc[zi, 0]} collides with a spectrum point")
            out[i : i + _CHUNK] = np.log(1.0 - zc / lam_used[None, :]).sum(axis=1)
        return out

    def _window_log_abs(self, x: np.ndarray, a: float, lam: np.ndarray) -> np.ndarray:
        """sum of log|1 - (x+ia)/lambda| using real arithmetic only."""
        out = np.zeros(x.shape)
        if not lam.size:
            return out
        lre, lim = lam.real, lam.imag
        l2 = lre * lre + lim * lim
        tol2 = (_COLLISION_RTOL * np.maximum(1.0, np.abs(lam))) ** 2
        for i in range(0, x.size, _CHUNK):
            xc = x[i : i + _CHUNK, None]
            d2 = (xc - lre[None, :]) ** 2 + (a - lim[None, :]) ** 2
            if np.any(d2 <= tol2[None, :]):
                raise CollisionError("line sample collides with a spectrum point")
            out[i : i + _CHUNK] = 0.5 * (np.log(d2) - np.log(l2)[None, :]).sum(axis=1)
        return out

    def _log_G(self, z: np.ndarray, skip_index: int | None = None) -> np.ndarray:
        """log of the product with the k-th linear factor optionally removed."""
        pts = self.spectrum.points
        n_in = self._lam_in.size
        skip_in = skip_index if (skip_index is not None and skip_index < n_in) else None
        skip_out = (
            skip_index - n_in if (skip_index is not None and skip_index >= n_in) else None
        )
        out = np.full(z.shape, np.log(self.normalization), dtype=complex)
        out += self._window_log(z, self._lam_in, skip_in)
        if self._tail is None:
            if skip_out is not None:
                raise GenFunError("index outside the truncated product")
            return out
        # stored points beyond the truncation radius belong to the family
        # formula; their factors are part of the tail correction
        if self._lam_out.size:
            out += self._window_log(z, self._lam_out, skip_out)
        return out + _tail_log(self._tail, z)

    # -- public API ----------------------------------------------------------

    def log_G(self, z):
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        out = self._log_G(z_arr)
        return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out

    def eval_G(self, z):
        return np.exp(self.log_G(z))

    def log_abs_G(self, x, a: float = 0.0):
        """log|G(x + i a)| on real x (vectorized, real arithmetic in the window)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(x_arr.shape, np.log(abs(self.normalization)))
        out += self._window_log_abs(x_arr, a, self._lam_in)
        if self._tail is not None:
            out += self._window_log_abs(x_arr, a, self._lam_out)
            out += _tail_log(self._tail, x_arr + 1j * a).real
        return out[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def eval_G_prime_at_lambda(self, k: int) -> complex:
        """G'(lambda_k) = normalization * (-1/lambda_k) * prod_{mu != lambda_k} (1 - lambda_k/mu)."""
        if k < 0 or k >= len(self.spectrum):
            raise GenFunError("invalid spectrum index")
        cached = self._prime_cache.get(k)
        if cached is not None:
            return cached
        lam = self.spectrum.points[k]
        if self._tail is None and k >= self._lam_in.size:
            raise GenFunError("point excluded by the truncation radius; no tail model")
        z = np.array([lam], dtype=complex)
        val = (-1.0 / lam) * np.exp(self._log_G(z, skip_index=k)[0])
        self._prime_cache[k] = complex(val)
        return complex(val)

    def prime_at_all(self) -> np.ndarray:
        return np.array([self.eval_G_prime_at_lambda(k) for k in range(len(self.spectrum))])

    def eval_G_on_grid(self, grid: GridFunction) -> np.ndarray:
        key = (grid.X, grid.h, len(grid))
        vals = self._grid_cache.get(key)
        if vals is None:
            vals = np.exp(self._log_G(grid.x.astype(complex)))
            self._grid_cache[key] = vals
        return vals

    def tail_uncertainty(self, z) -> np.ndarray:
        """Upper estimate for the relative error left by the tail handling."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if self._tail is not None:
            return self._tail.slope_slack * np.abs(z_arr)
        if not self._lam_out.size:
            return np.zeros(z_arr.shape)
        w = np.abs(z_arr[:, None] / self._lam_out[None, :])
        return (w + w**2).sum(axis=1)


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
        """omega(z) for Im z >= h, |Re z| <= X/2."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(z_arr.imag < self.grid.h * (1.0 - 1e-12)):
            raise GenFunError("eval_outer needs Im z >= one grid spacing")
        if np.any(np.abs(z_arr.real) > self.grid.X / 2.0):
            raise GenFunError("evaluation point beyond half the boundary grid")
        t = self.grid.x
        wphi = self._w * self._phit
        out = np.empty(z_arr.shape, dtype=complex)
        for i in range(0, z_arr.size, 512):
            zc = z_arr[i : i + 512]
            integ = (wphi[None, :] / (t[None, :] - zc[:, None])).sum(axis=1)
            out[i : i + 512] = integ
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

    tau is the evaluator's exponential type (pi for lattice-type tails,
    0 for finite windows).  b_plus / b_minus may be None when the matching
    half-plane holds no spectrum points (their product is then 1).
    """
    pts = np.asarray(sample_points, dtype=complex).ravel()
    if np.any(pts.imag == 0):
        raise GenFunError("sample points must avoid the real axis")
    tau = gen.exp_type
    mism = np.empty(pts.size)
    for i, z in enumerate(pts):
        lhs = abs(gen.eval_G(z))
        if z.imag > 0:
            mod = abs(outer.eval_outer(z))
            bmod = math.exp(b_plus.log_abs_B(z)) if b_plus is not None else 1.0
            rhs = mod * bmod * abs(np.exp(-1j * tau * z))
        else:
            mod = abs(outer.eval_outer(np.conj(z)))  # |omega#(z)| = |omega(conj z)|
            bmod = math.exp(b_minus.log_abs_B(z)) if b_minus is not None else 1.0
            rhs = mod * bmod * abs(np.exp(1j * tau * z))
        mism[i] = abs(lhs - rhs) / max(lhs, 1e-300)
    return FactorizationReport(points=pts, mismatches=mism)
