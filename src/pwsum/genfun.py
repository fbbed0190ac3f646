"""Generating function G: truncated canonical products with tail accounting.

G(z) = prod (1 - z/lambda), so G(0) = 1, factors multiplied in
|lambda|-ascending order.  For the built-in lattice-type families the
product over the stored window is completed by an analytic tail: beyond
the window the family formula pairs points symmetrically,
(1 - z/(c+q))(1 - z/(c-q)) = (q^2 - (c-z)^2)/(q^2 - c^2), and the product
of those pairs over a sublattice is a ratio of Gamma functions, evaluated
through log-Gamma.  Custom point lists are taken as the whole zero set: G
is the finite product over the stored points, with no tail.  The window's
product takes the near and far field of spectrum's line kernels at real
points (log|G| on any line, and G on the real line with the Cauchy sums
of the same walk, as on converge's grid) and the block log-product at
every other point.  G' at every node leaves out each node's own factor: a
window on one height (Spectrum.height) takes the real kernel
one_height_self_logs, any other the block log-product with a skip.  The
Blaschke quantities (B, B', beta, log|B|) are not here: one real kernel,
spectrum.blaschke_logs, serves them for every zero set.

The outer factor is recovered from log|G| at the nodes of
grids.line_grid(X, h) by the Schwarz-Poisson integral; only its modulus is
contractual (the unimodular constant is never fixed).
"""

from __future__ import annotations

import math

import numpy as np

from pwsum.grids import hilbert_transform, line_grid
from pwsum.spectrum import (
    LatticeTail,
    Spectrum,
    cauchy_sums,
    line_log_abs,
    line_log_products,
    log_products,
    one_height_self_logs,
    one_height_touching,
    real_cauchy_sums,
    touching,
)


class GenFunError(ValueError):
    pass


class CollisionError(GenFunError):
    """Evaluation point collides with a spectrum point."""


# ---------------------------------------------------------------------------
# Analytic tail
# ---------------------------------------------------------------------------


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_STIRLING_MIN = 12  # the series is used at Re w >= 12, where its terms are below 1e-18
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_sin_pi(v: np.ndarray) -> np.ndarray:
    """log sin(pi v), Im modulo 2 pi, without overflow at large |Im v|.

    With v = n + f + iy, n an integer and |f| <= 1/2 (exact),
    sin(pi v) = (-1)^n sin(pi u), u = f + i|y| (conjugated back for y < 0), and
    sin(pi u) = (i/2) e^{-i pi u} (1 - e^{2 i pi u}), where
    1 - e^{2 i pi u} = 2 sin^2(pi f) - expm1(-2 pi y) cos(2 pi f) - i e^{-2 pi y} sin(2 pi f)
    keeps its digits next to a zero of sin."""
    n = np.round(v.real)
    f, y = v.real - n, np.abs(v.imag)
    s = np.sin(np.pi * f)
    one_minus = (2.0 * s * s - np.expm1(-2.0 * np.pi * y) * np.cos(2.0 * np.pi * f)) - 1j * (
        np.exp(-2.0 * np.pi * y) * np.sin(2.0 * np.pi * f)
    )
    with np.errstate(divide="ignore"):  # a zero of sin: log 0 = -inf
        out = np.log(one_minus)
    out += np.pi * y - math.log(2.0) + 1j * (0.5 * np.pi - np.pi * f)
    np.conjugate(out, out=out, where=v.imag < 0)
    out += 1j * np.pi * n
    return out


def _log_rgamma(w: np.ndarray) -> np.ndarray:
    """log(1/Gamma(w)), Im modulo 2 pi.  1/Gamma is entire: at a pole of
    Gamma (w = 0, -1, -2, ...) the real part is -inf.

    Reflection 1/Gamma(w) = Gamma(1 - w) sin(pi w)/pi (DLMF 5.5.3) below
    Re w = 1/2; then Gamma(w + 12) = w (w + 1) ... (w + 11) Gamma(w)
    (DLMF 5.5.1) up to Re w >= 12, for the points below it only; then the
    Stirling series (DLMF 5.11.1), by Horner.  The complex products are
    formed out of place: numpy multiplies one element in place without the
    fused (FMA) loop of longer arrays, and a point alone must round as in a
    batch."""
    w = np.array(w, dtype=complex, ndmin=1)  # a copy: moved in place below
    refl = w.real < 0.5
    if np.any(refl):
        v = w[refl]
        head = _log_sin_pi(v) - math.log(math.pi)
        w[refl] = 1.0 - v
    low = w.real < _STIRLING_MIN
    if np.any(low):
        prod, t = w[low], w[low]
        for _ in range(_STIRLING_MIN - 1):
            t += 1.0
            prod = prod * t
        t += 1.0
        w[low] = t
    # lg = log Gamma(w) = (w - 1/2)(log w - 1) - 1/2 + log(2 pi)/2 + sum_k c_k w^(1 - 2k)
    buf = np.divide(1.0, w)
    buf = buf * buf
    lg = np.full(w.shape, _STIRLING[-1], dtype=complex)
    for c in _STIRLING[-2::-1]:
        lg = lg * buf
        lg += c
    lg /= w
    np.log(w, out=buf)
    buf -= 1.0
    w -= 0.5
    buf = buf * w
    lg += buf
    lg += _HALF_LOG_2PI - 0.5
    if np.any(low):
        lg[low] -= np.log(prod)  # log Gamma(w) = log Gamma(w + 12) - log prod
    # log 1/Gamma(w) = -log Gamma(w), or, reflected, head + log Gamma(1 - w)
    np.negative(lg, out=lg)
    if np.any(refl):
        lg[refl] = head - lg[refl]
    return lg


def _tail_log(tail: LatticeTail, z: np.ndarray) -> np.ndarray:
    """log of the product of (1 - z/mu) over the family points mu beyond the window.

    Each sublattice pairs c + q_m with c - q_m, q_m = s(m + r/s), and
    prod_{m >= M} (q_m^2 - (c-z)^2)/(q_m^2 - c^2) is a ratio of Gamma
    functions (DLMF 5.8) with rho = M + r/s:
    Gamma(rho - a) Gamma(rho + a) / (Gamma(rho - b) Gamma(rho + b)), a = c/s,
    b = (c - z)/s.  In 1/Gamma, which is entire, a family point z gives -inf.
    """
    out = np.zeros(z.shape, dtype=complex)
    for sl in tail.sublattices:
        rho = sl.start + sl.offset / sl.spacing
        a, b = sl.c / sl.spacing, (sl.c - z) / sl.spacing
        lg = _log_rgamma(rho - b)
        lg += _log_rgamma(rho + b)
        lg -= _log_rgamma(np.array([rho - a, rho + a])).sum()
        for _ in range(sl.weight):  # each point counted weight times
            out += lg
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

    def __init__(self, spectrum: Spectrum):
        self.spectrum = spectrum
        self.exp_type = math.pi if spectrum.tail is not None else 0.0
        self._prime = None  # G' at every node, from the first eval_G_prime_at_lambda call

    # -- public API ----------------------------------------------------------

    def log_G(self, z: np.ndarray) -> np.ndarray:
        """A log of G(z), Im defined modulo 2 pi: only exp(log_G) is ever used.
        log_G_sums with no Cauchy column."""
        return self.log_G_sums(z, np.zeros((len(self.spectrum), 0)))[0]

    def log_G_sums(self, z: np.ndarray, A: np.ndarray) -> tuple:
        """(log_G(z), the (z.size, S) Cauchy sums sum_k A[k, s]/(z_i - lambda_k)
        of the (points x S) matrix A), in one pass: a real point takes both
        from one walk of the line kernels (line_log_products), any other
        point the block log-product log_products and cauchy_sums.  The rule
        is per point, so a point's log G does not depend on the other points
        of the call.  Raises CollisionError at a spectrum point (touching)."""
        lam = self.spectrum.points
        hit = touching(z, lam)
        if np.any(hit):
            raise CollisionError(f"z={z[np.argmax(hit)]} collides with a spectrum point")
        out = np.empty(z.shape, dtype=complex)
        sums = np.empty((z.size, A.shape[1]), dtype=complex)
        real = z.imag == 0
        out[real], sums[real] = line_log_products(z.real[real], lam, A)
        out[~real] = log_products(z[~real], lam)
        if A.shape[1]:  # no column, no pair
            sums[~real] = cauchy_sums(z[~real], lam, A)
        return self._completed(out, z), sums

    def _completed(self, out: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The window's log-product at z, with the tail added."""
        if self.spectrum.tail is None:
            return out
        return out + _tail_log(self.spectrum.tail, z)

    def eval_G(self, z: np.ndarray) -> np.ndarray:
        return np.exp(self.log_G(z))

    def log_abs_G(self, x: np.ndarray, a: float = 0.0) -> np.ndarray:
        """log|G(x + i a)| on real x: the window by the panel kernel
        line_log_abs, in real arithmetic."""
        z = x + 1j * a
        if np.any(touching(z, self.spectrum.points)):
            raise CollisionError("line sample collides with a spectrum point")
        out = line_log_abs(x, a, self.spectrum.points)
        if self.spectrum.tail is not None:
            out += _tail_log(self.spectrum.tail, z).real
        return out

    def eval_G_prime_at_lambda(self, k: np.ndarray) -> np.ndarray:
        """G'(lambda_k) = (-1/lambda_k) * prod_{mu != lambda_k} (1 - lambda_k/mu)
        for an index array k.

        The first call computes every node in one blocked pass, each leaving
        out its own factor, and keeps the array: one_height_self_logs on a
        window on one height, log_products with a skip on any other."""
        if np.any((k < 0) | (k >= len(self.spectrum))):
            raise GenFunError("invalid spectrum index")
        if self._prime is None:
            lam, own, height = self.spectrum.points, np.arange(len(self.spectrum)), self.spectrum.height
            hit = touching(lam, lam, own) if height is None else one_height_touching(lam)
            if np.any(hit):
                raise CollisionError(f"spectrum point {lam[np.argmax(hit)]} collides with another")
            out = log_products(lam, lam, skip=own) if height is None else one_height_self_logs(lam.real, height, own)
            self._prime = (-1.0 / lam) * np.exp(self._completed(out, lam))
        return self._prime[k]

    def tail_uncertainty(self, z: np.ndarray) -> np.ndarray:
        """Upper estimate for the relative error left by the tail model:
        slope_slack |z|, and 0 without one."""
        slack = self.spectrum.tail.slope_slack if self.spectrum.tail is not None else 0.0
        return slack * np.abs(z)


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

    def __init__(self, X: float, h: float, log_modulus: np.ndarray):
        """log_modulus: the real samples of log|G| at the nodes x of
        line_grid(X, h)."""
        self.X, self.h = X, h
        self.x, w = line_grid(X, h)
        if log_modulus.shape != self.x.shape:
            raise GenFunError(f"expected {self.x.size} boundary samples for X={X}, h={h}, got {log_modulus.size}")
        if np.any(~np.isfinite(log_modulus)):
            raise GenFunError("boundary log-modulus has non-finite samples")
        self.log_modulus = log_modulus
        self.mean = float((w * log_modulus).sum() / (2.0 * X))
        self._phit = log_modulus - self.mean
        x = self.x
        self._kappa = float((w * (x * self._phit / (1.0 + x * x))).sum() / np.pi)
        self._w = w

    @classmethod
    def from_generating(cls, gen: GeneratingFunctionEvaluator, X: float, h: float):
        x, _ = line_grid(X, h)
        return cls(X, h, gen.log_abs_G(x))

    def eval_outer(self, z: np.ndarray) -> np.ndarray:
        """omega(z) for Im z >= h, |Re z| <= X/2."""
        if np.any(z.imag < self.h * (1.0 - 1e-12)):
            raise GenFunError("eval_outer needs Im z >= one grid spacing")
        if np.any(np.abs(z.real) > self.X / 2.0):
            raise GenFunError("evaluation point beyond half the boundary grid")
        # (1/(i pi)) sum w phi/(t - z) = (i/pi) sum w phi/(z - t)
        s = real_cauchy_sums(z, self.x, self._w * self._phit)
        return np.exp(self.mean + 1j * (s / np.pi + self._kappa))

    def boundary_values(self) -> np.ndarray:
        """omega on the grid nodes themselves (boundary limit from above)."""
        H = hilbert_transform(self._phit, self.X, self.h, tail_fit=False)
        return np.exp(self.mean + self._phit + 1j * (H.real + self._kappa))

    def boundary_on(self, X: float, h: float) -> np.ndarray:
        """Boundary values at the nodes of line_grid(X, h), a sub-grid aligned
        with the boundary grid."""
        if abs(h - self.h) > 1e-12:
            raise GenFunError("sub-grid spacing must match the boundary grid")
        off = (self.X - X) / self.h
        if off < -1e-9 or abs(off - round(off)) > 1e-6:
            raise GenFunError("sub-grid is not aligned with the boundary grid")
        j0 = int(round(off))
        return self.boundary_values()[j0 : j0 + line_grid(X, h)[0].size]


# ---------------------------------------------------------------------------
# Factorization cross-check
# ---------------------------------------------------------------------------


def check_factorization(
    gen: GeneratingFunctionEvaluator,
    outer: OuterEvaluator,
    b_plus,
    b_minus,
    sample_points,
) -> np.ndarray:
    """The relative mismatches ||G| - rhs|/|G| at the sample points, one per
    point, where rhs is |omega B+ e^{-i tau z}| (upper) or
    |omega# B- e^{+i tau z}| (lower).

    b_plus and b_minus are the evaluators of upper_lower_evaluators: Lambda+
    and the mirror conj(Lambda-), or None when that half-plane holds no
    spectrum points (their product is then 1).  A lower z is read through
    w = conj z: |omega#(z)| = |omega(w)|, |B-(z)| = |B_mirror(w)| and
    |e^{i tau z}| = |e^{-i tau w}|.  tau is the evaluator's exponential type
    (pi for lattice-type tails, 0 for finite windows).  Raises GenFunError
    where |G| or the right-hand side is not finite.
    """
    pts = np.asarray(sample_points, dtype=complex).ravel()
    if np.any(pts.imag == 0):
        raise GenFunError("sample points must avoid the real axis")
    up = pts.imag > 0
    w = np.where(up, pts, np.conj(pts))
    log_b = np.zeros(pts.size)
    for b, side in ((b_plus, up), (b_minus, ~up)):
        if b is not None:
            log_b[side] = b.log_abs_B(w[side])
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.abs(gen.eval_G(pts))
        rhs = np.abs(outer.eval_outer(w)) * np.exp(log_b) * np.abs(np.exp(-1j * gen.exp_type * w))
    if not np.isfinite([lhs, rhs]).all():
        raise GenFunError("|G| or its factorization is not finite at a sample point")
    return np.abs(lhs - rhs) / np.maximum(lhs, 1e-300)
