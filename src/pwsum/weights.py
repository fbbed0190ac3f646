"""Summation matrices w(lambda, n): naive, projection and universal schemes.

A scheme is its weight matrix: naive_weights, projection_weights and
universal_weights each return (L, W).  W is the (points x steps) complex
matrix of w(lambda_k, n_j), and a column's support is its nonzero entries.
L is the (2, steps) array of half-widths: row 0 labels each step's C+
entries and is the step's n, row 1 its C- entries.  Weights tend to 1 in
the step for every fixed point.  The projection scheme takes all its
steps from one BlaschkeEvaluator.eval_beta call per half-plane, which sums
each annulus between radii once.  The universal scheme reads each
half-plane's contour schedule as build_schedule's table, one column per
contour and step.
"""

from __future__ import annotations

import numpy as np

from pwsum.blaschke import upper_lower_evaluators
from pwsum.contours import ContourError, in_triangle
from pwsum.spectrum import Spectrum


class WeightError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Universal outer weight, closed form
# ---------------------------------------------------------------------------


def outer_weight_phase(zeta) -> np.ndarray:
    """Phi(zeta) = int_{|u|>1/2} [1/(zeta-u) + 1/u] du, zeta in closed C+.

    Closed form: Log(zeta - 1/2) - Log(zeta + 1/2) - i*pi, with the
    boundary approached from above (numpy's branch on the negative real
    axis is the C+ limit).  Phi(0) = 0 and Im Phi <= 0 in C+.
    """
    z = np.asarray(zeta, dtype=complex)
    return np.log(z - 0.5) - np.log(z + 0.5) - 1j * np.pi


def outer_weight(l: float, alpha: float, z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-i alpha l Phi(z/l)): outer in C+, |w| = 1 on (-l/2, l/2),
    |w| = e^{-pi alpha l} on the rest of R.

    Raises at the logarithmic branch points z = +-l/2.
    """
    if l <= 0 or alpha <= 0:
        raise WeightError("l and alpha must be positive")
    if np.any(z.imag < -1e-12):
        raise WeightError("outer weight is defined on the closed upper half-plane")
    zeta = z / l
    if np.any(np.abs(zeta - 0.5) < 1e-14) or np.any(np.abs(zeta + 0.5) < 1e-14):
        raise WeightError("z at a branch point +-l/2")
    # force the boundary limit from C+ (imag = +0.0) on the real axis
    zeta = np.where(zeta.imag == 0, zeta.real + 0j, zeta)
    return np.exp(-1j * alpha * l * outer_weight_phase(zeta))


def outer_weight_deviation_bound(l: float, alpha: float, z: np.ndarray) -> np.ndarray:
    """Certified bound for |w(z) - 1|: |u| e^{|u|} with u = alpha l Phi(z/l).

    Arguments past the exp range return inf: no convergence is certified
    there (typically points beyond l/2 at large alpha).
    """
    u = alpha * l * np.abs(outer_weight_phase(z / l))
    return np.where(u < 700.0, u * np.exp(np.minimum(u, 700.0)), np.inf)


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------


def _radii(radii) -> np.ndarray:
    """The (2, steps) half-widths of an increasing radius schedule: both
    rows hold the radii."""
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0) or np.any(radii <= 0):
        raise WeightError("radius schedule must be positive and increasing")
    return np.stack([radii, radii])


def naive_weights(spectrum: Spectrum, radii) -> tuple[np.ndarray, np.ndarray]:
    """w(lambda, n) = 1 if |lambda| < n else 0, over a radius schedule."""
    L = _radii(radii)
    return L, (spectrum.moduli[:, None] < L[0]).astype(complex)


def projection_weights(spectrum: Spectrum, radii) -> tuple[np.ndarray, np.ndarray]:
    """w(lambda, n) = beta_n^{+-}(lambda) for |lambda| < n: Blaschke tail
    products per half-plane (BlaschkeEvaluator.eval_beta),
    beta_n^-(lambda) = conj(beta_n of the mirror at conj lambda)."""
    L = _radii(radii)
    b_plus, b_minus = upper_lower_evaluators(spectrum)
    pts = spectrum.points
    W = np.zeros((pts.size, L.shape[1]), dtype=complex)
    for b, ks, lower in ((b_plus, np.flatnonzero(pts.imag > 0), False),
                         (b_minus, np.flatnonzero(pts.imag < 0), True)):
        if ks.size:
            W[ks] = np.conj(b.eval_beta(np.conj(pts[ks]), L[0])) if lower else b.eval_beta(pts[ks], L[0])
    return L, W


def universal_weights(
    spectrum: Spectrum,
    schedule_plus: np.ndarray | None,
    schedule_minus: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """w(lambda, n) = w_n(lambda) inside the n-th contour, 0 outside; a weight
    that underflows to exactly zero (past l/2 at large alpha) leaves the
    column's support, and a spectrum whose every weight is zero raises
    WeightError.

    A schedule is build_schedule's table, read for its rows l (strictly
    increasing), c and alpha (positive), or ContourError.  The lower
    half-plane mirrors the construction through conjugation: a schedule
    built on the reflected points supplies w_n, and the weight at lambda in
    C- is conj(w_n(conj lambda)).  Row 0 of L holds the upper schedule's l
    and row 1 the mirror's; a missing schedule's row repeats the other.
    """
    pts = spectrum.points
    up = pts.imag > 0
    if np.any(up) and schedule_plus is None:
        raise WeightError("upper half-plane points need a contour schedule")
    if np.any(~up) and schedule_minus is None:
        raise WeightError("lower half-plane points need a mirrored schedule")
    scheds = (schedule_plus if schedule_plus is not None else schedule_minus,
              schedule_minus if schedule_minus is not None else schedule_plus)
    if scheds[0].shape[1] != scheds[1].shape[1]:
        raise WeightError("the two half-plane schedules must have equal length")
    L = np.array([sched[0] for sched in scheds])
    W = np.zeros((pts.size, L.shape[1]), dtype=complex)
    for (ls, cs, alphas, *_), ks, lower in zip(scheds, (np.flatnonzero(up), np.flatnonzero(~up)), (False, True)):
        if np.any(np.diff(ls) <= 0) or np.any(alphas <= 0):
            raise ContourError("a schedule needs strictly increasing half-widths and positive alphas")
        z = np.conj(pts[ks]) if lower else pts[ks]
        for j, (l, c, alpha) in enumerate(zip(ls, cs, alphas)):
            inside = in_triangle(l, c, z)
            vals = outer_weight(l, float(alpha), z[inside])
            W[ks[inside], j] = np.conj(vals) if lower else vals
    if pts.size and not np.any(W):
        raise WeightError(f"every universal weight is 0: no point is inside a contour where w_n stays above "
                          f"underflow (alpha up to {max(np.max(sched[2]) for sched in scheds):.3e})")
    return L, W
