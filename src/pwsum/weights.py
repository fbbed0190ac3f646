"""Summation matrices w(lambda, n): naive, projection and universal schemes.

A scheme is its list of rows: naive_rows, projection_rows and
universal_rows each return one WeightRow per step, in step order, with the
ascending spectrum indices of the row's finite support and the weights
there, built in one vectorized pass per step.  Weights tend to 1 in the
step for every fixed point; indices absent from a row have weight 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pwsum.blaschke import upper_lower_evaluators
from pwsum.contours import ContourSchedule
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


@dataclass(frozen=True)
class WeightRow:
    """One row of w(lambda, n): the step's label n, ascending int spectrum
    indices, complex weights, and per index the half-width l of the contour
    its weight came from (n itself for the radius schemes)."""

    n: float
    indices: np.ndarray
    weights: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return int(self.indices.size)


def _radius_rows(spectrum: Spectrum, radii, weights) -> list[WeightRow]:
    """One row per radius n of an increasing schedule: the points with
    |lambda| < n, weighted by weights(ks, n)."""
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0) or np.any(radii <= 0):
        raise WeightError("radius schedule must be positive and increasing")
    rows = []
    for n in radii:
        ks = np.flatnonzero(spectrum.moduli < n)
        rows.append(WeightRow(float(n), ks, weights(ks, n), np.full(ks.size, n)))
    return rows


def naive_rows(spectrum: Spectrum, radii) -> list[WeightRow]:
    """w(lambda, n) = 1 if |lambda| < n else 0, over a radius schedule."""
    return _radius_rows(spectrum, radii, lambda ks, n: np.ones(ks.size, dtype=complex))


def projection_rows(spectrum: Spectrum, radii) -> list[WeightRow]:
    """w(lambda, n) = beta_n^{+-}(lambda): Blaschke tail products per half-plane."""
    b_plus, b_minus = upper_lower_evaluators(spectrum)

    def weights(ks, n):
        lam = spectrum.points[ks]
        w = np.empty(ks.size, dtype=complex)
        up = lam.imag > 0
        if np.any(up):
            w[up] = b_plus.tail_factor(lam[up], n)
        if not np.all(up):  # beta_n^-(lambda) = conj(beta_n of the mirror at conj lambda)
            w[~up] = np.conj(b_minus.tail_factor(np.conj(lam[~up]), n))
        return w

    return _radius_rows(spectrum, radii, weights)


def universal_rows(
    spectrum: Spectrum,
    schedule_plus: ContourSchedule | None,
    schedule_minus: ContourSchedule | None = None,
) -> list[WeightRow]:
    """w(lambda, n) = w_n(lambda) inside the n-th contour, 0 outside; a weight
    that underflows to exactly zero (past l/2 at large alpha) leaves the row.

    The lower half-plane mirrors the construction through conjugation: a
    schedule built on the reflected points supplies w_n, and the weight at
    lambda in C- is conj(w_n(conj lambda)).  A row's n is the upper
    schedule's l (the mirror's when there is no upper schedule).
    """
    pts = spectrum.points
    up = pts.imag > 0
    if np.any(up) and schedule_plus is None:
        raise WeightError("upper half-plane points need a contour schedule")
    if np.any(~up) and schedule_minus is None:
        raise WeightError("lower half-plane points need a mirrored schedule")
    if schedule_plus is not None and schedule_minus is not None and len(schedule_plus) != len(schedule_minus):
        raise WeightError("the two half-plane schedules must have equal length")
    labelled = schedule_plus if schedule_plus is not None else schedule_minus
    halves = ((schedule_plus, np.flatnonzero(up), False), (schedule_minus, np.flatnonzero(~up), True))
    rows = []
    for step, tri_n in enumerate(labelled.contours):
        w = np.zeros(pts.size, dtype=complex)
        for sched, ks, lower in halves:
            if not ks.size:
                continue
            tri = sched.contours[step]
            z = np.conj(pts[ks]) if lower else pts[ks]
            inside = tri.contains(z)
            vals = outer_weight(tri.l, float(sched.alphas[step]), z[inside])
            w[ks[inside]] = np.conj(vals) if lower else vals
        ks = np.flatnonzero(w)
        n = float(tri_n.l)
        l_minus = np.nan if schedule_minus is None else schedule_minus.contours[step].l
        rows.append(WeightRow(n, ks, w[ks], np.where(pts[ks].imag > 0, n, l_minus)))
    return rows

