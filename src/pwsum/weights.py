"""Summation matrices w(lambda, n): naive, projection and universal schemes.

All three present one interface: weight_row(step) returns the step's row
of the matrix as a WeightRow, the ascending spectrum indices of its finite
support and the weights there, built in one vectorized pass.  Weights tend
to 1 in the step for every fixed point; indices absent from a row have
weight 0.
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
    """One row of w(lambda, n): ascending int spectrum indices, complex weights."""

    indices: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return int(self.indices.size)


class _RadiusSchedule:
    """Steps at radii n_1 < n_2 < ...; step j keeps the points with |lambda| < n_j."""

    def __init__(self, spectrum: Spectrum, radii):
        self.spectrum = spectrum
        self.radii = np.asarray(radii, dtype=float)
        if np.any(np.diff(self.radii) <= 0) or np.any(self.radii <= 0):
            raise WeightError("radius schedule must be positive and increasing")

    def __len__(self):
        return int(self.radii.size)

    def step_label(self, step: int) -> float:
        return float(self.radii[step])

    def row_labels(self, step: int, ks: np.ndarray) -> np.ndarray:
        """The step's radius, once per index of ks."""
        return np.full(ks.size, self.radii[step])

    def kept(self, step: int) -> np.ndarray:
        """Ascending indices of the points with |lambda| < n_step."""
        return np.flatnonzero(self.spectrum.moduli < self.radii[step])


class NaiveWeights(_RadiusSchedule):
    """w(lambda, n) = 1 if |lambda| < n else 0, over a radius schedule."""

    kind = "naive"

    def weight_row(self, step: int) -> WeightRow:
        ks = self.kept(step)
        return WeightRow(ks, np.ones(ks.size, dtype=complex))


class ProjectionWeights(_RadiusSchedule):
    """w(lambda, n) = beta_n^{+-}(lambda): Blaschke tail products per half-plane."""

    kind = "projection"

    def __init__(self, spectrum: Spectrum, radii):
        super().__init__(spectrum, radii)
        self.b_plus, self.b_minus = upper_lower_evaluators(spectrum)

    def weight_row(self, step: int) -> WeightRow:
        ks = self.kept(step)
        lam = self.spectrum.points[ks]
        w = np.empty(ks.size, dtype=complex)
        n = self.radii[step]
        up = lam.imag > 0
        if np.any(up):
            w[up] = self.b_plus.tail_factor(lam[up], n)
        if not np.all(up):  # beta_n^-(lambda) = conj(beta_n of the mirror at conj lambda)
            w[~up] = np.conj(self.b_minus.tail_factor(np.conj(lam[~up]), n))
        return WeightRow(ks, w)


class UniversalWeights:
    """w(lambda, n) = w_n(lambda) inside the n-th contour, 0 outside.

    The lower half-plane mirrors the construction through conjugation: a
    schedule built on the reflected points supplies w_n, and the weight at
    lambda in C- is conj(w_n(conj lambda)).
    """

    kind = "universal"

    def __init__(
        self,
        spectrum: Spectrum,
        schedule_plus: ContourSchedule | None,
        schedule_minus: ContourSchedule | None = None,
    ):
        self.spectrum = spectrum
        up = spectrum.points.imag > 0
        if np.any(up) and schedule_plus is None:
            raise WeightError("upper half-plane points need a contour schedule")
        if np.any(~up) and schedule_minus is None:
            raise WeightError("lower half-plane points need a mirrored schedule")
        if (
            schedule_plus is not None
            and schedule_minus is not None
            and len(schedule_plus) != len(schedule_minus)
        ):
            raise WeightError("the two half-plane schedules must have equal length")
        self.schedule_plus = schedule_plus
        self.schedule_minus = schedule_minus
        self._n_steps = len(schedule_plus) if schedule_plus is not None else len(schedule_minus)

    def __len__(self):
        return self._n_steps

    def step_label(self, step: int) -> float:
        sched = self.schedule_plus if self.schedule_plus is not None else self.schedule_minus
        return float(sched.contours[step].l)

    def row_labels(self, step: int, ks: np.ndarray) -> np.ndarray:
        """Per index of ks, the half-width l of the step's contour its weight
        comes from: the upper schedule's, or the mirror's for a point in C-."""
        l_minus = np.nan if self.schedule_minus is None else self.schedule_minus.contours[step].l
        return np.where(self.spectrum.points[ks].imag > 0, self.step_label(step), l_minus)

    def weight_row(self, step: int) -> WeightRow:
        """Outer weights at the points inside the step's contours; a weight that
        underflows to exactly zero (past l/2 at large alpha) leaves the row."""
        pts = self.spectrum.points
        w = np.zeros(pts.size, dtype=complex)
        up = pts.imag > 0
        for sched, ks, lower in ((self.schedule_plus, np.flatnonzero(up), False),
                                 (self.schedule_minus, np.flatnonzero(~up), True)):
            if not ks.size:
                continue
            tri = sched.contours[step]
            z = np.conj(pts[ks]) if lower else pts[ks]
            inside = tri.contains(z)
            vals = outer_weight(tri.l, float(sched.alphas[step]), z[inside])
            w[ks[inside]] = np.conj(vals) if lower else vals
        ks = np.flatnonzero(w)
        return WeightRow(ks, w[ks])


def save_weights_csv(scheme, path) -> None:
    pts = scheme.spectrum.points
    with open(path, "w") as fh:
        fh.write("n,k,lambda_re,lambda_im,w_re,w_im\n")
        for step in range(len(scheme)):
            row = scheme.weight_row(step)
            labels = scheme.row_labels(step, row.indices)
            for label, k, lam, w in zip(labels, row.indices, pts[row.indices], row.weights):
                fh.write(
                    f"{label:.12e},{k},{lam.real:.12e},{lam.imag:.12e},"
                    f"{w.real:.12e},{w.imag:.12e}\n"
                )
