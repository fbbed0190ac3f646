"""Triangle contours for the universal summation method.

Each contour is the boundary of the triangle with vertices -l, l, i*c*l,
c in [1, 10].  The half-widths l are chosen where the boundary argument
derivative of the Blaschke product is small (staying away from the zeros'
real parts), the apex slope c by minimizing the measured side profile
eps_hat = max(-log|B(zeta)|)/|zeta|, and alpha from the domination
inequality alpha*l/5 >= max side sample of -log|B| that the operator
bound actually uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.spectrum import Spectrum, unique_sorted


class ContourError(ValueError):
    pass


class InfeasibleSelection(ContourError):
    """Raised when no admissible candidate set exists (exit code 3 territory)."""


@dataclass
class TriangleContour:
    """Triangle boundary: base [-l, l] on R, apex at i*c*l."""

    l: float
    c: float
    samples_per_side: int = 512

    def __post_init__(self):
        if self.l <= 0:
            raise ContourError("half-width l must be positive")
        if not (1.0 <= self.c <= 10.0):
            raise ContourError("apex slope c must lie in [1, 10]")
        if self.samples_per_side < 2:
            raise ContourError("need at least 2 samples per side")

    @property
    def apex(self) -> complex:
        return 1j * self.c * self.l

    def slanted_samples(self) -> np.ndarray:
        """Arclength-uniform points on the right side, then on the left side,
        corners excluded."""
        t = (np.arange(self.samples_per_side) + 0.5) / self.samples_per_side
        return np.concatenate([self.l + t * (self.apex - self.l), -self.l + t * (self.apex + self.l)])

    def contains(self, z: np.ndarray) -> np.ndarray:
        """Strict interior test after a relative shrink of 1e-9 toward the centroid.

        The shrink makes boundary points land outside deterministically.
        """
        centroid = (self.apex - self.l + self.l) / 3.0
        w = (z - centroid) / (1.0 - 1e-9) + centroid
        x, y = w.real, w.imag
        inside = (y > 0) & (np.abs(x) < self.l)
        # below both slanted sides: y < c*(l - |x|)
        inside &= y < self.c * (self.l - np.abs(x))
        return inside


def lambda_inside(s: Spectrum, t: TriangleContour) -> np.ndarray:
    """Ascending indices of the points strictly inside the (shrunk) triangle."""
    return np.flatnonzero(t.contains(s.points))


def select_l(
    b: BlaschkeEvaluator,
    candidates: np.ndarray,
    arg_threshold: float = 1.0,
    zero_margin: float = 1e-3,
) -> float:
    """One half-width l from the candidates.

    A candidate within zero_margin of some zero's real part is excluded.
    Among the remaining ones, candidates with
    max((arg B)'(l), (arg B)'(-l)) <= arg_threshold are admissible and the
    smallest is taken; if none meets the threshold the score minimizer is
    taken instead (ties to the smaller l).
    """
    cand = unique_sorted(np.asarray(candidates, dtype=float))
    if np.any(cand <= 0):
        raise ContourError("candidates must be positive")
    re_zeros = unique_sorted(b.points.real)
    if re_zeros.size:
        dist = np.min(np.abs(cand[:, None] - re_zeros[None, :]), axis=1)
        cand = cand[dist >= zero_margin]
    if not cand.size:
        raise InfeasibleSelection("no candidates clear of the zeros' real parts")
    score = np.maximum(b.arg_derivative_on_R(cand), b.arg_derivative_on_R(-cand))
    meets = score <= arg_threshold
    if np.any(meets):
        return float(cand[np.argmax(meets)])  # first (smallest l) meeting the threshold
    # smallest l among the near-minimal scores; 0.1% relative slack treats
    # window-edge jitter between equivalent positions as ties
    near = score <= float(np.min(score)) * (1.0 + 1e-3) + 1e-12
    return float(cand[np.argmax(near)])


def select_c(
    b: BlaschkeEvaluator,
    l: float,
    grid_size: int = 16,
    samples_per_side: int = 512,
) -> tuple[float, float, float]:
    """Apex slope in [1, 10] minimizing eps_hat(c) = max (-log|B|)/|zeta| on the sides.

    Returns (c, eps_hat, min log|B|), the last over the chosen contour's side
    samples.  A side sample on a zero of B gives log|B| = -inf, so
    eps_hat = inf, and that candidate is never taken; if every one is,
    raises (the caller perturbs l).  Each candidate is one row of a log|B| pass.
    """
    if grid_size < 16:
        raise ContourError("grid_size must be >= 16")
    cs = np.linspace(1.0, 10.0, grid_size)
    zeta = np.concatenate([TriangleContour(l, float(c), samples_per_side).slanted_samples() for c in cs])
    log_b = b.log_abs_B(zeta)
    eps_hats = np.max((-log_b / np.abs(zeta)).reshape(grid_size, -1), axis=1)
    best, best_eps = None, math.inf
    for i, eps_hat in enumerate(eps_hats):
        if eps_hat < best_eps - 1e-15:
            best, best_eps = i, float(eps_hat)
    if best is None:
        raise InfeasibleSelection("every apex-slope candidate hits a zero of B")
    return float(cs[best]), best_eps, float(np.min(log_b.reshape(grid_size, -1)[best]))


def select_alpha(l: float, eps_hat: float, c: float, safety: float = 1.2) -> float:
    """alpha = safety * 5 * eps_hat * sup|zeta| / l, floored at 1e-9.

    With eps_hat measured as max(-log|B|)/|zeta| on the side samples this
    gives alpha*l/5 >= safety * max(-log|B|), the inequality that makes
    |w_n/B| <= 1 on the slanted sides.
    """
    if not np.isfinite(eps_hat):
        raise ContourError("eps_hat must be finite (select_c failed?)")
    if eps_hat < 0:
        raise ContourError("eps_hat must be nonnegative")
    sup_zeta = l * math.sqrt(1.0 + c * c)
    return max(safety * 5.0 * eps_hat * sup_zeta / l, 1e-9)


@dataclass
class ContourSchedule:
    contours: list[TriangleContour]
    alphas: np.ndarray
    eps_hats: np.ndarray
    margins: np.ndarray

    def __post_init__(self):
        ls = [t.l for t in self.contours]
        if np.any(np.diff(ls) <= 0):
            raise ContourError("half-widths must be strictly increasing")
        if np.any(np.asarray(self.alphas) <= 0):
            raise ContourError("alphas must be positive")

    def __len__(self):
        return len(self.contours)


def build_schedule(
    b: BlaschkeEvaluator,
    count: int,
    ratio: float = 2.0,
    arg_threshold: float = 1.0,
    zero_margin: float = 1e-3,
    c_grid: int = 16,
    samples_per_side: int = 512,
    safety: float = 1.2,
) -> ContourSchedule:
    """Select l's, c's and alphas; verify nesting of the included sets.

    The half-widths are picked top-down in geometric bands: the last one
    just past the window radius (so the final contour covers the whole
    stored spectrum and the weights can reach 1 there), each earlier one
    inside [l_next/(ratio*1.6), l_next/ratio], one select_l pick per band.
    The points are b's own.
    """
    spectrum = b.spectrum
    top = 1.02 * spectrum.radius if len(spectrum) else 100.0
    band = np.linspace(top, 1.05 * top, 400)
    ls_rev = []
    for _ in range(count):
        ls_rev.append(select_l(b, band, arg_threshold, zero_margin))
        band = np.linspace(ls_rev[-1] / (ratio * 1.6), ls_rev[-1] / ratio, 400)
    ls = np.array(ls_rev[::-1])
    if np.any(np.diff(ls) <= 0) or np.any(ls[1:] < ratio * ls[:-1] - 1e-9):
        raise InfeasibleSelection("banded half-width selection failed to space out")
    contours, alphas, eps_hats, margins = [], [], [], []
    for l in ls:
        c, eps_hat, min_log_b = select_c(b, l, grid_size=c_grid, samples_per_side=samples_per_side)
        alpha = select_alpha(l, eps_hat, c, safety=safety)
        contours.append(TriangleContour(l=l, c=c, samples_per_side=samples_per_side))
        alphas.append(alpha)
        eps_hats.append(eps_hat)
        # min over the side samples of alpha*l/5 + log|B| (>= 0 is the
        # certificate): rounding is monotone, so the min moves inside the sum
        margins.append(alpha * l / 5.0 + min_log_b)
    sched = ContourSchedule(
        contours=contours,
        alphas=np.array(alphas),
        eps_hats=np.array(eps_hats),
        margins=np.array(margins),
    )
    prev: set[int] = set()
    for tri in contours:
        cur = set(lambda_inside(spectrum, tri).tolist())
        if not prev <= cur:
            raise ContourError("included point sets do not nest along the schedule")
        prev = cur
    return sched

