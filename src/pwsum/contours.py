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
from dataclasses import dataclass, field

import numpy as np

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.spectrum import Spectrum, TruncationIndex


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

    def side_samples(self, side: str) -> np.ndarray:
        """Arclength-uniform points on one side, corners excluded."""
        t = (np.arange(self.samples_per_side) + 0.5) / self.samples_per_side
        if side == "right":
            return self.l + t * (self.apex - self.l)
        if side == "left":
            return -self.l + t * (self.apex + self.l)
        if side == "base":
            return -self.l + t * (2 * self.l) + 0j
        raise ContourError(f"unknown side {side!r}")

    def slanted_samples(self) -> np.ndarray:
        return np.concatenate([self.side_samples("right"), self.side_samples("left")])

    def contains(self, z, shrink: float = 1e-9) -> np.ndarray:
        """Strict interior test after a relative shrink toward the centroid.

        The shrink makes boundary points land outside deterministically.
        """
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        centroid = (self.apex - self.l + self.l) / 3.0
        w = (z_arr - centroid) / (1.0 - shrink) + centroid
        x, y = w.real, w.imag
        inside = (y > 0) & (np.abs(x) < self.l)
        # below both slanted sides: y < c*(l - |x|)
        inside &= y < self.c * (self.l - np.abs(x))
        return inside if np.asarray(z).ndim else inside[0]


def lambda_inside(s: Spectrum, t: TriangleContour) -> TruncationIndex:
    """Indices of the points strictly inside the (shrunk) triangle."""
    mask = t.contains(s.points) if len(s) else np.zeros(0, dtype=bool)
    idx = np.where(mask)[0]
    idx.flags.writeable = False
    return TruncationIndex(n=t.l, included=idx)


def select_l(
    b: BlaschkeEvaluator,
    candidates: np.ndarray,
    count: int,
    ratio: float = 2.0,
    arg_threshold: float = 1.0,
    zero_margin: float = 1e-3,
) -> np.ndarray:
    """Increasing half-widths l_1 < ... < l_count with l_{j+1} >= ratio*l_j.

    A candidate within zero_margin of some zero's real part is excluded.
    Among the remaining ones, candidates with
    max((arg B)'(l), (arg B)'(-l)) <= arg_threshold are admissible and the
    smallest is taken; if none meets the threshold the score minimizer is
    taken instead (ties to the smaller l).
    """
    cand = np.unique(np.asarray(candidates, dtype=float))
    if np.any(cand <= 0):
        raise ContourError("candidates must be positive")
    re_zeros = np.unique(b.points.real) if len(b) else np.array([])
    if re_zeros.size:
        dist = np.min(np.abs(cand[:, None] - re_zeros[None, :]), axis=1)
        cand = cand[dist >= zero_margin]
    if not cand.size:
        raise InfeasibleSelection("no candidates clear of the zeros' real parts")
    score = np.maximum(b.arg_derivative_on_R(cand), b.arg_derivative_on_R(-cand))

    out: list[float] = []
    lo = 0.0
    for _ in range(count):
        mask = cand >= (lo * ratio if out else 0.0)
        if not np.any(mask):
            raise InfeasibleSelection("not enough admissible candidates for the spacing")
        c_ok = cand[mask]
        s_ok = score[mask]
        meets = s_ok <= arg_threshold
        if np.any(meets):
            pick = int(np.argmax(meets))  # first (smallest l) meeting the threshold
        else:
            # smallest l among the near-minimal scores; 0.1% relative slack
            # treats window-edge jitter between equivalent positions as ties
            smin = float(np.min(s_ok))
            near = s_ok <= smin * (1.0 + 1e-3) + 1e-12
            pick = int(np.argmax(near))
        out.append(float(c_ok[pick]))
        lo = out[-1]
    return np.array(out)


def select_c(
    b: BlaschkeEvaluator,
    l: float,
    grid_size: int = 16,
    samples_per_side: int = 512,
) -> tuple[float, float]:
    """Apex slope in [1, 10] minimizing eps_hat(c) = max (-log|B|)/|zeta| on the sides.

    Returns (c, eps_hat).  Candidates whose side samples hit a zero of B
    within 1e-9 are rejected; if every candidate does, raises (the caller
    perturbs l).
    """
    if grid_size < 16:
        raise ContourError("grid_size must be >= 16")
    zeros = b.points
    best_c, best_eps = None, math.inf
    for c in np.linspace(1.0, 10.0, grid_size):
        tri = TriangleContour(l=l, c=float(c), samples_per_side=samples_per_side)
        zeta = tri.slanted_samples()
        if zeros.size:
            dmin = np.min(np.abs(zeta[:, None] - zeros[None, :]))
            if dmin < 1e-9:
                continue
        eps_hat = float(np.max(-b.log_abs_B(zeta) / np.abs(zeta)))
        if eps_hat < best_eps - 1e-15:
            best_c, best_eps = float(c), eps_hat
    if best_c is None:
        raise InfeasibleSelection("every apex-slope candidate hits a zero of B")
    return best_c, best_eps


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
    margins: np.ndarray = field(default=None)

    def __post_init__(self):
        ls = [t.l for t in self.contours]
        if np.any(np.diff(ls) <= 0):
            raise ContourError("half-widths must be strictly increasing")
        if np.any(np.asarray(self.alphas) <= 0):
            raise ContourError("alphas must be positive")
        if self.margins is None:
            self.margins = np.full(len(self.contours), np.nan)

    def __len__(self):
        return len(self.contours)


def domination_margin(b: BlaschkeEvaluator, tri: TriangleContour, alpha: float) -> float:
    """min over side samples of alpha*l/5 + log|B(zeta)| (>= 0 is the certificate)."""
    zeta = tri.slanted_samples()
    return float(np.min(alpha * tri.l / 5.0 + b.log_abs_B(zeta)))


def build_schedule(
    spectrum: Spectrum,
    b: BlaschkeEvaluator,
    count: int,
    candidates: np.ndarray | None = None,
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
    inside [l_next/(ratio*1.6), l_next/ratio], score-optimized per band
    through the same rule as select_l.
    """
    if candidates is None:
        top = 1.02 * spectrum.radius if len(spectrum) else 100.0
        ls_rev = []
        hi = None
        for j in range(count):
            if j == 0:
                band = np.linspace(top, 1.05 * top, 400)
            else:
                band = np.linspace(hi / (ratio * 1.6), hi / ratio, 400)
            pick = select_l(
                b, band, 1, ratio=ratio, arg_threshold=arg_threshold, zero_margin=zero_margin
            )[0]
            ls_rev.append(pick)
            hi = pick
        ls = np.array(ls_rev[::-1])
        if np.any(np.diff(ls) <= 0) or np.any(ls[1:] < ratio * ls[:-1] - 1e-9):
            raise InfeasibleSelection("banded half-width selection failed to space out")
    else:
        ls = select_l(b, candidates, count, ratio=ratio, arg_threshold=arg_threshold,
                      zero_margin=zero_margin)
    contours, alphas, eps_hats, margins = [], [], [], []
    for l in ls:
        c, eps_hat = select_c(b, l, grid_size=c_grid, samples_per_side=samples_per_side)
        alpha = select_alpha(l, eps_hat, c, safety=safety)
        tri = TriangleContour(l=l, c=c, samples_per_side=samples_per_side)
        contours.append(tri)
        alphas.append(alpha)
        eps_hats.append(eps_hat)
        margins.append(domination_margin(b, tri, alpha))
    sched = ContourSchedule(
        contours=contours,
        alphas=np.array(alphas),
        eps_hats=np.array(eps_hats),
        margins=np.array(margins),
    )
    prev: set[int] = set()
    for tri in contours:
        cur = set(lambda_inside(spectrum, tri).included.tolist())
        if not prev <= cur:
            raise ContourError("included point sets do not nest along the schedule")
        prev = cur
    return sched


def save_schedule_csv(sched: ContourSchedule, path) -> None:
    with open(path, "w") as fh:
        fh.write("n,l,c,alpha,eps_hat,margin\n")
        for j, tri in enumerate(sched.contours):
            fh.write(
                f"{j + 1},{tri.l:.12e},{tri.c:.12e},{sched.alphas[j]:.12e},"
                f"{sched.eps_hats[j]:.12e},{sched.margins[j]:.12e}\n"
            )
