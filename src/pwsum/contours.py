"""Triangle contours for the universal summation method.

Each contour is the boundary of the triangle with vertices -l, l, i*c*l,
c in [1, 10].  The half-widths l are chosen where the boundary argument
derivative of the Blaschke product is small (staying away from the zeros'
real parts), the apex slope c by minimizing the measured side profile
eps_hat = max(-log|B(zeta)|)/|zeta| in an exact best-first search that
evaluates log|B| only on the side samples of the candidates that can still
win, with the bits of a scan of every sample, and alpha from the domination
inequality alpha*l/5 >= max side sample of -log|B| that the operator
bound actually uses.  A schedule is its table: build_schedule returns the
(5, contours) array whose rows are l, c, alpha, eps_hat and the margin,
the columns of contours.csv.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.spectrum import unique_sorted


class ContourError(ValueError):
    pass


class InfeasibleSelection(ContourError):
    """Raised when no admissible candidate set exists (exit code 3 territory)."""


def triangle_samples(l: float, c: float, m: int) -> np.ndarray:
    """m arclength-uniform points on the right slanted side of the triangle
    with vertices -l, l, i*c*l, then m on its left side, corners excluded."""
    apex = 1j * c * l
    t = (np.arange(m) + 0.5) / m
    return np.concatenate([l + t * (apex - l), -l + t * (apex + l)])


def in_triangle(l: float, c: float, z: np.ndarray) -> np.ndarray:
    """Strict interior test of the triangle -l, l, i*c*l after a relative
    shrink of 1e-9 toward the centroid.

    The shrink makes boundary points land outside deterministically.
    """
    apex = 1j * c * l
    centroid = (apex - l + l) / 3.0
    w = (z - centroid) / (1.0 - 1e-9) + centroid
    x, y = w.real, w.imag
    inside = (y > 0) & (np.abs(x) < l)
    # below both slanted sides: y < c*(l - |x|)
    inside &= y < c * (l - np.abs(x))
    return inside


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
        # the nearest real part is a sorted neighbour, and rounding is monotone
        k = np.searchsorted(re_zeros, cand)
        below, above = re_zeros[np.maximum(k - 1, 0)], re_zeros[np.minimum(k, re_zeros.size - 1)]
        cand = cand[np.minimum(np.abs(cand - below), np.abs(cand - above)) >= zero_margin]
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


def _first_best(eps: np.ndarray) -> int | None:
    """The full scan's tie rule: the first index, unless a later eps is
    smaller than the running best by more than 1e-15; None if every eps is
    inf."""
    best, best_eps = None, math.inf
    for i, eps_hat in enumerate(eps):
        if eps_hat < best_eps - 1e-15:
            best, best_eps = i, eps_hat
    return best


def _prune_margin(m: float, candidates: int) -> float:
    """How far above the least eps_hat m a bound must lie before its
    candidate can drop out of _first_best's scan unseen (select_c's proof)."""
    return (candidates + 1) * (1e-15 + float(np.spacing(m + candidates * 1e-15)))


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
    raises (the caller perturbs l).

    The search is best-first and exact.  A candidate's max over a subset of
    its side samples is a lower bound on its eps_hat.  One log|B| call scores
    every candidate on every 16th sample; then the candidate with the least
    bound is refined, its stride halved (16, 8, 4, 2, 1) and only its new
    samples evaluated, until the least bound exceeds M = m + margin, m the
    least exact eps_hat so far (a candidate at stride 1 has its exact value).
    Each sample's log|B| is the same bits in any call (log_abs_B's contract),
    so an exact value, and the (c, eps_hat, min log|B|) of the chosen full
    row, are those of a scan of every sample.  _first_best then replays the
    full scan's tie rule with eps_hat = inf for the unrefined candidates,
    all of which lie above M, and m is the least eps_hat of all.

    Why the pick is the full scan's.  Write t = 1e-15, G = grid_size,
    f(x) = fl(x - t), s = spacing(m + G t), margin = (G + 1)(t + s).  The
    rule is order-dependent, so no margin of a few t will do: with margin
    2t, the values m + 2.5t, m + 1.6t, m + 0.7t, m give index 2 in the full
    scan (0.7t undercuts 2.5t by more than t, m does not undercut 0.7t) but
    index 3 with the first one pruned.  The proof: the two scans see the
    same values except at the pruned candidates, which the full scan sees
    above M and the pruned scan as inf.  Together, they stay together until
    the full scan takes a pruned value e > M; from there L, the lesser of
    their running bests, starts above M and never rises.  While they are
    apart, at each candidate either both take its value (it is below f(L))
    and they are together again, or L falls no lower than min(f(L), M).  So
    j candidates after they part, L >= f^j(M) >= M - j (t + ulp(M)/2), with
    ulp(M) <= 2s, as 0 <= eps_hat and M <= 2 (m + G t).  Let p be a
    candidate with eps_hat = m (never pruned).  If they are apart before p,
    at most G - 2 candidates lie between their parting and p, so at p
    f(L) >= M - (G - 1)(t + s) > m + t, also after M's own rounding, and
    both take p.  After p their common best is at most m + t + s < M, below
    every pruned value, so they never part again: they end together.
    """
    if l <= 0 or grid_size < 16 or samples_per_side < 2:
        raise ContourError("need l > 0, grid_size >= 16 and at least 2 samples per side")
    cs = np.linspace(1.0, 10.0, grid_size)
    zeta = np.stack([triangle_samples(l, float(c), samples_per_side) for c in cs])
    size = np.abs(zeta)
    log_b = np.empty(zeta.shape)
    log_b[:, ::16] = b.log_abs_B(zeta[:, ::16].ravel()).reshape(grid_size, -1)
    low = np.max(-log_b[:, ::16] / size[:, ::16], axis=1)
    heap = [(bound, i, 16) for i, bound in enumerate(low.tolist())]
    heapq.heapify(heap)
    eps_hats = np.full(grid_size, math.inf)
    top = math.inf  # M; an infinite bound is an exact eps_hat = inf
    while heap and heap[0][0] <= top and heap[0][0] < math.inf:
        bound, i, stride = heapq.heappop(heap)
        new = slice(stride // 2, None, stride)
        log_b[i, new] = b.log_abs_B(zeta[i, new])
        if stride > 2:
            bound = float(np.max(-log_b[i, new] / size[i, new], initial=bound))
            heapq.heappush(heap, (bound, i, stride // 2))
        else:
            eps_hats[i] = np.max(-log_b[i] / size[i])
            m = float(np.min(eps_hats))
            if m < math.inf:
                top = m + _prune_margin(m, grid_size)
    best = _first_best(eps_hats)
    if best is None:
        raise InfeasibleSelection("every apex-slope candidate hits a zero of B")
    return float(cs[best]), float(eps_hats[best]), float(np.min(log_b[best]))


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


def build_schedule(
    b: BlaschkeEvaluator,
    count: int,
    ratio: float = 2.0,
    arg_threshold: float = 1.0,
    zero_margin: float = 1e-3,
    c_grid: int = 16,
    samples_per_side: int = 512,
    safety: float = 1.2,
) -> np.ndarray:
    """The (5, count) schedule: rows l, c, alpha, eps_hat and margin, one
    column per contour, l increasing.

    The half-widths are picked top-down in geometric bands: the last one
    just past the window radius (so the final contour covers the whole
    stored spectrum and the weights can reach 1 there), each earlier one
    inside [l_next/(ratio*1.6), l_next/ratio], one select_l pick per band.
    The points are b's own.  Raises InfeasibleSelection when a band falls
    below the smallest normal float (a large ratio), when a margin (the min
    of alpha*l/5 + log|B| on the sides) is negative, as safety < 1 can leave
    it, and ContourError when the included point sets do not nest.
    """
    spectrum = b.spectrum
    top = 1.02 * spectrum.radius if len(spectrum) else 100.0
    band = np.linspace(top, 1.05 * top, 400)
    ls_rev = []
    for n in range(count, 0, -1):
        if band[0] < np.finfo(float).tiny:
            raise InfeasibleSelection(f"contour {n}: the band [{band[0]:.3e}, {band[-1]:.3e}] of half-widths "
                                      f"underflows at ratio {ratio:g}")
        ls_rev.append(select_l(b, band, arg_threshold, zero_margin))
        band = np.linspace(ls_rev[-1] / (ratio * 1.6), ls_rev[-1] / ratio, 400)
    ls = np.array(ls_rev[::-1])
    if np.any(np.diff(ls) <= 0) or np.any(ls[1:] < ratio * ls[:-1] - 1e-9):
        raise InfeasibleSelection("banded half-width selection failed to space out")
    cols = []
    for l in ls:
        c, eps_hat, min_log_b = select_c(b, l, grid_size=c_grid, samples_per_side=samples_per_side)
        alpha = select_alpha(l, eps_hat, c, safety=safety)
        # min over the side samples of alpha*l/5 + log|B| (>= 0 is the
        # certificate): rounding is monotone, so the min moves inside the sum
        cols.append((l, c, alpha, eps_hat, alpha * l / 5.0 + min_log_b))
    sched = np.array(cols).T
    j = np.argmax(sched[4] < 0)
    if sched[4, j] < 0:
        raise InfeasibleSelection(f"contour {j + 1}: domination margin {sched[4, j]:.3e} < 0 at safety {safety}")
    inside = np.stack([in_triangle(l, c, spectrum.points) for l, c in zip(sched[0], sched[1])], axis=1)
    if np.any(inside[:, :-1] & ~inside[:, 1:]):
        raise ContourError("included point sets do not nest along the schedule")
    return sched
