"""Blaschke products for one half-plane: B, partial products, tail ratios.

B(z) = prod (conj(lam)/lam) (z - lam)/(z - conj(lam)) over the stored
points, all in C+.  The lower half-plane is reached by reflection alone:
upper_lower_evaluators builds the evaluator of the mirror conj(Lambda-),
and B-(z) = conj(B(conj z)) of that evaluator.  The summation weight
beta_n(lam) = B/B_n is always computed as the tail product over
|mu| >= n, never as a 0/0 ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pwsum.spectrum import LogSumWork, Spectrum, block_log_sum, block_rows, split_halfplanes

_POLE_RTOL = 1e-12


def _log_factors(z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Complex kernel: sum over mu of log[(conj mu / mu)(z - mu)/(z - conj mu)]
    per point of z (1-d), in blocks of block_rows(mu) points with the block
    buffers made once.  One log per block of the factors
    (z - mu)/(z - conj mu), whose moduli are <= 1 in the closed upper
    half-plane, so a block product cannot overflow; the unimodular
    normalizations add log(conj mu / mu) = -2i arg mu."""
    out = np.empty(z.shape, dtype=complex)
    step = block_rows(mu.size)
    rows = min(step, z.size)
    work = LogSumWork(rows, mu.size)
    den = np.empty((rows, mu.size), dtype=complex)
    mu_bar = np.conj(mu)
    for i in range(0, z.size, step):
        zc = z[i : i + step, None]
        r = zc.shape[0]
        factor = work.f[:r]
        np.subtract(zc, mu, out=factor)
        factor /= np.subtract(zc, mu_bar, out=den[:r])
        out[i : i + step] = block_log_sum(work, r)
    return out - 2j * np.angle(mu).sum()


def _log_abs_factors(zc, lam, dx2, far):
    """Modulus kernel: 1/2 sum over lam of log(near/far) = log1p(-4 Im z Im lam/far),
    near = |z - lam|^2, far = |z - conj lam|^2, dx2 = (Re z - Re lam)^2, per z of
    the column zc.  The ratio keeps its digits next to a zero; log1p's argument
    rounds to -1 there (or below it: NaN)."""
    near = zc.imag - lam.imag
    near *= near
    near += dx2
    near /= far
    return 0.5 * np.log(near, out=near).sum(axis=1)


class BlaschkeError(ValueError):
    pass


class BlaschkeEvaluator:
    """Finite Blaschke product for points in C+."""

    def __init__(self, spectrum: Spectrum):
        if np.any(spectrum.points.imag <= 0):
            raise BlaschkeError("Blaschke evaluator requires Im lambda > 0")
        self.spectrum = spectrum
        self._pts = spectrum.points
        self._tail = spectrum.lattice_tail()

    def __len__(self) -> int:
        return int(self._pts.size)

    @property
    def points(self) -> np.ndarray:
        """The zeros, in the spectrum's (|lambda|, arg) order."""
        return self._pts

    def _select(self, cutoff: float | None) -> np.ndarray:
        if cutoff is None:
            return self._pts
        return self._pts[np.abs(self._pts) < cutoff]

    def _factor_sum(self, z, cutoff: float | None, modulus: bool) -> np.ndarray:
        """Per z, the log-factor sum over |lambda| < cutoff (its real part if
        modulus), in blocks of block_rows(zeros) points; raises at a pole
        conj(lambda)."""
        z_in = np.atleast_1d(np.asarray(z, dtype=complex))
        lam = self._select(cutoff)
        out = np.zeros(z_in.shape)
        tol2 = (_POLE_RTOL * np.maximum(1.0, np.abs(lam))) ** 2
        step = block_rows(lam.size)
        with np.errstate(divide="ignore"):  # z at a zero: log 0 = -inf, exact
            for i in range(0, z_in.size if lam.size else 0, step):
                zc = z_in[i : i + step, None]
                dx2 = zc.real - lam.real
                dx2 *= dx2
                far = zc.imag + lam.imag
                far *= far
                far += dx2  # |z - conj(lambda)|^2
                if np.any(far <= tol2):
                    raise BlaschkeError("evaluation at a pole conj(lambda)")
                if modulus:
                    out[i : i + step] = _log_abs_factors(zc, lam, dx2, far)
            return out if modulus else _log_factors(z_in, lam)

    def eval_B(self, z, cutoff: float | None = None):
        """Product of normalized factors over |lambda| < cutoff, |lambda|-ascending."""
        res = np.exp(self._factor_sum(z, cutoff, modulus=False))
        return res[0] if np.ndim(z) == 0 else res

    def log_abs_B(self, z):
        """log|B(z)| in real arithmetic (-inf at a zero)."""
        res = self._factor_sum(z, None, modulus=True)
        return res[0] if np.ndim(z) == 0 else res

    def tail_factor(self, z, n: float):
        """Tail product prod_{|mu| >= n} factor(z): beta_n(lambda) at a zero
        lambda with |lambda| < n."""
        mu = self._pts[np.abs(self._pts) >= n]
        res = np.exp(_log_factors(np.atleast_1d(np.asarray(z, dtype=complex)), mu))
        return res[0] if np.ndim(z) == 0 else res

    def eval_B_prime_at(self, k: int, cutoff: float | None = None) -> complex:
        """d/dz of the cutoff product at its own zero lambda_k.

        Needed by the grid projector identity, where the interpolation
        kernel is B_n(z)/(B_n'(lambda)(z - lambda)).
        """
        lam_all = self._select(cutoff)
        lam_k = self._pts[k]
        if not np.any(lam_all == lam_k):
            raise BlaschkeError("lambda_k not inside the cutoff product")
        own = (np.conj(lam_k) / lam_k) / (lam_k - np.conj(lam_k))
        rest = lam_all[lam_all != lam_k]
        own *= np.exp(_log_factors(np.array([lam_k]), rest)[0])
        return complex(own)

    def arg_derivative_on_R(self, t):
        """(arg B)'(t) = 2 sum Im(lambda)/|t - lambda|^2, with a lattice tail term
        (blocks of block_rows(zeros) points)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t_arr.shape)
        lam = self._pts
        step = block_rows(lam.size)
        for i in range(0, t_arr.size, step):
            tc = t_arr[i : i + step, None]
            out[i : i + step] = (2.0 * lam.imag / np.abs(tc - lam) ** 2).sum(axis=1)
        out += self._lattice_tail_argder(t_arr)
        return out[0] if np.asarray(t).ndim == 0 else out

    def _lattice_tail_argder(self, t: np.ndarray) -> np.ndarray:
        """Midpoint-rule tail of 2 sum delta/((t-n)^2+delta^2) beyond the window.

        Applied for the built-in families (the perturbed ones are treated
        through their base lattice; the correction is asymptotically the
        same).  Custom lists get no correction.
        """
        if self._tail is None:
            return np.zeros(t.shape)
        delta = self._tail.delta
        edge = self._tail.first_site - 0.5
        corr = 2.0 * (
            np.pi - np.arctan((edge - t) / delta) - np.arctan((edge + t) / delta)
        )
        return self._tail.density * corr


def upper_lower_evaluators(spectrum: Spectrum) -> tuple[BlaschkeEvaluator | None, BlaschkeEvaluator | None]:
    """Evaluators of Lambda+ and of the mirror conj(Lambda-) (None if empty).

    The only place that reflects: B-(z) = conj(B(conj z)) of the second
    evaluator.  The mirror carries no family tag, so no lattice tail."""
    up, lo = split_halfplanes(spectrum)
    b_up = BlaschkeEvaluator(up) if len(up) else None
    b_lo = BlaschkeEvaluator(Spectrum(np.conj(lo.points))) if len(lo) else None
    return b_up, b_lo


# ---------------------------------------------------------------------------
# Hayman-type exceptional disks
# ---------------------------------------------------------------------------


@dataclass
class DiskFamily:
    centers: np.ndarray
    radii: np.ndarray
    profile_radii: np.ndarray
    profile_values: np.ndarray

    @property
    def view_sum(self) -> float:
        return float(np.sum(self.radii / np.abs(self.centers)))

    def contains(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if not self.centers.size:
            return np.zeros(z.shape, dtype=bool)
        d = np.abs(z[:, None] - self.centers[None, :])
        return np.any(d < self.radii[None, :], axis=1)


class BudgetError(BlaschkeError):
    def __init__(self, msg: str, smallest_budget: float):
        super().__init__(msg)
        self.smallest_budget = smallest_budget


def _verification_points(region_radius: float, n_points: int) -> np.ndarray:
    n_r = max(int(math.sqrt(n_points / 2)), 10)
    n_th = max(int(n_points // n_r), 20)
    r = np.linspace(region_radius / n_r, region_radius, n_r)
    th = np.linspace(1e-3, np.pi - 1e-3, n_th)
    zz = r[:, None] * np.exp(1j * th[None, :])
    return zz.ravel()

def hayman_scan(
    b: BlaschkeEvaluator,
    region_radius: float,
    epsilon_profile,
    view_budget: float = 1e-3,
    n_verify: int = 20000,
) -> DiskFamily:
    """Disks around the zeros outside of which -log|B(z)| <= eps(|z|) |z|.

    Radii follow r = rho |lambda| / (1+|lambda|)^2; the view sum is linear
    in rho, so rho is pinned directly by the budget.  The bound is then
    verified on >= n_verify sample points; if it fails, the smallest rho
    that would satisfy it (found by bisection) is converted into the
    smallest achievable budget and reported in the error.

    epsilon_profile: (radii, values) samples of a decreasing positive
    function, interpolated linearly and extended by its end values.
    """
    lam = b.points
    prof_r, prof_v = (np.asarray(a, dtype=float) for a in epsilon_profile)
    if np.any(prof_v <= 0) or np.any(np.diff(prof_v) > 0):
        raise BlaschkeError("epsilon profile must be positive and nonincreasing")

    zs = _verification_points(region_radius, n_verify)
    neg_log = -np.logaddexp(b.log_abs_B(zs), math.log(1e-300))  # -log(|B| + 1e-300)
    eps_at = np.interp(np.abs(zs), prof_r, prof_v)
    allowed = eps_at * np.abs(zs)

    if not lam.size:
        bad = neg_log > allowed
        if np.any(bad):
            raise BlaschkeError("empty product violates the requested profile")
        return DiskFamily(
            centers=np.empty(0, complex),
            radii=np.empty(0, float),
            profile_radii=prof_r,
            profile_values=prof_v,
        )

    shape = np.abs(lam) / (1.0 + np.abs(lam)) ** 2
    view_unit = float(np.sum(shape / np.abs(lam)))
    rho_budget = 0.999 * view_budget / view_unit

    # z is outside every disk of scale rho iff min_k |z-lam_k|/shape_k >= rho
    margin = np.full(zs.size, np.inf)
    step = block_rows(lam.size)
    for i in range(0, zs.size, step):
        d = np.abs(zs[i : i + step, None] - lam[None, :]) / shape[None, :]
        margin[i : i + step] = d.min(axis=1)

    def ok(rho: float) -> bool:
        outside = margin >= rho
        return bool(np.all(neg_log[outside] <= allowed[outside]))

    if ok(rho_budget):
        rho = rho_budget
    else:
        lo, hi = rho_budget, rho_budget
        for _ in range(60):
            hi *= 2.0
            if ok(hi):
                break
        else:
            raise BudgetError("no disk family satisfies the profile", math.inf)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        raise BudgetError(
            "view budget infeasible at the requested profile",
            smallest_budget=hi * view_unit,
        )

    fam = DiskFamily(
        centers=lam.copy(),
        radii=rho * shape,
        profile_radii=prof_r,
        profile_values=prof_v,
    )
    # achieved profile: per radial bin, the worst ratio -log|B|/|z| outside
    outside = ~fam.contains(zs)
    rad = np.abs(zs[outside])
    ratio = neg_log[outside] / np.maximum(rad, 1e-12)
    bins = np.linspace(0, region_radius, 21)
    idx = np.digitize(rad, bins) - 1
    achieved_r, achieved_v = [], []
    for j in range(20):
        sel = idx == j
        if np.any(sel):
            achieved_r.append(0.5 * (bins[j] + bins[j + 1]))
            achieved_v.append(float(np.max(ratio[sel])))
    fam.profile_radii = np.array(achieved_r)
    fam.profile_values = np.array(achieved_v)
    return fam

