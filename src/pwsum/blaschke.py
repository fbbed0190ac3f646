"""Blaschke products for one half-plane: B, partial products, tail ratios.

B(z) = prod (conj(lam)/lam) (z - lam)/(z - conj(lam)) over the stored
points, all in C+.  The lower half-plane is reached by reflection alone:
upper_lower_evaluators builds the evaluator of the mirror conj(Lambda-),
and B-(z) = conj(B(conj z)) of that evaluator.  The summation weight
beta_n(lam) = B/B_n is always computed as the tail product over
|mu| >= n, never as a 0/0 ratio, and a radius schedule's tails as sums
over the annuli between its radii, each summed once.  B, B', beta and
log|B| take one real kernel, spectrum.blaschke_logs, for every zero set:
at the zeros' one height (Spectrum.height, every lattice family's) or at
Im mu per zero.
"""

from __future__ import annotations

import numpy as np

from pwsum.spectrum import (
    Spectrum,
    blaschke_logs,
    inverse_square_sums,
    split_halfplanes,
    touching,
)


class BlaschkeError(ValueError):
    pass


def _log_factors(z: np.ndarray, mu: np.ndarray, height: float | None, skip: np.ndarray | None = None,
                 phase: bool = True) -> np.ndarray:
    """sum over mu of log[(conj mu / mu)(z - mu)/(z - conj mu)] per point of
    z (1-d), Im defined modulo 2 pi, by spectrum.blaschke_logs at the
    zeros' one height, or at Im mu_j per zero; raises at a pole conj(mu)
    (spectrum.touching).  With skip, point i leaves out factor skip[i] and
    its normalization; with phase False, the real part alone: log|B|, -inf
    exactly at a zero, and a point's bits do not depend on the other points
    of the call, in any number or order.  select_c's pruned search, which
    scores a contour's samples a few at a time, is exact only under this
    contract."""
    if np.any(touching(z, np.conj(mu))):
        raise BlaschkeError("evaluation at a pole conj(lambda)")
    return blaschke_logs(z, mu.real, height if height is not None else mu.imag, skip, phase)


class BlaschkeEvaluator:
    """Finite Blaschke product for points in C+."""

    def __init__(self, spectrum: Spectrum):
        if np.any(spectrum.points.imag <= 0):
            raise BlaschkeError("Blaschke evaluator requires Im lambda > 0")
        self.spectrum = spectrum

    @property
    def points(self) -> np.ndarray:
        """The zeros, in the spectrum's (|lambda|, arg) order."""
        return self.spectrum.points

    def eval_B(self, z: np.ndarray, cutoff: float = np.inf) -> np.ndarray:
        """Product of normalized factors over |lambda| < cutoff, |lambda|-ascending."""
        return np.exp(_log_factors(z, self.points[np.abs(self.points) < cutoff], self.spectrum.height))

    def log_abs_B(self, z: np.ndarray) -> np.ndarray:
        """log|B(z)| in real arithmetic (-inf at a zero)."""
        return _log_factors(z, self.points, self.spectrum.height, phase=False)

    def eval_beta(self, z: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """beta_n(z_i) = prod_{|mu| >= n} factor(z_i) for each n of the
        increasing radii, at the points with |z_i| < n, and 0 at the others:
        the (z.size, radii.size) projection weights of points z in C+.

        Each half-open annulus n_j <= |mu| < n_{j+1} (the last: |mu| >= n_J)
        is summed once, by one _log_factors call at the points inside n_j,
        and the logs accumulate from the outside in: a point inside n_j is
        inside every larger radius, so its running sum already holds the
        annuli beyond n_{j+1} when annulus j's log is added."""
        mod, z_mod = np.abs(self.points), np.abs(z)
        edges = np.append(radii, np.inf)
        out = np.zeros((z.size, radii.size), dtype=complex)
        logs = np.zeros(z.shape, dtype=complex)  # per point, the sum over the annuli taken so far
        for j in range(radii.size - 1, -1, -1):
            rows = np.flatnonzero(z_mod < radii[j])
            mu = self.points[(mod >= edges[j]) & (mod < edges[j + 1])]
            logs[rows] += _log_factors(z[rows], mu, self.spectrum.height)
            out[rows, j] = np.exp(logs[rows])
        return out

    def eval_B_prime_at(self, k: np.ndarray, cutoff: float = np.inf) -> np.ndarray:
        """d/dz of the cutoff product at its own zeros lambda_k, for an index
        array k, by the own-factor rule of G'; the projector's interpolation
        kernel is B_n(z)/(B_n'(lambda)(z - lambda))."""
        mu = self.points[np.abs(self.points) < cutoff]  # a prefix: the points are sorted by modulus
        if np.any((k < 0) | (k >= mu.size)):
            raise BlaschkeError("lambda_k not inside the cutoff product")
        lam = mu[k]
        return (np.conj(lam) / lam) / (lam - np.conj(lam)) * np.exp(_log_factors(lam, mu, self.spectrum.height, skip=k))

    def arg_derivative_on_R(self, t: np.ndarray) -> np.ndarray:
        """(arg B)'(t) = 2 sum Im(lambda)/|t - lambda|^2, with a lattice tail term."""
        return inverse_square_sums(t, self.points, 2.0 * self.points.imag) + self._tail_argder(t)

    def _tail_argder(self, t: np.ndarray) -> np.ndarray:
        """Midpoint-rule tail of 2 sum delta/((t-n)^2+delta^2) beyond the window.

        Applied for the built-in families (the perturbed ones are treated
        through their base lattice; the correction is asymptotically the
        same).  Custom lists get no correction.
        """
        tail = self.spectrum.tail
        if tail is None:
            return np.zeros(t.shape)
        edge = tail.first_site - 0.5
        corr = 2.0 * (np.pi - np.arctan((edge - t) / tail.delta) - np.arctan((edge + t) / tail.delta))
        return tail.density * corr


def upper_lower_evaluators(spectrum: Spectrum) -> tuple[BlaschkeEvaluator | None, BlaschkeEvaluator | None]:
    """Evaluators of Lambda+ and of the mirror conj(Lambda-) (None if empty).

    The only place that reflects: B-(z) = conj(B(conj z)) of the second
    evaluator.  The mirror carries no tail."""
    up, lo = split_halfplanes(spectrum)
    b_up = BlaschkeEvaluator(up) if len(up) else None
    b_lo = BlaschkeEvaluator(Spectrum(np.conj(lo.points))) if len(lo) else None
    return b_up, b_lo
