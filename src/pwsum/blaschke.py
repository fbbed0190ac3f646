"""Blaschke products for one half-plane: B, partial products, tail ratios.

B(z) = prod (conj(lam)/lam) (z - lam)/(z - conj(lam)) over the stored
points, all in C+.  The lower half-plane is reached by reflection alone:
upper_lower_evaluators builds the evaluator of the mirror conj(Lambda-),
and B-(z) = conj(B(conj z)) of that evaluator.  The summation weight
beta_n(lam) = B/B_n is always computed as the tail product over
|mu| >= n, never as a 0/0 ratio.  Zeros on one height (Spectrum.height,
every lattice family's) take the real kernel one_height_blaschke_logs for
B, B', beta and log|B|; any other point set takes the block log-product
(B, B', beta) and the modulus kernel _log_abs_factors (log|B|).
"""

from __future__ import annotations

import numpy as np

from pwsum.spectrum import (
    Spectrum,
    inverse_square_sums,
    log_products,
    one_height_blaschke_logs,
    row_blocks,
    split_halfplanes,
    touching,
)


class BlaschkeError(ValueError):
    pass


def _check_poles(z: np.ndarray, mu: np.ndarray) -> None:
    """Raise if a point of z touches a pole conj(mu) (spectrum.touching)."""
    if np.any(touching(z, np.conj(mu))):
        raise BlaschkeError("evaluation at a pole conj(lambda)")


def _log_factors(z: np.ndarray, mu: np.ndarray, height: float | None, skip: np.ndarray | None = None) -> np.ndarray:
    """Complex kernel: sum over mu of log[(conj mu / mu)(z - mu)/(z - conj mu)]
    per point of z (1-d); raises at a pole conj(mu).  Zeros on one height
    take one_height_blaschke_logs.  Any others take one log per block of the
    factors (z - mu)/(z - conj mu), whose moduli are <= 1 in the closed upper
    half-plane, so a block product cannot overflow; the unimodular
    normalizations add log(conj mu / mu) = -2i arg mu.  With skip, point i
    leaves out factor skip[i] (log_products' rule) and its normalization."""
    _check_poles(z, mu)
    if height is not None:
        return one_height_blaschke_logs(z, mu.real, height, skip)
    out = log_products(z, mu, np.conj(mu), skip)
    return out - 2j * (np.angle(mu).sum() - (0.0 if skip is None else np.angle(mu[skip])))


def _log_abs_factors(z: np.ndarray, lam: np.ndarray, height: float | None) -> np.ndarray:
    """Modulus kernel: per point of z (1-d), 1/2 sum over lam of log(near/far),
    near = |z - lam|^2, far = |z - conj lam|^2, in real arithmetic; raises at
    a pole conj(lam).  Zeros on one height take one_height_blaschke_logs'
    modulus, the same terms with Im lam a scalar: the same bits.  The ratio
    keeps its digits next to a zero, and a z on a zero gives near = 0, so
    log|B| = -inf exactly (select_c relies on it).  A point's value is the
    same bits whichever other points share the call, in any number or order:
    each row is reduced on its own.  select_c's pruned search, which scores
    a contour's samples a few at a time, is exact only under this
    contract."""
    _check_poles(z, lam)
    if height is not None:
        return one_height_blaschke_logs(z, lam.real, height, phase=False)
    out = np.empty(z.shape)
    lre, lim = lam.real, lam.imag
    with np.errstate(divide="ignore"):  # z at a zero: log 0 = -inf, exact
        for rows, d, f, n in row_blocks(z.size, lam.size, float, float, float):
            zc = z[rows, None]
            np.subtract(zc.real, lre, out=d)
            d *= d
            np.add(zc.imag, lim, out=f)
            f *= f
            f += d
            np.subtract(zc.imag, lim, out=n)
            n *= n
            n += d
            n /= f
            np.add.reduce(np.log(n, out=n), axis=1, out=out[rows])
    out *= 0.5
    return out


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
        return _log_abs_factors(z, self.points, self.spectrum.height)

    def tail_factor(self, z: np.ndarray, n: float) -> np.ndarray:
        """Tail product prod_{|mu| >= n} factor(z): beta_n(lambda) at a zero
        lambda with |lambda| < n."""
        return np.exp(_log_factors(z, self.points[np.abs(self.points) >= n], self.spectrum.height))

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
