"""Series engine: test functions, weighted partial sums, grid operators.

Test functions are finite combinations of shifted reproducing kernels
k_mu(z) = sin(pi(z - conj mu))/(pi(z - conj mu)); their interpolation
coefficients against the biorthogonal family are exactly the point
values F(lambda), so no time-domain computation is ever needed.  Partial
sums, the discrete Riesz projections and the weighted projector identity
all run on the uniform grids of `grids`.  On the grid, G and the Cauchy sums
of every step's partial sum take the near and far field of spectrum's line
kernels (log_G's real points and line_cauchy), and so does the norm probe's
operator for each row; the disk K stays direct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.genfun import GeneratingFunctionEvaluator, OuterEvaluator
from pwsum.grids import GridFunction, GridError, hilbert_transform
from pwsum.spectrum import cauchy_sums, collisions, line_cauchy, unique_sorted
from pwsum.weights import WeightRow


class EngineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Paley-Wiener test functions
# ---------------------------------------------------------------------------


@dataclass
class PWFunction:
    """F(z) = sum c_j sinc(pi(z - conj mu_j)); atoms (mu_j, c_j), mu distinct."""

    centers: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.centers, dtype=complex).ravel()
        c = np.asarray(self.coefficients, dtype=complex).ravel()
        if mu.size != c.size:
            raise EngineError("centers and coefficients must align")
        if unique_sorted(mu).size != mu.size:
            raise EngineError("atom centers must be distinct")
        self.centers = mu
        self.coefficients = c

    def eval(self, z: np.ndarray) -> np.ndarray:
        d = z[:, None] - np.conj(self.centers)
        return (self.coefficients * np.sinc(d)).sum(axis=-1)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.eval(z)


def pw_tail_bound(f: PWFunction, X: float) -> float:
    """Crude upper estimate for the L2 mass of F beyond [-X, X]."""
    out = 0.0
    for mu, c in zip(f.centers, f.coefficients):
        d = max(X - abs(mu.real), 1.0)
        amp = abs(c) * np.cosh(np.pi * abs(mu.imag)) / np.pi
        out += amp * np.sqrt(2.0 / d)
    return float(out)


# ---------------------------------------------------------------------------
# Lagrange partial sums
# ---------------------------------------------------------------------------


@dataclass
class LagrangeSum:
    """Finite weighted interpolation series: pairs (k, w * F(lambda_k)/G'(lambda_k))."""

    indices: np.ndarray
    coefficients: np.ndarray

    def __len__(self):
        return int(self.indices.size)


def build_lagrange_sum(values: np.ndarray, gen, row: WeightRow) -> LagrangeSum:
    """The row's sum, from values = F(lambda_k) at every spectrum index k."""
    coeffs = row.weights * values[row.indices] / gen.eval_G_prime_at_lambda(row.indices)
    return LagrangeSum(indices=row.indices, coefficients=coeffs)


def sample_sums(
    gen: GeneratingFunctionEvaluator, grid: GridFunction, sums: list[LagrangeSum]
) -> list[GridFunction]:
    """G(x) * sum_k a_k/(x - lambda_k) on the grid for every sum, in one pass
    over the grid: the sums are the columns of one (points x sums)
    coefficient matrix, whose Cauchy sums line_cauchy takes panel by panel,
    and the schedule steps share one G on the grid."""
    G = gen.eval_G(grid.x)
    A = np.zeros((len(gen.spectrum), len(sums)), dtype=complex)
    for j, ls in enumerate(sums):
        A[ls.indices, j] = ls.coefficients
    out = np.ascontiguousarray(line_cauchy(grid.x, gen.spectrum.points, A).T)
    out *= G
    return [grid.copy_with(v) for v in out]


def sup_abs_G(gen: GeneratingFunctionEvaluator, X: float) -> float:
    """max|G| on m + 1 equispaced nodes of [-X, X], spacing about
    max(X/200, 0.05), with m a whole number whatever X is: exp of the largest
    log|G| on the line, for lagrange_tail_bound."""
    m = max(1, round(2 * X / max(X / 200, 0.05)))
    return float(np.exp(np.max(gen.log_abs_G(np.linspace(-X, X, m + 1)))))


def lagrange_tail_bound(ls: LagrangeSum, gen, X: float, gmax: float) -> float:
    """Crude upper estimate for the sum's L2 mass beyond [-X, X], given
    gmax = sup_abs_G(gen, X)."""
    if not len(ls):
        return 0.0
    lam = gen.spectrum.points[ls.indices]
    d = X - np.abs(lam.real)
    reach = np.where(d <= 1.0, np.sqrt(np.pi / np.abs(lam.imag)), np.sqrt(2.0 / np.maximum(d, 1.0)))
    return float(np.sum(np.abs(ls.coefficients) * gmax * reach))


def l2_error(a: GridFunction, b: GridFunction) -> float:
    if not a.same_grid(b):
        raise GridError("grid mismatch in l2_error")
    return a.copy_with(a.values - b.values).norm()


# ---------------------------------------------------------------------------
# Riesz projections
# ---------------------------------------------------------------------------


def riesz_project(g: GridFunction, sign: str) -> GridFunction:
    """Discrete Riesz projection P+/P- = (I +- iH)/2."""
    if sign not in ("+", "-"):
        raise EngineError("sign must be '+' or '-'")
    H = hilbert_transform(g)
    s = 1.0 if sign == "+" else -1.0
    return g.copy_with(0.5 * (g.values + s * 1j * H.values))


# ---------------------------------------------------------------------------
# Weighted projector identity (grid bridge for the one-sided projector)
# ---------------------------------------------------------------------------


@dataclass
class ProjectorCheckReport:
    mismatch: float
    error_bar: float
    operator_norm_scale: float


def _projector_sides(f, gen, b_plus, n, grid, outer):
    """LHS (I - B_n P+ B_n^#) Phi and RHS interpolation sum on the grid."""
    x = grid.x
    phi_grid = f.eval(x.astype(complex)) * np.exp(1j * np.pi * x) / outer.boundary_on(grid)
    bn_x = b_plus.eval_B(x.astype(complex), cutoff=n)

    inner = riesz_project(grid.copy_with(np.conj(bn_x) * phi_grid), "+")
    lhs = phi_grid - bn_x * inner.values

    inside = np.flatnonzero(gen.spectrum.moduli < n)
    lam = gen.spectrum.points[inside]
    phi_lam = f.eval(lam) * np.exp(1j * np.pi * lam) / outer.eval_outer(lam)
    rhs = bn_x * cauchy_sums(x, lam, phi_lam / b_plus.eval_B_prime_at(inside, cutoff=n))
    return grid.copy_with(lhs), grid.copy_with(rhs), phi_grid


def weighted_projector_check(
    f: PWFunction,
    gen: GeneratingFunctionEvaluator,
    b_plus: BlaschkeEvaluator,
    n: float,
    grid: GridFunction,
    outer: OuterEvaluator | None = None,
) -> ProjectorCheckReport:
    """Grid mismatch between the operator form I - B_n P+ B_n^# applied to
    Phi = F e^{i pi x}/omega and the direct interpolation sum over the
    points inside radius n.  Defined for spectra in the upper half-plane.

    The error bar combines an h-refinement (Richardson) estimate for the
    discrete Hilbert transforms with analytic bounds for the quadrature
    tails of the outer factor.
    """
    if np.any(gen.spectrum.points.imag <= 0):
        raise EngineError("projector check is defined for upper half-plane spectra")
    if outer is None:
        outer = OuterEvaluator.from_generating(gen, X=max(4 * grid.X, 200.0), h=grid.h)

    lhs, rhs, phi_grid = _projector_sides(f, gen, b_plus, n, grid, outer)
    mism = l2_error(lhs, rhs)

    # --- error accounting ---------------------------------------------------
    # (a) discretization of the Hilbert transforms: repeat at 2h, Richardson
    coarse = GridFunction(grid.X, 2 * grid.h, grid.values[::2])
    outer_c = OuterEvaluator(
        GridFunction(outer.grid.X, 2 * outer.grid.h, outer.grid.values[::2])
    )
    lhs_c, rhs_c, _ = _projector_sides(f, gen, b_plus, n, coarse, outer_c)
    diff_lhs = lhs.values[::2] - lhs_c.values
    diff_rhs = rhs.values[::2] - rhs_c.values
    w_c = coarse.trapezoid_weights()
    bar_h = float(np.sqrt(np.sum(w_c * np.abs(diff_lhs - diff_rhs) ** 2))) / 3.0

    # (b) grid-end truncation of P+ applied to B_n^# Phi
    edge = np.abs(grid.x) >= 0.95 * grid.X
    a_end = float(np.mean(np.abs(phi_grid[edge])))
    bar_tail = a_end * np.sqrt(2.0 * grid.X) * 2.0 / (np.pi * 0.9)

    # (c) boundary-phase window truncation of the outer factor at |x| <= X:
    # |theta error| <= max|phi_tilde| * 2 X_out/(pi (X_out^2 - x^2)) per unit mass
    phimax = float(np.max(np.abs(outer._phit)))
    xo = outer.grid.X
    theta_err = phimax * 2.0 * xo / (np.pi * max(xo**2 - grid.X**2, xo))
    w = grid.trapezoid_weights()
    bar_phase = float(np.sqrt(np.sum(w * np.abs(phi_grid) ** 2))) * theta_err

    bar = bar_h + bar_tail + bar_phase
    scale = float(np.sqrt(np.sum(w * np.abs(phi_grid) ** 2)))
    return ProjectorCheckReport(mismatch=mism, error_bar=bar, operator_norm_scale=scale)


# ---------------------------------------------------------------------------
# Operator norm probe
# ---------------------------------------------------------------------------


class NormProbe:
    """Lower bounds for ||F -> S_n(W, F)|| on the span of integer-lattice atoms.

    Atoms k_m with integer real centers are orthonormal in the
    Paley-Wiener space, so the coefficient Euclidean norm is exactly
    ||F||, and the grid operator of a row gives a true lower bound
    sigma_max <= ||T_n||.  Its column m is G Y[:, m], with
    Y[:, m] = sum_k (w_k/G'(lambda_k)) k_m(lambda_k)/(x - lambda_k), so
    sigma_max^2 is the largest eigenvalue of Y^H D Y, D = (trapezoid
    weight) |G|^2.  The probe keeps the atom matrix and D; each row takes
    its Y from one line_cauchy pass and drops it.  Raises EngineError
    where D or a row's operator is not finite.
    """

    def __init__(self, gen: GeneratingFunctionEvaluator, grid: GridFunction, atom_halfwidth: int):
        self.gen = gen
        self.grid = grid
        ms = np.arange(-atom_halfwidth, atom_halfwidth + 1, dtype=float)
        self.atom_centers = ms
        self._K = np.sinc(gen.spectrum.points[:, None] - ms[None, :])
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
            self._D = grid.trapezoid_weights() * np.exp(2.0 * gen.log_abs_G(grid.x))
        if not np.isfinite(self._D).all():
            raise EngineError("|G|^2 is not finite on the grid: the norm probe's weights overflow")

    def lower_bound(self, row: WeightRow) -> float:
        """sqrt of the largest eigenvalue of Y^H D Y (eigvalsh): the row's
        sigma_max, exactly, with no iteration."""
        ks = row.indices
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
            Kt = (row.weights / self.gen.eval_G_prime_at_lambda(ks))[:, None] * self._K[ks, :]
            Y = line_cauchy(self.grid.x, self.gen.spectrum.points[ks], Kt)
            M = Y.conj().T @ (self._D[:, None] * Y)
        if not np.isfinite(M).all():
            raise EngineError(f"the norm probe's operator is not finite at n={row.n:.12e}")
        return float(np.sqrt(max(np.linalg.eigvalsh(M)[-1], 0.0)))


# ---------------------------------------------------------------------------
# Compactwise (sup on a disk) error
# ---------------------------------------------------------------------------


def disk_samples(center: complex, radius: float, count: int) -> np.ndarray:
    """Deterministic sunflower layout over the closed disk."""
    k = np.arange(1, count + 1)
    r = radius * np.sqrt(k / count)
    th = 2 * np.pi * k * ((np.sqrt(5) - 1) / 2)
    return center + r * np.exp(1j * th)


@dataclass
class DiskProbe:
    """Sample points of the disk K (nudged off the spectrum) with G and F
    there, built once per run and shared by every step's compactwise_error."""

    points: np.ndarray
    G: np.ndarray
    F: np.ndarray


def disk_probe(
    f: PWFunction,
    gen: GeneratingFunctionEvaluator,
    center: complex = 0j,
    radius: float = 3.0,
    samples: int = 256,
) -> DiskProbe:
    """The probe on `samples` sunflower points of |z - center| <= radius; a
    point with |z - lambda|^2 < 1e-16 is moved by 3e-8 + 2e-8i.  Raises
    EngineError where G or F is not finite."""
    zs = disk_samples(center, radius, samples)
    zs[collisions(zs, gen.spectrum.points, np.nextafter(1e-16, 0.0))] += 3e-8 + 2e-8j
    with np.errstate(over="ignore", invalid="ignore"):
        probe = DiskProbe(points=zs, G=gen.eval_G(zs), F=f.eval(zs))
    if not np.isfinite([probe.G, probe.F]).all():
        raise EngineError(f"G or F is not finite on the disk K of center {center} and radius {radius}")
    return probe


def compactwise_error(probe: DiskProbe, gen: GeneratingFunctionEvaluator, ls: LagrangeSum) -> float:
    """sup |S_n - F| over the probe's sample points of the disk K, for the
    step's sum S_n = ls."""
    sn = cauchy_sums(probe.points, gen.spectrum.points[ls.indices], ls.coefficients)
    return float(np.max(np.abs(probe.G * sn - probe.F)))
