"""Series engine: test functions, weighted partial sums, grid operators.

Test functions are finite combinations of shifted reproducing kernels
k_mu(z) = sin(pi(z - conj mu))/(pi(z - conj mu)); their interpolation
coefficients against the biorthogonal family are exactly the point
values F(lambda), so no time-domain computation is ever needed.  A
summation method is linear, so a run's steps are the columns of one
(points x steps) coefficient matrix A = w F/G' (coefficient_matrix), and
each evaluator takes all of them at once: the partial sums on the grid
(sample_sums), the sup error on the disk K (compactwise_errors) and the
tail bounds (tail_bounds).  Partial sums, the discrete Riesz projections
and the weighted projector identity all run on the uniform grids of
`grids`.  On the grid, G and every Cauchy sum (the partial sums, the
projector's interpolation sum and the norm probe's operator for each row)
take the near and far field of spectrum's line kernels (log_G's real
points and line_cauchy); the disk K stays direct (cauchy_sums).
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


def coefficient_matrix(values: np.ndarray, gen, rows: list[WeightRow]) -> np.ndarray:
    """The run's steps as the columns of one (points x steps) matrix A:
    column j holds w_j F(lambda_k)/G'(lambda_k) on row j's indices k and 0
    elsewhere, from values = F(lambda_k) at every spectrum index k."""
    A = np.zeros((len(gen.spectrum), len(rows)), dtype=complex)
    for j, row in enumerate(rows):
        A[row.indices, j] = row.weights * values[row.indices] / gen.eval_G_prime_at_lambda(row.indices)
    return A


def sample_sums(gen: GeneratingFunctionEvaluator, grid: GridFunction, A: np.ndarray) -> np.ndarray:
    """G(x) * sum_k A[k, j]/(x - lambda_k) on the grid for every column j of
    A: the (steps x grid) partial sums, in one pass over the grid, whose
    Cauchy sums line_cauchy takes panel by panel; the steps share one G."""
    out = np.ascontiguousarray(line_cauchy(grid.x, gen.spectrum.points, A).T)
    out *= gen.eval_G(grid.x)
    return out


def sup_abs_G(gen: GeneratingFunctionEvaluator, X: float) -> float:
    """max|G| on m + 1 equispaced nodes of [-X, X], spacing about
    max(X/200, 0.05), with m a whole number whatever X is: exp of the largest
    log|G| on the line, for tail_bounds."""
    m = max(1, round(2 * X / max(X / 200, 0.05)))
    return float(np.exp(np.max(gen.log_abs_G(np.linspace(-X, X, m + 1)))))


def tail_bounds(A: np.ndarray, gen, X: float, gmax: float) -> np.ndarray:
    """Crude upper estimate for each column's L2 mass beyond [-X, X], given
    gmax = sup_abs_G(gen, X): sum_k |A[k, j]| gmax reach_k, column by column,
    so no bit of a column depends on the others."""
    lam = gen.spectrum.points
    d = X - np.abs(lam.real)
    reach = np.where(d <= 1.0, np.sqrt(np.pi / np.abs(lam.imag)), np.sqrt(2.0 / np.maximum(d, 1.0)))
    terms = np.ascontiguousarray(np.abs(A).T)
    terms *= gmax
    terms *= reach
    return np.add.reduce(terms, axis=1)


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
    rhs = bn_x * line_cauchy(x, lam, (phi_lam / b_plus.eval_B_prime_at(inside, cutoff=n))[:, None])[:, 0]
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


def compactwise_errors(
    f: PWFunction,
    gen: GeneratingFunctionEvaluator,
    A: np.ndarray,
    center: complex = 0j,
    radius: float = 3.0,
    samples: int = 256,
) -> np.ndarray:
    """sup |S_j - F| over `samples` sunflower points z of the disk K,
    |z - center| <= radius, for every column j of A, with
    S_j(z) = G(z) sum_k A[k, j]/(z - lambda_k): one call per run, G and F
    taken once.  A sample with |z - lambda|^2 < 1e-16 is moved by
    3e-8 + 2e-8i.  Each column's sums are one contiguous row, so no bit of
    a column depends on the others.  Raises EngineError where G or F is not
    finite on K."""
    zs = disk_samples(center, radius, samples)
    zs[collisions(zs, gen.spectrum.points, np.nextafter(1e-16, 0.0))] += 3e-8 + 2e-8j
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        G, F = gen.eval_G(zs), f.eval(zs)
    if not np.isfinite([G, F]).all():
        raise EngineError(f"G or F is not finite on the disk K of center {center} and radius {radius}")
    S = np.ascontiguousarray(cauchy_sums(zs, gen.spectrum.points, A).T)  # a row per column
    S *= G
    S -= F
    return np.max(np.abs(S), axis=1)
