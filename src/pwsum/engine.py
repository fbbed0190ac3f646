"""Series engine: test functions, weighted partial sums, grid operators.

Test functions are finite combinations of shifted reproducing kernels
k_mu(z) = sin(pi(z - conj mu))/(pi(z - conj mu)); their interpolation
coefficients against the biorthogonal family are exactly the point
values F(lambda), so no time-domain computation is ever needed.  A
summation method is its (points x steps) weight matrix W, so a run's steps
are the columns of one coefficient matrix A = w F/G' (coefficient_matrix),
and each evaluator takes all of them at once: the partial sums on the grid
(sample_sums), the sup error on the disk K (compactwise_errors), the tail
bounds (tail_bounds) and the operator-norm lower bounds
(norm_lower_bounds, which reads W itself).  Partial sums, the discrete
Riesz projections and the weighted projector identity all run on plain
arrays at the nodes of grids.line_grid(X, h), and every L2 norm is the sum
with its trapezoid weights.  On the grid, G and every Cauchy sum (the
partial sums, the projector's interpolation sum and each column's norm
operator) take the near and far field of spectrum's line kernels: G and
the partial sums from one walk (log_G_sums at real points), the others
from line_cauchy.  The disk K sums directly, with the same complex kernel
(log_G_sums at non-real points: cauchy_sums).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.genfun import GeneratingFunctionEvaluator, OuterEvaluator
from pwsum.grids import GridError, hilbert_transform, line_grid
from pwsum.spectrum import collisions, line_cauchy, unique_sorted


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


def coefficient_matrix(values: np.ndarray, gen, W: np.ndarray) -> np.ndarray:
    """The run's steps as the columns of one (points x steps) matrix A:
    A[k, j] = (W[k, j] F(lambda_k))/G'(lambda_k) on W's support and 0
    elsewhere, from values = F(lambda_k) at every spectrum index k, in one
    gather; values and G' are read on the support only."""
    k, j = np.nonzero(W)
    A = np.zeros(W.shape, dtype=complex)
    A[k, j] = W[k, j] * values[k] / gen.eval_G_prime_at_lambda(k)
    return A


def sample_sums(gen: GeneratingFunctionEvaluator, x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """G(x) * sum_k A[k, j]/(x - lambda_k) at the real nodes x for every
    column j of A: the (steps x nodes) partial sums, whose G and Cauchy sums
    come from one walk of the line kernels (log_G_sums); the steps share
    one G."""
    log_g, sums = gen.log_G_sums(x, A)
    out = np.ascontiguousarray(sums.T)
    out *= np.exp(log_g)
    return out


def sup_abs_G(gen: GeneratingFunctionEvaluator, X: float) -> float:
    """max|G| on the nodes of line_grid(X, max(X/200, 0.05)): exp of the
    largest log|G| on the line, for tail_bounds."""
    x, _ = line_grid(X, max(X / 200, 0.05))
    return float(np.exp(np.max(gen.log_abs_G(x))))


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


# ---------------------------------------------------------------------------
# Riesz projections
# ---------------------------------------------------------------------------


def riesz_project(values: np.ndarray, X: float, h: float, sign: str) -> np.ndarray:
    """Discrete Riesz projection P+/P- = (I +- iH)/2 of the samples of f on
    line_grid(X, h), at the same nodes."""
    if sign not in ("+", "-"):
        raise EngineError("sign must be '+' or '-'")
    s = 1.0 if sign == "+" else -1.0
    return 0.5 * (values + s * 1j * hilbert_transform(values, X, h))


# ---------------------------------------------------------------------------
# Weighted projector identity (grid bridge for the one-sided projector)
# ---------------------------------------------------------------------------


def _projector_sides(f, gen, b_plus, n, X, h, outer):
    """Phi, the LHS (I - B_n P+ B_n^#) Phi and the RHS interpolation sum at
    the nodes of line_grid(X, h)."""
    x, _ = line_grid(X, h)
    phi = f.eval(x.astype(complex)) * np.exp(1j * np.pi * x) / outer.boundary_on(X, h)
    bn_x = b_plus.eval_B(x.astype(complex), cutoff=n)
    lhs = phi - bn_x * riesz_project(np.conj(bn_x) * phi, X, h, "+")

    inside = np.flatnonzero(gen.spectrum.moduli < n)
    lam = gen.spectrum.points[inside]
    phi_lam = f.eval(lam) * np.exp(1j * np.pi * lam) / outer.eval_outer(lam)
    rhs = bn_x * line_cauchy(x, lam, (phi_lam / b_plus.eval_B_prime_at(inside, cutoff=n))[:, None])[:, 0]
    return phi, lhs, rhs


def weighted_projector_check(
    f: PWFunction,
    gen: GeneratingFunctionEvaluator,
    b_plus: BlaschkeEvaluator,
    n: float,
    X: float,
    h: float,
    outer: OuterEvaluator | None = None,
) -> np.ndarray:
    """[mismatch, error_bar, scale]: the L2 mismatch on line_grid(X, h)
    between the operator form I - B_n P+ B_n^# applied to
    Phi = F e^{i pi x}/omega and the direct interpolation sum over the
    points inside radius n, its error bar, and ||Phi|| on the grid, the
    operator's scale.  Defined for spectra in the upper half-plane.

    The error bar combines an h-refinement (Richardson) estimate for the
    discrete Hilbert transforms, from a repeat on every other node of the
    grid and of the outer factor's boundary grid (each needs an even number
    of intervals, or GridError), with analytic bounds for the quadrature
    tails of the outer factor.
    """
    if np.any(gen.spectrum.points.imag <= 0):
        raise EngineError("projector check is defined for upper half-plane spectra")
    if outer is None:
        outer = OuterEvaluator.from_generating(gen, X=max(4 * X, 200.0), h=h)
    x, w = line_grid(X, h)
    if x.size % 2 == 0 or outer.x.size % 2 == 0:
        raise GridError("the projector check repeats at 2h: each grid needs an even number of intervals")

    phi, lhs, rhs = _projector_sides(f, gen, b_plus, n, X, h, outer)
    mism = np.sqrt(np.sum(w * np.abs(lhs - rhs) ** 2))
    scale = np.sqrt(np.sum(w * np.abs(phi) ** 2))

    # --- error accounting ---------------------------------------------------
    # (a) discretization of the Hilbert transforms: repeat at 2h, Richardson
    outer_c = OuterEvaluator(outer.X, 2 * outer.h, outer.log_modulus[::2])
    _, lhs_c, rhs_c = _projector_sides(f, gen, b_plus, n, X, 2 * h, outer_c)
    diff = (lhs[::2] - lhs_c) - (rhs[::2] - rhs_c)
    _, w_c = line_grid(X, 2 * h)
    bar_h = np.sqrt(np.sum(w_c * np.abs(diff) ** 2)) / 3.0

    # (b) grid-end truncation of P+ applied to B_n^# Phi
    a_end = np.mean(np.abs(phi[np.abs(x) >= 0.95 * X]))
    bar_tail = a_end * np.sqrt(2.0 * X) * 2.0 / (np.pi * 0.9)

    # (c) boundary-phase window truncation of the outer factor at |x| <= X:
    # |theta error| <= max|phi_tilde| * 2 X_out/(pi (X_out^2 - x^2)) per unit mass
    phimax = np.max(np.abs(outer._phit))
    xo = outer.X
    theta_err = phimax * 2.0 * xo / (np.pi * max(xo**2 - X**2, xo))
    return np.array([mism, bar_h + bar_tail + scale * theta_err, scale])


# ---------------------------------------------------------------------------
# Operator norm lower bounds
# ---------------------------------------------------------------------------


def norm_lower_bounds(gen: GeneratingFunctionEvaluator, x: np.ndarray, w: np.ndarray, atom_halfwidth: int,
                      W: np.ndarray) -> np.ndarray:
    """Lower bounds for ||F -> S_n(W, F)|| on the span of integer-lattice
    atoms, one per column of W.

    Atoms k_m with integer real centers |m| <= atom_halfwidth are
    orthonormal in the Paley-Wiener space, so the coefficient Euclidean
    norm is exactly ||F||, and the operator of a column on the nodes x,
    with their trapezoid weights w (line_grid), gives a true lower bound
    sigma_max <= ||T_n||.  Its column m is G Y[:, m], with
    Y[:, m] = sum_k (W[k, j]/G'(lambda_k)) k_m(lambda_k)/(x - lambda_k) over
    the column's support, so sigma_max^2 is the largest eigenvalue of
    Y^H D Y, D = w |G|^2: one line_cauchy pass per column,
    then eigvalsh, exactly, with no iteration.  Raises EngineError where D
    or a column's operator is not finite.
    """
    ms = np.arange(-atom_halfwidth, atom_halfwidth + 1, dtype=float)
    K = np.sinc(gen.spectrum.points[:, None] - ms[None, :])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        D = w * np.exp(2.0 * gen.log_abs_G(x))
    if not np.isfinite(D).all():
        raise EngineError("|G|^2 is not finite on the grid: the norm probe's weights overflow")
    out = np.empty(W.shape[1])
    for j, col in enumerate(W.T):
        ks = np.flatnonzero(col)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
            Kt = (col[ks] / gen.eval_G_prime_at_lambda(ks))[:, None] * K[ks, :]
            Y = line_cauchy(x, gen.spectrum.points[ks], Kt)
            M = Y.conj().T @ (D[:, None] * Y)
        if not np.isfinite(M).all():
            raise EngineError(f"the norm probe's operator is not finite in column {j} of W")
        out[j] = np.sqrt(max(np.linalg.eigvalsh(M)[-1], 0.0))
    return out


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
    taken once, with the Cauchy sums of every column (log_G_sums).  A
    sample with |z - lambda|^2 < 1e-16 is moved by 3e-8 + 2e-8i.  Raises
    EngineError where G or F is not finite on K."""
    zs = disk_samples(center, radius, samples)
    zs[collisions(zs, gen.spectrum.points, np.nextafter(1e-16, 0.0))] += 3e-8 + 2e-8j
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        log_g, S = gen.log_G_sums(zs, A)
        G, F = np.exp(log_g), f.eval(zs)
    if not np.isfinite([G, F]).all():
        raise EngineError(f"G or F is not finite on the disk K of center {center} and radius {radius}")
    S *= G[:, None]
    S -= F[:, None]
    return np.max(np.abs(S), axis=0)
