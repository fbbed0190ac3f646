import tracemalloc

import numpy as np
import pytest

from pwsum.engine import (
    EngineError,
    PWFunction,
    coefficient_matrix,
    compactwise_errors,
    disk_samples,
    norm_lower_bounds,
    pw_tail_bound,
    sample_sums,
    sup_abs_G,
    tail_bounds,
)
from pwsum.genfun import GeneratingFunctionEvaluator
from pwsum.grids import line_grid
from pwsum.spectrum import Spectrum, block_rows, make_family
from pwsum.weights import naive_weights, projection_weights


@pytest.fixture(scope="module")
def lattice():
    s = make_family("shifted_integers", {"delta": 0.3}, 120)
    return s, GeneratingFunctionEvaluator(s)


def test_eval_pw_examples():
    f = PWFunction([0.0], [1.0])
    at_0, at_1 = f.eval(np.array([0.0, 1.0]))
    assert at_0 == pytest.approx(1.0)
    assert abs(at_1) < 1e-15
    f2 = PWFunction([1j], [2.0])
    z = 3 + 0.5j
    d = z - np.conj(1j)
    assert f2.eval(np.array([z]))[0] == pytest.approx(2 * np.sin(np.pi * d) / (np.pi * d))


def test_pw_removable_singularity():
    f = PWFunction([2 - 1j], [3.0])
    assert f.eval(np.conj([2 - 1j]))[0] == pytest.approx(3.0)
    near = np.conj(2 - 1j) + 1e-12
    assert f.eval(np.array([near]))[0] == pytest.approx(3.0, rel=1e-9)


def test_pw_distinct_centers():
    with pytest.raises(EngineError):
        PWFunction([1j, 1j], [1.0, 1.0])


def test_empty_support_sum(lattice):
    s, g = lattice
    f = PWFunction([0.3j], [1.0])
    _, naive = naive_weights(s, [0.1, 200.0])
    x, w = line_grid(20.0, 0.05)
    out = sample_sums(g, x, coefficient_matrix(f.eval(s.points), g, naive[:, :1]))[0]
    assert np.sqrt(np.sum(w * np.abs(out) ** 2)) == 0.0


def test_biorthogonal_reproduction(lattice):
    # F with F(lambda_k) = delta_{k,k0} is the k0-th Lagrange element itself;
    # a full-weight sum must reproduce it exactly on the grid
    s, g = lattice
    _, naive = naive_weights(s, [130.0])
    k0 = int(np.argmin(np.abs(s.points - (3 + 0.3j))))
    values = np.zeros(len(s), complex)
    values[k0] = 1.0
    x, _ = line_grid(20.0, 0.05)
    got = sample_sums(g, x, coefficient_matrix(values, g, naive))[0]
    lam0 = s.points[k0]
    direct = g.eval_G(x.astype(complex)) / (
        g.eval_G_prime_at_lambda(np.array([k0]))[0] * (x - lam0)
    )
    assert np.max(np.abs(got - direct)) < 1e-12


def test_lagrange_kernel_is_shifted_sinc(lattice):
    # for the lattice Z + i*delta the Lagrange element at lambda_k is
    # sinc(pi(z - i*delta - k)): Shannon-Kotelnikov-Whittaker on the
    # shifted line
    s, g = lattice
    k0 = int(np.argmin(np.abs(s.points - (2 + 0.3j))))
    lam0 = s.points[k0]
    zs = np.array([0.1 + 0j, 1.7 - 0.4j, -5 + 1j])
    kernel = g.eval_G(zs) / (g.eval_G_prime_at_lambda(np.array([k0]))[0] * (zs - lam0))
    shifted = zs - lam0
    want = np.sinc(shifted)
    assert np.allclose(kernel, want, rtol=1e-7, atol=1e-9)


def test_skw_naive_convergence(lattice):
    # full naive sums approach F on the grid as the radius grows
    s, g = lattice
    f = PWFunction([0.3j], [1.0])
    x, w = line_grid(30.0, 0.02)
    ref = f.eval(x)
    _, naive = naive_weights(s, [20.0, 40.0, 80.0, 121.0])
    errs = []
    for sn in sample_sums(g, x, coefficient_matrix(f.eval(s.points), g, naive)):
        errs.append(np.sqrt(np.sum(w * np.abs(sn - ref) ** 2)) / np.sqrt(np.sum(w * np.abs(ref) ** 2)))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 0.1


def test_partial_sum_linearity(lattice):
    s, g = lattice
    f1 = PWFunction([0.3j], [1.0])
    f2 = PWFunction([1.5 + 0.3j], [1.0])
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    x, _ = line_grid(10.0, 0.1)
    _, proj = projection_weights(s, [50.0])
    s1 = sample_sums(g, x, coefficient_matrix(f1.eval(s.points), g, proj))[0]
    s2 = sample_sums(g, x, coefficient_matrix(f2.eval(s.points), g, proj))[0]
    f12 = PWFunction([0.3j, 1.5 + 0.3j], [a, b])
    s12 = sample_sums(g, x, coefficient_matrix(f12.eval(s.points), g, proj))[0]
    assert np.allclose(s12, a * s1 + b * s2, rtol=1e-10, atol=1e-12)


def test_conjugation_symmetry():
    s = Spectrum(np.array([0.5 + 1j, -1 + 0.5j, 2j]))
    g = GeneratingFunctionEvaluator(s)
    s_conj = Spectrum(np.conj(s.points))
    g_conj = GeneratingFunctionEvaluator(s_conj)
    f = PWFunction([0.2 + 0.4j], [1.0 - 0.5j])
    f_conj = PWFunction(np.conj(f.centers), np.conj(f.coefficients))
    x, _ = line_grid(10.0, 0.1)
    out = sample_sums(g, x, coefficient_matrix(f.eval(s.points), g, naive_weights(s, [5.0])[1]))[0]
    A_conj = coefficient_matrix(f_conj.eval(s_conj.points), g_conj, naive_weights(s_conj, [5.0])[1])
    out_conj = sample_sums(g_conj, x, A_conj)[0]
    assert np.allclose(out_conj, np.conj(out), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("X", [40.0, 7.33])
def test_sup_abs_G_matches_the_grid_of_G(lattice, X):
    # the m + 1 nodes of the tail bound's sup|G| are the grid of spacing 2X/m
    s, g = lattice
    m = max(1, round(2 * X / max(X / 200, 0.05)))
    want = np.max(np.abs(g.eval_G(line_grid(X, 2 * X / m)[0])))
    assert abs(sup_abs_G(g, X) - want) <= 1e-13 * want


def test_tail_bounds_positive(lattice):
    s, g = lattice
    f = PWFunction([0.3j, 2.7 + 0.3j], [1.0, 0.5])
    assert pw_tail_bound(f, 60.0) > 0
    assert pw_tail_bound(f, 120.0) < pw_tail_bound(f, 30.0)


# -- compactwise -------------------------------------------------------------


def test_disk_samples_inside():
    zs = disk_samples(1 + 1j, 2.0, 100)
    assert zs.size == 100
    assert np.all(np.abs(zs - (1 + 1j)) <= 2.0 + 1e-12)


def test_compactwise_empty_support(lattice):
    s, g = lattice
    f = PWFunction([0.3j], [1.0])
    _, naive = naive_weights(s, [0.2, 121.0])
    A = coefficient_matrix(f.eval(s.points), g, naive[:, :1])
    err = compactwise_errors(f, g, A, center=0j, radius=2.0, samples=128)[0]
    zs = disk_samples(0j, 2.0, 128)
    assert err == pytest.approx(float(np.max(np.abs(f.eval(zs)))))


def test_compactwise_exact_reproduction(lattice):
    # the k0-th Lagrange element under full weights reproduces itself on K
    s, g = lattice
    _, naive = naive_weights(s, [121.0])
    k0 = int(np.argmin(np.abs(s.points - 0.3j)))
    values = np.zeros(len(s), complex)
    values[k0] = 1.0
    A = coefficient_matrix(values, g, naive)
    lam0 = s.points[k0]

    class Element:  # F = the k0-th Lagrange element itself, through the same G
        def eval(self, zs):
            return g.eval_G(zs) / (g.eval_G_prime_at_lambda(np.array([k0]))[0] * (zs - lam0))

    assert compactwise_errors(Element(), g, A, center=0j, radius=3.0, samples=128)[0] < 1e-12


def _dense_compactwise(f, g, A, zs):
    """max |G sum_k A[k, j]/(z - lambda_k) - F| over zs per column j, one
    step at a time on the column's support: the per-step formula."""
    G, F, out = g.eval_G(zs), f.eval(zs), []
    for col in A.T:
        ks = np.flatnonzero(col)
        sn = (1.0 / (zs[:, None] - g.spectrum.points[ks])) @ col[ks]
        out.append(np.max(np.abs(G * sn - F)))
    return np.array(out)


def test_compactwise_errors_nudge_a_sample_on_the_spectrum():
    # a spectrum point exactly on one sample: only that sample moves, by
    # 3e-8 + 2e-8i, and no RuntimeWarning escapes the 1/0
    zs = disk_samples(0j, 3.0, 64)
    k = int(np.flatnonzero(zs.imag > 0.5)[0])
    g = GeneratingFunctionEvaluator(Spectrum(np.array([zs[k], -2.2 + 1j, 1.3 - 1j])))
    f = PWFunction([0.3j], [1.0])
    A = coefficient_matrix(f.eval(g.spectrum.points), g, naive_weights(g.spectrum, [3.1, 10.0])[1])
    assert A[np.flatnonzero(g.spectrum.points == zs[k]), 1] != 0
    moved = zs.copy()
    moved[k] += 3e-8 + 2e-8j
    got, want = compactwise_errors(f, g, A, center=0j, radius=3.0, samples=64), _dense_compactwise(f, g, A, moved)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_compactwise_decreases(lattice):
    s, g = lattice
    f = PWFunction([0.3j], [1.0])
    _, naive = naive_weights(s, [20.0, 60.0, 121.0])
    errs = compactwise_errors(f, g, coefficient_matrix(f.eval(s.points), g, naive), radius=3.0)
    assert errs[2] < errs[0]


def _matrix_cases(lattice):
    """A lattice run's coefficient matrix: an empty column, partial naive and
    projection columns, and a full column (all 241 points)."""
    s, g = lattice
    f = PWFunction([0.3j, 1.5 - 0.2j], [1.0, 0.5 - 0.1j])
    W = np.hstack([naive_weights(s, [0.1, 20.0, 121.0])[1], projection_weights(s, [40.0])[1]])
    assert np.count_nonzero(W[:, 0]) == 0 and np.count_nonzero(W[:, 2]) == len(s)
    return f, g, W, coefficient_matrix(f.eval(s.points), g, W)


def test_matrix_evaluators_match_per_step_formula(lattice):
    f, g, W, A = _matrix_cases(lattice)
    zs = disk_samples(0.4 + 0.2j, 3.0, 97)
    want = _dense_compactwise(f, g, A, zs)
    assert np.all(np.abs(compactwise_errors(f, g, A, 0.4 + 0.2j, 3.0, 97) - want) <= 1e-12 * want)
    X = 30.0
    gmax = sup_abs_G(g, X)
    for j, (w, got) in enumerate(zip(W.T, tail_bounds(A, g, X, gmax))):  # one step, on its support
        ks = np.flatnonzero(w)
        lam, c = g.spectrum.points[ks], A[ks, j]
        d = X - np.abs(lam.real)
        reach = np.where(d <= 1.0, np.sqrt(np.pi / np.abs(lam.imag)), np.sqrt(2.0 / np.maximum(d, 1.0)))
        want = np.sum(np.abs(c) * gmax * reach)
        assert abs(got - want) <= 1e-12 * want  # the empty column: exactly 0


def test_matrix_evaluators_column_alone_matches_batch(lattice):
    # tail_bounds reduces each column on its own: no bit depends on the other columns
    _, g, _, A = _matrix_cases(lattice)
    tail = tail_bounds(A, g, 30.0, 2.5)
    for j in range(A.shape[1]):
        assert tail_bounds(A[:, j : j + 1], g, 30.0, 2.5)[0] == tail[j]


def test_coefficient_matrix_reads_only_the_support(lattice):
    # values are NaN off W's support: A is (w F)/G' on the support and
    # exactly 0 elsewhere
    s, g = lattice
    f = PWFunction([0.3j, 1.5 - 0.2j], [1.0, 0.5 - 0.1j])
    W = np.hstack([naive_weights(s, [0.1, 5.0])[1], projection_weights(s, [10.0])[1]])
    on = W != 0
    values = np.where(on.any(axis=1), f.eval(s.points), np.nan)
    A = coefficient_matrix(values, g, W)
    k, j = np.nonzero(on)
    assert np.all(np.isfinite(A))
    assert np.all(A[~on] == 0)
    assert np.array_equal(A[k, j], W[k, j] * values[k] / g.eval_G_prime_at_lambda(k))
    # delta = 300: G' underflows to 0 at every node, and no column reaches a
    # point, so neither 1/0 nor NaN values may leak into A
    far = make_family("shifted_integers", {"delta": 300.0}, 10)
    g_far = GeneratingFunctionEvaluator(far)
    assert np.all(g_far.eval_G_prime_at_lambda(np.arange(len(far))) == 0)
    A_far = coefficient_matrix(np.full(len(far), np.nan), g_far, naive_weights(far, [1.0, 299.0])[1])
    assert A_far.shape == (len(far), 2)
    assert np.all(A_far == 0)


def _dense_cauchy(grid, g):
    return 1.0 / (grid[0][:, None] - g.spectrum.points[None, :])


def test_sample_sums_match_dense_formula(lattice):
    # 401 nodes in chunks of block_rows(241) = 67 rows: the last chunk is ragged
    s, g = lattice
    grid = line_grid(10.0, 0.05)
    assert grid[0].size % block_rows(len(s)) != 0
    f = PWFunction([0.3j, 1.5 - 0.2j], [1.0, 0.5 - 0.1j])
    W = np.hstack([naive_weights(s, [0.1, 20.0, 121.0])[1], projection_weights(s, [40.0])[1]])
    A = coefficient_matrix(f.eval(s.points), g, W)
    C, G = _dense_cauchy(grid, g), g.eval_G(grid[0])
    for col, got in zip(A.T, sample_sums(g, grid[0], A)):
        want = G * (C @ col)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
    one = sample_sums(g, grid[0], A[:, 2:3])[0]
    assert np.max(np.abs(one - sample_sums(g, grid[0], A)[2])) <= 1e-12 * np.max(np.abs(one))


def _dense_probe_matrix(g, grid, atom_halfwidth, w):
    """M = Y^H D Y with Y = C[:, ks] @ Kt from the dense Cauchy matrix C,
    for one column w of W with support ks."""
    ks = np.flatnonzero(w)
    Kt = (w[ks] / g.eval_G_prime_at_lambda(ks))[:, None] * np.sinc(
        g.spectrum.points[ks, None] - np.arange(-atom_halfwidth, atom_halfwidth + 1, dtype=float)[None, :]
    )
    Y = _dense_cauchy(grid, g)[:, ks] @ Kt
    D = grid[1] * np.abs(g.eval_G(grid[0])) ** 2
    return Y.conj().T @ (D[:, None] * Y)


def _probe_cases(lattice):
    s, g = lattice
    c = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 30)
    gc = GeneratingFunctionEvaluator(c)
    grid = line_grid(10.0, 0.05)
    return [
        (g, grid, 5, np.hstack([naive_weights(s, [20.0, 121.0])[1], projection_weights(s, [40.0])[1]])),
        (gc, grid, 8, np.hstack([naive_weights(c, [10.0])[1], projection_weights(c, [10.0, 31.0])[1]])),
    ]


def test_probe_bound_matches_dense_eigenvalue(lattice):
    for g, grid, hw, W in _probe_cases(lattice):
        for w, got in zip(W.T, norm_lower_bounds(g, *grid, hw, W)):
            want = np.sqrt(np.linalg.eigvalsh(_dense_probe_matrix(g, grid, hw, w))[-1])
            assert abs(got - want) <= 1e-12 * want


def test_probe_bound_dominates_rayleigh_quotients(lattice):
    rng = np.random.default_rng(17)
    for g, grid, hw, W in _probe_cases(lattice):
        for w, got in zip(W.T, norm_lower_bounds(g, *grid, hw, W)):
            M = _dense_probe_matrix(g, grid, hw, w)
            v = rng.standard_normal((M.shape[0], 8)) + 1j * rng.standard_normal((M.shape[0], 8))
            v /= np.linalg.norm(v, axis=0)
            rq = np.real(np.einsum("ij,ij->j", v.conj(), M @ v))
            assert got >= np.sqrt(np.max(rq)) * (1 - 1e-12)


def test_probe_bound_is_homogeneous_in_the_weights(lattice):
    # a stop test absolute below 1 (|val - prev| <= 1e-12 max(val, 1)) ends
    # a power iteration early on this column scaled down: 6.3% under the bound
    s, g = lattice
    grid = line_grid(20.0, 0.05)
    _, W = naive_weights(s, [30.0])
    want = norm_lower_bounds(g, *grid, 10, W)[0] * 1e-8
    assert abs(norm_lower_bounds(g, *grid, 10, W * 1e-8)[0] - want) <= 1e-12 * want


def test_grid_pass_keeps_no_grid_by_points_matrix():
    # 8 001 nodes x 201 points: a dense complex Cauchy matrix is 25.7 MB
    s = make_family("shifted_integers", {"delta": 0.3}, 100)
    grid = line_grid(40.0, 0.01)
    dense = grid[0].size * len(s) * 16
    assert dense >= 25e6
    f = PWFunction([0.3j], [1.0])
    tracemalloc.start()
    try:
        g = GeneratingFunctionEvaluator(s)
        sample_sums(g, grid[0], coefficient_matrix(f.eval(s.points), g, naive_weights(s, [30.0, 101.0])[1]))
        norm_lower_bounds(g, *grid, 5, naive_weights(s, [30.0])[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense / 4


# -- operator norm lower bounds -----------------------------------------------


def test_probe_zero_scheme(lattice):
    s, g = lattice
    _, naive = naive_weights(s, [0.2, 121.0])
    grid = line_grid(20.0, 0.05)
    assert norm_lower_bounds(g, *grid, 15, naive[:, :1])[0] == 0.0


def test_probe_identity_configuration(lattice):
    # full-weight lattice sums reproduce integer-atom combinations: the
    # probe must sit near 1 (Shannon oracle)
    s, g = lattice
    _, naive = naive_weights(s, [121.0])
    grid = line_grid(40.0, 0.05)
    val = norm_lower_bounds(g, *grid, 15, naive)[0]
    assert val >= 0.9
    assert val <= 1.6


def test_probe_deterministic(lattice):
    s, g = lattice
    _, naive = naive_weights(s, [30.0])
    grid = line_grid(20.0, 0.05)
    a = norm_lower_bounds(g, *grid, 10, naive)[0]
    b = norm_lower_bounds(g, *grid, 10, naive)[0]
    assert a == b


def test_probe_clustered_contrast():
    # a truncation radius splitting the pairs blows up the naive norm while
    # the projection taper keeps it near 1
    s = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 30)
    g = GeneratingFunctionEvaluator(s)
    grid = line_grid(20.0, 0.05)
    _, naive = naive_weights(s, [10.0])
    _, proj = projection_weights(s, [10.0])
    nv = norm_lower_bounds(g, *grid, 12, naive)[0]
    pv = norm_lower_bounds(g, *grid, 12, proj)[0]
    assert nv > pv * 3.0


def test_probe_reuse_context(lattice):
    s, g = lattice
    grid = line_grid(20.0, 0.05)
    _, naive = naive_weights(s, [30.0, 121.0])
    v1, v2 = norm_lower_bounds(g, *grid, 10, naive)
    assert v2 >= v1 * 0.5
