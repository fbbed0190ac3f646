"""The panel-tree kernels of the line (spectrum.line_log_abs,
line_log_products and line_cauchy, and the arg output of the walk) against
the direct kernels they replaced, kept here as the oracles; the one walk
against each of its outputs alone; the tree's work and transfer matrices;
and G on a real line (log_G) and the partial sums on it (sample_sums)
against mpmath and the dense product."""

import mpmath
import numpy as np
import pytest

from pwsum import spectrum
from pwsum.engine import sample_sums
from pwsum.genfun import CollisionError, GeneratingFunctionEvaluator
from pwsum.grids import line_grid
from pwsum.spectrum import (
    PANEL_POINTS,
    PANEL_WIDTH,
    Spectrum,
    line_cauchy,
    line_log_abs,
    line_log_products,
    make_family,
)

TOL = 1e-12  # absolute, in the log (and in the argument, modulo 2 pi)
CAUCHY_TOL = 1e-13  # of sum_k |a_k|/|x - lambda_k|


def line_arg(x, a, lam):
    """The arg output of the walk alone: sum_j [arctan2(Im lam_j - a,
    Re lam_j - x_i) - arg lam_j] per real x_i (line_log_products' Im at a = 0)."""
    return spectrum._line_sums(x, lam, a, arg=True)[0]


def direct_line_log_abs(x, a, lam):
    """sum_j log|1 - (x_i + ia)/lam_j| over every pair: half of
    sum_j log(((x_i - Re lam_j)^2 + (a - Im lam_j)^2)/|lam_j|^2), one row per
    node, in chunks of 256 rows."""
    out = np.zeros(x.shape)
    log_l2 = np.log(lam.real * lam.real + lam.imag * lam.imag)
    dy2 = (a - lam.imag) ** 2
    for i in range(0, x.size, 256):
        d2 = (x[i : i + 256, None] - lam.real) ** 2 + dy2
        out[i : i + 256] = 0.5 * (np.log(d2) - log_l2).sum(axis=1)
    return out


def direct_line_arg(x, a, lam):
    """sum_j [arctan2(Im lam_j - a, Re lam_j - x_i) - arg lam_j] over every
    pair, one row per node, in chunks of 256 rows."""
    out = np.zeros(x.shape)
    arg = np.arctan2(lam.imag, lam.real)
    for i in range(0, x.size, 256):
        out[i : i + 256] = (np.arctan2(lam.imag - a, lam.real - x[i : i + 256, None]) - arg).sum(axis=1)
    return out


def dense_cauchy(x, lam, A):
    """The dense Cauchy product 1/(x_i - lam_k) @ A, and its scale
    sum_k |A[k, s]|/|x_i - lam_k|."""
    C = 1.0 / (x[:, None] - lam)
    return C @ A, np.abs(C) @ np.abs(A)


def arg_error(got, want):
    """max |got - want| modulo 2 pi."""
    return np.max(np.abs(np.angle(np.exp(1j * (got - want))))) if got.size else 0.0


def coefficients(n, cols=3):
    rng = np.random.default_rng(11)
    return rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))


def dense_list():
    """The 599 points x + 0.5i, x = 0.05, 0.10, ..., 29.95."""
    return np.array([float(f"{k * 0.05:.2f}") for k in range(1, 600)]) + 0.5j


def both_halfplanes():
    """150 points with real parts in [-30, 30] and |Im| in [0.1, 2], in both
    half-planes."""
    rng = np.random.default_rng(3)
    return rng.uniform(-30.0, 30.0, 150) + 1j * rng.choice([-1.0, 1.0], 150) * rng.uniform(0.1, 2.0, 150)


SPECTRA = {
    "shifted_integers": make_family("shifted_integers", {"delta": 0.3}, 200).points,
    "kadec_perturbed": make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 100).points,
    "clustered_pairs": make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 200).points,
    "dense_list": dense_list(),
    "both_halfplanes": both_halfplanes(),
}


@pytest.mark.parametrize("a", [0.0, 0.3, -2.0])
@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_panels_match_the_direct_kernel(name, a):
    # nodes past the window's ends, 0.0137 off the grid of the points' real
    # parts: a = 0.3 is the height of the lattice families' points
    lam = SPECTRA[name]
    reach = np.max(np.abs(lam.real)) + 30.0
    x = np.linspace(-reach, reach, 4001) + 0.0137
    want = direct_line_log_abs(x, a, lam)
    got = line_log_abs(x, a, lam)
    assert np.max(np.abs(got - want)) <= TOL, (name, a, np.max(np.abs(got - want)), np.max(np.abs(want)))


def test_dense_list_where_the_log_is_large():
    # |log|G|| reaches ~938 on [-40, 40]; the error stays at a few ulps of it
    lam = dense_list()
    x = np.linspace(-40.0, 40.0, 8001)
    want = direct_line_log_abs(x, 0.0, lam)
    assert np.max(np.abs(want)) > 900
    assert np.max(np.abs(line_log_abs(x, 0.0, lam) - want)) <= TOL


def test_nodes_on_panel_edges_and_on_chebyshev_points():
    # a node on a Chebyshev point takes the far sum's sample itself, not 0/0;
    # the points are formed as the kernel forms them
    lam = SPECTRA["clustered_pairs"]
    ks = np.arange(-12, 12)
    edges = ks * PANEL_WIDTH
    left = ks[:, None] * PANEL_WIDTH
    cheb = ((left + 0.5 * PANEL_WIDTH) + spectrum._CHEB).ravel()
    assert cheb.size == ks.size * PANEL_POINTS
    A = coefficients(lam.size)
    for x in (edges, cheb, np.concatenate([edges, cheb])):
        got = line_log_abs(x, 0.0, lam)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - direct_line_log_abs(x, 0.0, lam))) <= TOL
        got = line_arg(x, 0.0, lam)
        assert np.all(np.isfinite(got))
        assert arg_error(got, direct_line_arg(x, 0.0, lam)) <= TOL
        got, (want, scale) = line_cauchy(x, lam, A), dense_cauchy(x, lam, A)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / scale) <= CAUCHY_TOL


def level_nodes():
    """The edges and Chebyshev points of the panels of levels 0-6 on
    [-256, 256], formed as the kernel forms them."""
    x = []
    for level in range(7):
        width = PANEL_WIDTH * 2.0**level
        left = np.arange(-256.0 / width, 256.0 / width)[:, None] * width
        x += [left.ravel(), ((left + 0.5 * width) + 2.0**level * spectrum._CHEB).ravel()]
    return np.concatenate(x)


def test_nodes_on_the_edges_and_chebyshev_points_of_every_level():
    # 801 points on [-200, 200]: the leaves below level 3 take their far sums
    # down the tree, level 5's panels near 0 hold every point (the roots);
    # the points of a level are formed as the kernel forms them
    lam = SPECTRA["clustered_pairs"]
    x = level_nodes()
    assert np.max(np.abs(line_log_abs(x, 0.0, lam) - direct_line_log_abs(x, 0.0, lam))) <= TOL
    assert arg_error(line_arg(x, 0.0, lam), direct_line_arg(x, 0.0, lam)) <= TOL
    A = coefficients(lam.size)
    got, (want, scale) = line_cauchy(x, lam, A), dense_cauchy(x, lam, A)
    assert np.max(np.abs(got - want) / scale) <= CAUCHY_TOL


def test_diagnose_clustered_line_matches_the_direct_kernel():
    # the 16 001 nodes of [-80, 80] at h 0.01 and 2 401 points on [-600, 600]
    lam = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 600).points
    x, _ = line_grid(80.0, 0.01)
    assert x.size == 16001
    assert np.max(np.abs(line_log_abs(x, 0.0, lam) - direct_line_log_abs(x, 0.0, lam))) <= TOL


def single_level_pairs(x, lam):
    """(near, far) pairs of a walk without the tree: each occupied leaf
    [4k, 4k + 4] sums its near points, |Re lam - (4k + 2)| <= 10, at its
    nodes and all others at its 16 Chebyshev points."""
    lre = np.sort(lam.real)
    k, nodes = np.unique(np.floor(x / PANEL_WIDTH), return_counts=True)
    near = np.searchsorted(lre, PANEL_WIDTH * k + 12.0, "right") - np.searchsorted(lre, PANEL_WIDTH * k - 8.0, "left")
    return int(np.sum(nodes * near)), int(np.sum(PANEL_POINTS * (lre.size - near)))


def counted_pairs(monkeypatch, x, lam):
    """The pairs line_log_abs sums, through a wrapper of _pair_sums."""
    pairs, kernel = [0], spectrum._pair_sums

    def counting(t, lre, log_terms, arg_terms):
        pairs[0] += t.size * lre.size
        return kernel(t, lre, log_terms, arg_terms)

    monkeypatch.setattr(spectrum, "_pair_sums", counting)
    line_log_abs(x, 0.0, lam)
    return pairs[0]


def test_the_tree_cuts_the_far_pairs_of_diagnose_clustered(monkeypatch):
    lam = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 600).points
    x, _ = line_grid(80.0, 0.01)
    near, far = single_level_pairs(x, lam)
    assert far > 1.5e6
    assert counted_pairs(monkeypatch, x, lam) - near <= 0.25e6


def test_a_small_spectrum_keeps_the_single_level_walk(monkeypatch):
    # 201 points: no parent's far set reaches TREE_MIN_FAR columns, so every
    # leaf sums its far points directly (factorize-line's spectrum and line)
    lam = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 100).points
    x, _ = line_grid(150.0, 0.01)
    assert counted_pairs(monkeypatch, x, lam) == sum(single_level_pairs(x, lam))


def test_transfer_matrices_reproduce_polynomials():
    # T_m, m <= 15, at a panel's Chebyshev points, carried to each child's
    s = np.cos(spectrum._THETA)
    m = np.arange(PANEL_POINTS)[:, None]
    for side, transfer in zip((-1.0, 1.0), spectrum._TRANSFER):
        child = 0.5 * (side + s)
        got = transfer @ np.cos(m * np.arccos(s)).T
        assert np.max(np.abs(got - np.cos(m * np.arccos(child)).T)) <= 1e-14


def test_nodes_that_are_not_finite():
    # inf and nan give nan, as the direct sums do, and leave the walk and
    # the other nodes alone
    lam = SPECTRA["clustered_pairs"]
    x = np.array([np.inf, -np.inf, np.nan, 1.5])
    with np.errstate(invalid="ignore"):
        for kernel in (line_log_abs, line_arg):
            got = kernel(x, 0.0, lam)
            assert np.all(np.isnan(got[:3])) and got[3] == kernel(x[3:], 0.0, lam)[0]
        got = line_cauchy(x, lam, coefficients(lam.size))
    assert np.all(np.isnan(got[:3])) and np.all(np.isfinite(got[3]))


def test_empty_nodes_and_empty_spectrum():
    lam = SPECTRA["kadec_perturbed"]
    none, A = np.array([], dtype=complex), coefficients(lam.size)
    assert line_log_abs(np.array([]), 0.0, lam).shape == (0,)
    assert line_arg(np.array([]), 0.0, lam).shape == (0,)
    assert line_cauchy(np.array([]), lam, A).shape == (0, 3)
    assert [a.shape for a in line_log_products(np.array([]), lam, A)] == [(0,), (0, 3)]
    x = np.linspace(-10.0, 10.0, 41)
    assert np.array_equal(line_log_abs(x, 0.3, none), np.zeros(41))
    assert np.array_equal(line_arg(x, 0.3, none), np.zeros(41))
    assert np.array_equal(line_cauchy(x, none, np.zeros((0, 3), dtype=complex)), np.zeros((41, 3)))
    logs, sums = line_log_products(x, none, np.zeros((0, 3), dtype=complex))
    assert np.array_equal(logs, np.zeros(41)) and np.array_equal(sums, np.zeros((41, 3)))
    gen = GeneratingFunctionEvaluator(Spectrum(none))
    assert np.array_equal(gen.log_abs_G(x, a=0.3), np.zeros(41))
    assert np.array_equal(gen.log_G(x + 0j), np.zeros(41))


def test_line_at_a_points_height():
    # between the points of the line x + 0.3i the kernel matches the oracle;
    # on a point, and within the tolerance of one, log_abs_G still refuses
    s = make_family("shifted_integers", {"delta": 0.3}, 200)
    gen = GeneratingFunctionEvaluator(Spectrum(s.points))  # no tail: the window alone
    x = np.linspace(-20.0, 20.0, 81) + 0.25
    assert np.max(np.abs(gen.log_abs_G(x, a=0.3) - direct_line_log_abs(x, 0.3, s.points))) <= TOL
    lam = s.points[7]
    for hit in (lam.real, lam.real + 1e-13):
        with pytest.raises(CollisionError):
            gen.log_abs_G(np.array([lam.real + 0.5, hit]), a=lam.imag)


def test_a_nodes_value_does_not_depend_on_the_call():
    # fixed panels, fixed sums: any order, any subset, one node alone; the
    # one walk's log G with and without Cauchy columns
    lam = SPECTRA["clustered_pairs"]
    x = np.linspace(-90.0, 90.0, 1801) + 0.0137
    perm = np.random.default_rng(5).permutation(x.size)
    A = coefficients(lam.size)
    kernels = (lambda x: line_log_abs(x, 0.2, lam), lambda x: line_arg(x, 0.2, lam),
               lambda x: line_log_products(x, lam, A)[0], lambda x: line_log_products(x, lam, A[:, :0])[0])
    for kernel in kernels:
        ref = kernel(x)
        assert np.array_equal(kernel(x[perm]), ref[perm])
        assert np.array_equal(kernel(x[::37]), ref[::37])
        assert all(kernel(x[i : i + 1])[0] == ref[i] for i in range(0, x.size, 97))


def one_walk_nodes():
    """Node sets of the one-walk tests: a dense line past the window's ends,
    every level's panel edges and Chebyshev points, nodes that are not
    finite, one node, and none."""
    return {"dense": np.linspace(-300.0, 300.0, 6001) + 0.0137, "levels": level_nodes(),
            "not-finite": np.array([np.inf, -np.inf, np.nan, 1.5]), "one": np.array([2.25]), "none": np.array([])}


@pytest.mark.parametrize("nodes", sorted(one_walk_nodes()))
@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_the_one_walk_gives_each_output_bit_for_bit(name, nodes):
    # log|G| and arg G as line_log_abs and the arg walk alone give them, and
    # the Cauchy sums as line_cauchy does; with no Cauchy column, no sums
    lam, x = SPECTRA[name], one_walk_nodes()[nodes]
    A = coefficients(lam.size)
    with np.errstate(invalid="ignore"):  # a node that is not finite gives nan
        logs, sums = line_log_products(x, lam, A)
        assert np.array_equal(logs.real, line_log_abs(x, 0.0, lam), equal_nan=True)
        assert np.array_equal(logs.imag, line_arg(x, 0.0, lam), equal_nan=True)
        assert np.array_equal(sums, line_cauchy(x, lam, A), equal_nan=True)
        alone, none = line_log_products(x, lam, A[:, :0])
    assert np.array_equal(alone, logs, equal_nan=True) and none.shape == (x.size, 0)


def dense_sample_sums(x, lam, A):
    """G(x) sum_k A[k, s]/(x - lam_k) per column s, (S, x.size), with G the
    product over lam of (1 - x/lam_k), one log per factor, and the scale
    |G(x)| sum_k |A[k, s]|/|x - lam_k|."""
    G = np.exp(np.log(1.0 - x[:, None] / lam).sum(axis=1))
    want, scale = dense_cauchy(x, lam, A)
    return (G[:, None] * want).T, (np.abs(G)[:, None] * scale).T


@pytest.mark.parametrize("name", sorted(SPECTRA) + ["one-point"])
def test_sample_sums_match_the_dense_product(name):
    # the window alone (no tail), so G is the finite product; G's own error
    # (3e-14 of the scale at most, measured) fits in the Cauchy sums' bound
    lam = SPECTRA[name] if name != "one-point" else np.array([0.5 + 0.3j])
    gen = GeneratingFunctionEvaluator(Spectrum(lam))
    lam = gen.spectrum.points
    x = np.linspace(-20.0, 20.0, 2001) + 0.0137  # where G does not overflow
    A = coefficients(lam.size)
    got = sample_sums(gen, x, A)
    want, scale = dense_sample_sums(x, lam, A)
    assert got.shape == (3, x.size)
    assert np.max(np.abs(got - want) / scale) <= CAUCHY_TOL, (name, np.max(np.abs(got - want) / scale))
    assert sample_sums(gen, x, A[:, :0]).shape == (0, x.size)
    assert sample_sums(gen, np.array([]), A).shape == (3, 0)


def test_a_real_points_G_does_not_depend_on_the_call():
    # log_G's rule is per point: a real point takes the line kernels whether
    # it comes alone, in a batch of real points or among non-real ones
    gen = GeneratingFunctionEvaluator(make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 200))
    x = np.linspace(-90.0, 90.0, 601) + 0.0137 + 0j
    ref = gen.log_G(x)
    mixed = np.empty(2 * x.size, dtype=complex)
    mixed[::2], mixed[1::2] = x, x + 0.5j
    got = gen.log_G(mixed)
    assert np.array_equal(got[::2], ref)
    assert np.array_equal(got[1::2], gen.log_G(x + 0.5j))
    assert all(gen.log_G(x[i : i + 1])[0] == ref[i] for i in range(0, x.size, 61))


@pytest.mark.parametrize("name, a", [("clustered_pairs", 0.0), ("dense_list", 0.0), ("kadec_perturbed", -2.0)])
def test_panels_match_mpmath(name, a):
    lam = SPECTRA[name]
    x = np.array([-61.3, -7.9, -0.05, 0.0, 2.0, 14.02, 33.3])
    got = line_log_abs(x, a, lam)
    with mpmath.workdps(30):
        pts = [mpmath.mpc(p) for p in lam]
        want = [float(mpmath.fsum(mpmath.log(abs(1 - mpmath.mpc(xi, a) / p)) for p in pts)) for xi in x]
    assert np.max(np.abs(got - np.array(want))) <= TOL


@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_line_arg_matches_the_direct_kernel(name, a):
    # a = 0.3 puts the lattice families' points on the line: their terms are
    # 0 or pi, and jump only at the near points' real parts
    lam = SPECTRA[name]
    reach = np.max(np.abs(lam.real)) + 30.0
    x = np.linspace(-reach, reach, 2001) + 0.0137
    got, want = line_arg(x, a, lam), direct_line_arg(x, a, lam)
    assert arg_error(got, want) <= TOL, (name, a, arg_error(got, want))


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_line_cauchy_matches_the_dense_product(name):
    lam = SPECTRA[name]
    reach = np.max(np.abs(lam.real)) + 30.0
    x = np.linspace(-reach, reach, 2001) + 0.0137
    A = coefficients(lam.size)
    got, (want, scale) = line_cauchy(x, lam, A), dense_cauchy(x, lam, A)
    assert got.shape == (x.size, 3)
    assert np.max(np.abs(got - want) / scale) <= CAUCHY_TOL, (name, np.max(np.abs(got - want) / scale))


@pytest.mark.parametrize("name", ["kadec_perturbed", "dense_list", "both_halfplanes"])
def test_G_on_a_real_line_matches_mpmath(name):
    # the window alone (no tail), so the product is finite
    lam = SPECTRA[name]
    x = np.array([-61.3, -0.05, 2.0, 33.3])
    got = GeneratingFunctionEvaluator(Spectrum(lam)).log_G(x + 0j)
    with mpmath.workdps(30):
        pts = [mpmath.mpc(p) for p in lam]
        want = np.array([complex(mpmath.fsum(mpmath.log(1 - xi / p) for p in pts)) for xi in x])
    assert np.max(np.abs(got.real - want.real)) <= TOL
    assert arg_error(got.imag, want.imag) <= TOL


def test_G_at_a_real_point_far_out():
    # 32 points of modulus ~1e-6 and x = +-1e15, where each factor is ~1e21:
    # every point is far, and the panel's Chebyshev points round to the
    # doubles 0.125 apart; against the per-factor sum of logs
    j = np.arange(32)
    lam = 1e-6 * ((j + 1) + (1.0 + 0.01 * j) * 1j)
    z = np.array([1e15, -1e15]) + 0j
    got = GeneratingFunctionEvaluator(Spectrum(lam)).log_G(z)
    want = np.log(1.0 - z[:, None] / lam).sum(axis=1)
    assert np.max(np.abs(got.real - want.real) / np.abs(want.real)) <= 1e-14
    assert arg_error(got.imag, want.imag) <= 1e-13
