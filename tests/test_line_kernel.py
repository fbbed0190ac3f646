"""The panel kernel of log|G| on a line (spectrum.line_log_abs) against the
direct kernel it replaced, kept here as the oracle, and against mpmath."""

import mpmath
import numpy as np
import pytest

from pwsum import spectrum
from pwsum.genfun import CollisionError, GeneratingFunctionEvaluator
from pwsum.spectrum import PANEL_POINTS, PANEL_WIDTH, Spectrum, line_log_abs, make_family

TOL = 1e-12  # absolute, in the log


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


def dense_list():
    """The 599 points x + 0.5i, x = 0.05, 0.10, ..., 29.95."""
    return np.array([float(f"{k * 0.05:.2f}") for k in range(1, 600)]) + 0.5j


SPECTRA = {
    "shifted_integers": make_family("shifted_integers", {"delta": 0.3}, 200).points,
    "kadec_perturbed": make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 100).points,
    "clustered_pairs": make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 200).points,
    "dense_list": dense_list(),
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
    for x in (edges, cheb, np.concatenate([edges, cheb])):
        got = line_log_abs(x, 0.0, lam)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - direct_line_log_abs(x, 0.0, lam))) <= TOL


def test_empty_nodes_and_empty_spectrum():
    lam = SPECTRA["kadec_perturbed"]
    assert line_log_abs(np.array([]), 0.0, lam).shape == (0,)
    x = np.linspace(-10.0, 10.0, 41)
    assert np.array_equal(line_log_abs(x, 0.3, np.array([], dtype=complex)), np.zeros(41))
    gen = GeneratingFunctionEvaluator(Spectrum(np.array([], dtype=complex)))
    assert np.array_equal(gen.log_abs_G(x, a=0.3), np.zeros(41))


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
    # fixed panels, fixed sums: any order, any subset, one node alone
    lam = SPECTRA["clustered_pairs"]
    x = np.linspace(-90.0, 90.0, 1801) + 0.0137
    ref = line_log_abs(x, 0.2, lam)
    perm = np.random.default_rng(5).permutation(x.size)
    assert np.array_equal(line_log_abs(x[perm], 0.2, lam), ref[perm])
    assert np.array_equal(line_log_abs(x[::37], 0.2, lam), ref[::37])
    assert all(line_log_abs(x[i : i + 1], 0.2, lam)[0] == ref[i] for i in range(0, x.size, 97))


@pytest.mark.parametrize("name, a", [("clustered_pairs", 0.0), ("dense_list", 0.0), ("kadec_perturbed", -2.0)])
def test_panels_match_mpmath(name, a):
    lam = SPECTRA[name]
    x = np.array([-61.3, -7.9, -0.05, 0.0, 2.0, 14.02, 33.3])
    got = line_log_abs(x, a, lam)
    with mpmath.workdps(30):
        pts = [mpmath.mpc(p) for p in lam]
        want = [float(mpmath.fsum(mpmath.log(abs(1 - mpmath.mpc(xi, a) / p)) for p in pts)) for xi in x]
    assert np.max(np.abs(got - np.array(want))) <= TOL
