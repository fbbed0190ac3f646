import numpy as np
import pytest

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.engine import EngineError, PWFunction, riesz_project, weighted_projector_check
from pwsum.genfun import GeneratingFunctionEvaluator, OuterEvaluator
from pwsum.grids import grid_template
from pwsum.spectrum import Spectrum, make_family


def test_empty_truncation_annihilates():
    # n below min |lambda|: B_n = 1 and I - P+ annihilates Phi up to
    # discretization (Phi extends to the upper half-plane)
    s = make_family("shifted_integers", {"delta": 0.3}, 30)
    g = GeneratingFunctionEvaluator(s)
    b = BlaschkeEvaluator(s)
    f = PWFunction([0.3j], [1.0])
    grid = grid_template(40.0, 0.01)
    rep = weighted_projector_check(f, g, b, 0.1, grid)
    assert rep.mismatch < 0.05 * rep.operator_norm_scale


def test_single_point_spectrum():
    s = Spectrum(np.array([1j]))
    g = GeneratingFunctionEvaluator(s)
    b = BlaschkeEvaluator(s)
    f = PWFunction([1j], [1.0])
    grid = grid_template(40.0, 0.01)
    rep = weighted_projector_check(f, g, b, 2.0, grid)
    assert rep.mismatch <= 5.0 * rep.error_bar


def test_lattice_moderate_truncation():
    s = make_family("shifted_integers", {"delta": 0.3}, 30)
    g = GeneratingFunctionEvaluator(s)
    b = BlaschkeEvaluator(s)
    f = PWFunction([0.3j, 1.5 + 0.3j], [1.0, -0.5])
    grid = grid_template(40.0, 0.01)
    rep = weighted_projector_check(f, g, b, 10.0, grid)
    assert rep.mismatch <= 5.0 * rep.error_bar
    assert rep.mismatch < 0.02 * rep.operator_norm_scale


def test_mismatch_matches_per_lambda_loop():
    # the oracle adds Phi(lambda)/B_n'(lambda) B_n(x)/(x - lambda) one lambda at
    # a time, with B_n'(lambda) as a direct product over the other factors
    s = make_family("shifted_integers", {"delta": 0.3}, 30)
    g = GeneratingFunctionEvaluator(s)
    b = BlaschkeEvaluator(s)
    f = PWFunction([0.3j, 1.5 + 0.3j], [1.0, -0.5])
    grid = grid_template(40.0, 0.01)
    outer = OuterEvaluator.from_generating(g, X=200.0, h=grid.h)
    n = 10.0
    x = grid.x
    phi = f.eval(x.astype(complex)) * np.exp(1j * np.pi * x) / outer.boundary_on(grid)
    bn = b.eval_B(x.astype(complex), cutoff=n)
    lhs = phi - bn * riesz_project(grid.copy_with(np.conj(bn) * phi), "+").values
    rhs = np.zeros(x.size, dtype=complex)
    inside = s.points[np.abs(s.points) < n]
    for lam in inside:
        mu = inside[inside != lam]
        bprime = (np.conj(lam) / lam) / (lam - np.conj(lam)) * np.prod(
            (np.conj(mu) / mu) * (lam - mu) / (lam - np.conj(mu))
        )
        one = np.array([lam])
        phi_lam = (f.eval(one) * np.exp(1j * np.pi * lam) / outer.eval_outer(one))[0]
        rhs += phi_lam / bprime * bn / (x - lam)
    oracle = grid.copy_with(lhs - rhs).norm()
    rep = weighted_projector_check(f, g, b, n, grid, outer)
    assert rep.mismatch == pytest.approx(oracle, rel=1e-11)


def test_rejects_two_sided_spectrum():
    s = Spectrum(np.array([1j, -1j]))
    g = GeneratingFunctionEvaluator(s)
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    f = PWFunction([1j], [1.0])
    with pytest.raises(EngineError):
        weighted_projector_check(f, g, b, 2.0, grid_template(20.0, 0.01))
