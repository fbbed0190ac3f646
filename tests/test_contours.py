import numpy as np
import pytest

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.contours import (
    ContourError,
    InfeasibleSelection,
    TriangleContour,
    build_schedule,
    lambda_inside,
    select_alpha,
    select_c,
    select_l,
)
from pwsum.spectrum import Spectrum, make_family


@pytest.fixture(scope="module")
def lattice():
    s = make_family("shifted_integers", {"delta": 0.3}, 40)
    return s, BlaschkeEvaluator(s)


def test_triangle_geometry():
    t = TriangleContour(l=10.0, c=2.0)
    assert t.apex == 20j
    r = t.slanted_samples()[: t.samples_per_side]
    assert np.all((r.real <= 10.0) & (r.real >= 0.0))
    assert np.all(r.imag >= 0.0)


def test_contains_basics():
    t = TriangleContour(l=10.0, c=1.0)
    # the last two, boundary-adjacent points, are excluded by the shrink rule
    inside = t.contains(np.array([1j, 20 + 1j, -1j, 0.0 + 0j, 5.0 + 5.0j]))
    assert inside.tolist() == [True, False, False, False, False]


def test_lambda_inside_examples():
    t = TriangleContour(l=10.0, c=1.0)
    s1 = Spectrum(np.array([1j]))
    assert lambda_inside(s1, t).tolist() == [0]
    s2 = Spectrum(np.array([20 + 1j]))
    assert lambda_inside(s2, t).tolist() == []


def test_select_l_lattice_prefers_half_integers(lattice):
    s, b = lattice
    # (arg B)' for Z + i*delta is minimized midway between the zeros: one
    # pick per band, as build_schedule makes them
    for lo, hi in ((0.5, 2.0), (2.0, 5.0), (5.0, 20.0)):
        cand = np.round(np.arange(lo, hi, 0.25), 8)
        assert np.mod(select_l(b, cand), 1.0) == pytest.approx(0.5, abs=1e-9)
    # oracle: the half-integer score really is the grid minimum
    fine = np.linspace(5.0, 6.0, 401)
    sc = np.maximum(b.arg_derivative_on_R(fine), b.arg_derivative_on_R(-fine))
    assert abs(fine[np.argmin(sc)] - 5.5) < 5e-3


def test_select_l_single_point_threshold():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    # (arg B)'(t) = 2/(t^2+1) <= 1 for t >= 1: smallest admissible candidate wins
    assert select_l(b, np.array([0.3, 0.9, 1.2, 5.0, 40.0])) == pytest.approx(1.2)


def test_select_l_candidates_on_zeros_error(lattice):
    s, b = lattice
    with pytest.raises(InfeasibleSelection):
        select_l(b, np.arange(1.0, 12.0))  # integers sit on the zeros' real parts


def test_select_c_far_zero():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    c, eps_hat, _ = select_c(b, l=100.0)
    assert 1.0 <= c <= 10.0
    assert eps_hat < 1e-3


def test_select_c_rejects_candidate_hitting_zero():
    # place one zero exactly on the c=1 side of the l=1 triangle
    t = TriangleContour(l=1.0, c=1.0, samples_per_side=512)
    zeta0 = t.slanted_samples()[100]
    b = BlaschkeEvaluator(Spectrum(np.array([zeta0, 3j])))
    c, _, _ = select_c(b, l=1.0, grid_size=16, samples_per_side=512)
    assert abs(c - 1.0) > 1e-9


def test_select_c_scores_a_near_miss_on_merit():
    # a zero 1e-10 off a c=1 side sample: log|B| there is finite but very
    # negative, so c=1 scores badly and another candidate wins
    t = TriangleContour(l=1.0, c=1.0, samples_per_side=512)
    zeta0 = t.slanted_samples()[100] + 1e-10j
    b = BlaschkeEvaluator(Spectrum(np.array([zeta0, 3j])))
    assert np.isfinite(b.log_abs_B(t.slanted_samples())).all()
    c, eps_hat, _ = select_c(b, l=1.0, grid_size=16, samples_per_side=512)
    assert abs(c - 1.0) > 1e-9 and np.isfinite(eps_hat)


def test_select_c_lattice(lattice):
    s, b = lattice
    c, eps_hat, _ = select_c(b, l=10.5)
    assert 1.0 <= c <= 10.0
    # brute-force grid search oracle: no candidate does better
    best = np.inf
    for cc in np.linspace(1.0, 10.0, 16):
        tri = TriangleContour(l=10.5, c=float(cc))
        zeta = tri.slanted_samples()
        val = float(np.max(-np.log(np.abs(b.eval_B(zeta))) / np.abs(zeta)))
        best = min(best, val)
    assert eps_hat == pytest.approx(best, rel=1e-12)


def test_select_c_deterministic(lattice):
    s, b = lattice
    assert select_c(b, l=10.5) == select_c(b, l=10.5)


def test_select_alpha_formula():
    # alpha = 1.2 * 5 * eps_hat * sqrt(1+c^2), independent of l after scaling
    a = select_alpha(l=100.0, eps_hat=0.01, c=10.0)
    assert a == pytest.approx(1.2 * 5 * 0.01 * np.sqrt(101.0), rel=1e-12)
    assert select_alpha(100.0, 0.02, 10.0) == pytest.approx(2 * a, rel=1e-12)
    assert select_alpha(50.0, 0.0, 3.0) == pytest.approx(1e-9)


def test_alpha_domination(lattice):
    s, b = lattice
    l = 10.5
    c, eps_hat, min_log_b = select_c(b, l)
    alpha = select_alpha(l, eps_hat, c)
    # select_c's min log|B| is the chosen contour's own, so the margin is
    # the same bits as a fresh log|B| pass over its side samples
    margin = np.min(alpha * l / 5.0 + b.log_abs_B(TriangleContour(l=l, c=c).slanted_samples()))
    assert margin == alpha * l / 5.0 + min_log_b
    assert margin >= 0.0


def test_build_schedule_nesting_and_certificates(lattice):
    s, b = lattice
    sched = build_schedule(b, count=4)
    assert len(sched) == 4
    assert np.all(sched.margins >= 0.0)
    sets = [set(lambda_inside(s, t).tolist()) for t in sched.contours]
    for a_, b_ in zip(sets, sets[1:]):
        assert a_ <= b_
    # the last contour reaches past the window radius: union is everything
    assert sets[-1] == set(range(len(s)))


def test_schedule_matches_complex_modulus_reference(monkeypatch):
    # the reference takes log|B| as log of |B| from the complex product
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 100)
    b = BlaschkeEvaluator(s)
    got = build_schedule(b, count=4)
    with monkeypatch.context() as m:
        m.setattr(BlaschkeEvaluator, "log_abs_B",
                  lambda self, z: np.log(np.abs(self.eval_B(z))))
        ref = build_schedule(b, count=4)
    assert [t.l for t in got.contours] == [t.l for t in ref.contours]
    assert [t.c for t in got.contours] == [t.c for t in ref.contours]
    for name in ("eps_hats", "alphas", "margins"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name), rtol=1e-10, atol=0)


def test_schedule_requires_increasing():
    with pytest.raises(ContourError):
        from pwsum.contours import ContourSchedule

        ContourSchedule(
            contours=[TriangleContour(5.0, 1.0), TriangleContour(4.0, 1.0)],
            alphas=np.array([0.1, 0.1]),
            eps_hats=np.array([0.0, 0.0]),
            margins=np.array([0.0, 0.0]),
        )
