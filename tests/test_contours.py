import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.contours import (
    ContourError,
    InfeasibleSelection,
    _first_best,
    _prune_margin,
    build_schedule,
    in_triangle,
    select_alpha,
    select_c,
    select_l,
    triangle_samples,
)
from pwsum.spectrum import Spectrum, make_family
from pwsum.weights import universal_weights


@pytest.fixture(scope="module")
def lattice():
    s = make_family("shifted_integers", {"delta": 0.3}, 40)
    return s, BlaschkeEvaluator(s)


def full_scan_select_c(b, l, grid_size=16, samples_per_side=512):
    """The oracle: every candidate scored on every side sample in one log|B|
    call, then the sequential tie rule (select_c before its pruned search)."""
    cs = np.linspace(1.0, 10.0, grid_size)
    zeta = np.concatenate([triangle_samples(l, float(c), samples_per_side) for c in cs])
    log_b = b.log_abs_B(zeta)
    eps_hats = np.max((-log_b / np.abs(zeta)).reshape(grid_size, -1), axis=1)
    best, best_eps = None, math.inf
    for i, eps_hat in enumerate(eps_hats):
        if eps_hat < best_eps - 1e-15:
            best, best_eps = i, float(eps_hat)
    if best is None:
        raise InfeasibleSelection("every apex-slope candidate hits a zero of B")
    return float(cs[best]), best_eps, float(np.min(log_b.reshape(grid_size, -1)[best]))


def assert_same_triple(got, want):
    # bit for bit: the signs of zeros and every last digit
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)


_FAMILIES = {
    "shifted_integers": make_family("shifted_integers", {"delta": 0.3}, 40),
    "kadec_perturbed": make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 40),
    "clustered_pairs": make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 20),
    "custom_list": Spectrum(np.random.default_rng(7).uniform(-30, 30, 60)
                            + 1j * np.random.default_rng(8).uniform(0.1, 3, 60)),
}


def test_triangle_geometry():
    # the apex is 20j: one sample per side is its midpoint, (+-l + apex)/2
    assert triangle_samples(10.0, 2.0, 1).tolist() == [5 + 10j, -5 + 10j]
    r = triangle_samples(10.0, 2.0, 512)[:512]
    assert np.all((r.real <= 10.0) & (r.real >= 0.0))
    assert np.all(r.imag >= 0.0)


def test_contains_basics():
    # the last two, boundary-adjacent points, are excluded by the shrink rule
    inside = in_triangle(10.0, 1.0, np.array([1j, 20 + 1j, -1j, 0.0 + 0j, 5.0 + 5.0j]))
    assert inside.tolist() == [True, False, False, False, False]


def test_lambda_inside_examples():
    s1 = Spectrum(np.array([1j]))
    assert np.flatnonzero(in_triangle(10.0, 1.0, s1.points)).tolist() == [0]
    s2 = Spectrum(np.array([20 + 1j]))
    assert np.flatnonzero(in_triangle(10.0, 1.0, s2.points)).tolist() == []


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
    zeta0 = triangle_samples(1.0, 1.0, 512)[100]
    b = BlaschkeEvaluator(Spectrum(np.array([zeta0, 3j])))
    assert b.log_abs_B(np.array([zeta0]))[0] == -np.inf
    c, _, _ = select_c(b, l=1.0, grid_size=16, samples_per_side=512)
    assert abs(c - 1.0) > 1e-9
    # the candidate at inf is refined or pruned like any other
    assert_same_triple(select_c(b, 1.0), full_scan_select_c(b, 1.0))


def test_select_c_scores_a_near_miss_on_merit():
    # a zero 1e-10 off a c=1 side sample: log|B| there is finite but very
    # negative, so c=1 scores badly and another candidate wins
    zeta0 = triangle_samples(1.0, 1.0, 512)[100] + 1e-10j
    b = BlaschkeEvaluator(Spectrum(np.array([zeta0, 3j])))
    assert np.isfinite(b.log_abs_B(triangle_samples(1.0, 1.0, 512))).all()
    c, eps_hat, _ = select_c(b, l=1.0, grid_size=16, samples_per_side=512)
    assert abs(c - 1.0) > 1e-9 and np.isfinite(eps_hat)
    assert_same_triple(select_c(b, 1.0), full_scan_select_c(b, 1.0))


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("l", [0.7, 3.5, 10.5, 24.3, 41.0])
def test_select_c_matches_the_full_scan_on_the_families(family, l):
    b = BlaschkeEvaluator(_FAMILIES[family])
    assert_same_triple(select_c(b, l), full_scan_select_c(b, l))


@pytest.mark.parametrize("grid_size", [16, 17, 64])
@pytest.mark.parametrize("samples_per_side", [2, 3, 64, 512])
def test_select_c_matches_the_full_scan_at_every_grid(grid_size, samples_per_side):
    # strides past the sample count (2 and 3 per side) refine by empty slices
    b = BlaschkeEvaluator(_FAMILIES["kadec_perturbed"])
    for l in (5.5, 20.3):
        assert_same_triple(select_c(b, l, grid_size, samples_per_side),
                           full_scan_select_c(b, l, grid_size, samples_per_side))


def test_a_margin_of_2e_15_is_not_enough():
    # the full scan's rule depends on the order: m + 2.5t, m + 1.6t,
    # m + 0.7t, m picks index 2 (0.7t undercuts 2.5t by more than t, and m
    # does not undercut 0.7t), but with the first pruned by a margin of 2t
    # it picks index 3; select_c's margin keeps the first
    t, m = 1e-15, 1.0
    chain = np.array([m + 2.5 * t, m + 1.6 * t, m + 0.7 * t, m])
    assert _first_best(chain) == 2
    assert chain[0] > m + 2 * t and _first_best(np.array([np.inf, *chain[1:]])) == 3
    assert chain[0] <= m + _prune_margin(m, chain.size)


# Each list is drawn as one bytes value, not element by element: a step is a
# byte's low four bits (0..15) and the prune mask the 64 bits of 8 bytes.
# Per-element list draws cost ~4 ms an example in the strategy machinery.
@settings(max_examples=1000, deadline=None)
@given(
    magnitude=st.sampled_from([1e-3, 1.0, 1e3]),
    unit=st.sampled_from([0.37, 0.71, 0.13, 1.3, "ulp"]),
    steps=st.binary(min_size=16, max_size=64),
    prune=st.binary(min_size=8, max_size=8),
)
def test_pruning_above_the_margin_keeps_the_pick(magnitude, unit, steps, prune):
    # values clustered within a few 1e-15 (or a few ulps) of their minimum;
    # any candidate above m + margin, pruned or not, leaves the pick alone
    step = np.spacing(magnitude) if unit == "ulp" else unit * 1e-15
    eps = magnitude + (np.frombuffer(steps, np.uint8) % 16) * step
    m = float(np.min(eps))
    top = m + _prune_margin(m, eps.size)
    mask = np.unpackbits(np.frombuffer(prune, np.uint8)).astype(bool)
    pruned = np.where((eps > top) & mask[: eps.size], np.inf, eps)
    assert _first_best(pruned) == _first_best(eps)


def test_select_c_lattice(lattice):
    s, b = lattice
    c, eps_hat, _ = select_c(b, l=10.5)
    assert 1.0 <= c <= 10.0
    # brute-force grid search oracle: no candidate does better
    best = np.inf
    for cc in np.linspace(1.0, 10.0, 16):
        zeta = triangle_samples(10.5, float(cc), 512)
        val = float(np.max(-np.log(np.abs(b.eval_B(zeta))) / np.abs(zeta)))
        best = min(best, val)
    assert eps_hat == pytest.approx(best, rel=1e-12)


def test_select_c_deterministic(lattice):
    s, b = lattice
    assert select_c(b, l=10.5) == select_c(b, l=10.5)


def test_select_c_checks_its_arguments(lattice):
    # the checks a contour object made on its half-width and side samples
    s, b = lattice
    for kw in ({"l": 0.0}, {"l": -10.5}, {"l": 10.5, "samples_per_side": 1}, {"l": 10.5, "grid_size": 15}):
        with pytest.raises(ContourError):
            select_c(b, **kw)


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
    margin = np.min(alpha * l / 5.0 + b.log_abs_B(triangle_samples(l, c, 512)))
    assert margin == alpha * l / 5.0 + min_log_b
    assert margin >= 0.0


def test_build_schedule_nesting_and_certificates(lattice):
    s, b = lattice
    sched = build_schedule(b, count=4)
    assert sched.shape == (5, 4)
    assert np.all(sched[4] >= 0.0)
    sets = [set(np.flatnonzero(in_triangle(l, c, s.points)).tolist()) for l, c in zip(sched[0], sched[1])]
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
    assert got[0].tolist() == ref[0].tolist()  # l
    assert got[1].tolist() == ref[1].tolist()  # c
    np.testing.assert_allclose(got[2:], ref[2:], rtol=1e-10, atol=0)  # alpha, eps_hat, margin


def test_build_schedule_refuses_a_negative_margin(lattice):
    # safety < 1 leaves alpha*l/5 below max(-log|B|) on the sides: a
    # schedule without its domination certificate is no schedule
    s, b = lattice
    with pytest.raises(InfeasibleSelection, match=r"^contour 1: domination margin -"):
        build_schedule(b, count=4, safety=0.05)


def test_schedule_requires_increasing():
    # universal_weights reads a schedule that may not come from build_schedule
    s = Spectrum(np.array([1j]))
    sched = np.array([[5.0, 4.0], [1.0, 1.0], [0.1, 0.1], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ContourError):
        universal_weights(s, sched)
    sched[0] = [4.0, 5.0]
    sched[2, 1] = 0.0
    with pytest.raises(ContourError):
        universal_weights(s, sched)
