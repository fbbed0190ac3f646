import math

import numpy as np
import pytest
from scipy.special import polygamma

from pwsum.diagnostics import (
    DiagnosticsError,
    _a2_from_logs,
    _line_window,
    _trigamma,
    carleson_sup,
    line_diagnostics,
)
from pwsum.genfun import GeneratingFunctionEvaluator
from pwsum.spectrum import Spectrum, make_family


class _FakeG:
    """Line-values stub: log|G| supplied by a callable."""

    def __init__(self, log_abs, points=None):
        self._f = log_abs
        self.spectrum = Spectrum(np.array(points if points is not None else [], dtype=complex))

    def log_abs_G(self, x, a: float = 0.0):
        return self._f(np.asarray(x, dtype=float), a)


def test_a2_constant_modulus_is_one():
    g = _FakeG(lambda x, a: np.zeros(x.shape))
    assert line_diagnostics(g, X=10.0, h=0.01)[0] == pytest.approx(1.0, abs=1e-12)


def test_a2_lower_bound_at_least_one():
    g = _FakeG(lambda x, a: 0.3 * np.sin(x))
    assert line_diagnostics(g, X=20.0, h=0.01)[0] >= 1.0 - 1e-12


def test_a2_scale_invariance():
    rng = np.random.default_rng(8)
    bumps = rng.standard_normal(64)

    def logmod(x, a, off=0.0):
        out = np.zeros(x.shape)
        for j, b in enumerate(bumps):
            out += b * np.exp(-((x - (j - 32) / 2.0) ** 2))
        return 0.2 * out + off

    v1 = line_diagnostics(_FakeG(lambda x, a: logmod(x, a)), X=15.0, h=0.01)[0]
    v2 = line_diagnostics(_FakeG(lambda x, a: logmod(x, a, off=np.log(7.5))), X=15.0, h=0.01)[0]
    assert abs(v1 - v2) <= 1e-12 * max(v1, 1.0)


def test_a2_far_above_the_line_does_not_overflow():
    # log|G| ~ 512.6 at height 3000: exp(2 log|G|) overflows unless the scan
    # centres the samples first, and the product does not see the centring
    # (the A2 scan alone: intG on the real line underflows at G(0) = e^-512.6)
    s = Spectrum(make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 50).points)
    v1 = _a2_from_logs(_line_window(GeneratingFunctionEvaluator(s), 10.0, 0.05, 3000.0).logs)
    v2 = _a2_from_logs(_line_window(GeneratingFunctionEvaluator(s, normalization=np.exp(-512.6)), 10.0, 0.05,
                                    3000.0).logs)
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert 1.0 < v1 < 1.0 + 1e-6


def test_a2_and_intG_raise_beyond_the_float_range():
    # log|G| spans 800 on the window: no centring keeps the products finite;
    # log|G| = 400 keeps them finite (the A2 scan centres it away), but not
    # the integral of |G|^2
    with pytest.raises(DiagnosticsError, match="A2 product"):
        line_diagnostics(_FakeG(lambda x, a: 40.0 * x), X=10.0, h=0.01)
    with pytest.raises(DiagnosticsError, match="intG integral"):
        line_diagnostics(_FakeG(lambda x, a: np.full(x.shape, 400.0)), X=10.0, h=0.01)


def test_a2_lattice_stable_under_window_doubling():
    s = make_family("shifted_integers", {"delta": 0.3}, 260)
    g = GeneratingFunctionEvaluator(s)
    v1, v2, _ = line_diagnostics(g, X=40.0, h=0.01)  # the windows X = 40 and 80
    assert v1 >= 1.0
    assert abs(v2 - v1) / v1 < 0.05
    # oracle cross-check: closed-form |G|^2 for the lattice
    delta = 0.3
    sh2 = np.sinh(np.pi * delta) ** 2

    def closed(x, a):
        return 0.5 * np.log((np.sin(np.pi * x) ** 2 + sh2) / sh2)

    v_oracle = line_diagnostics(_FakeG(closed), X=40.0, h=0.01)[0]
    assert v1 == pytest.approx(v_oracle, rel=1e-6)


def test_a2_shift_rejected_on_zero_line():
    s = make_family("shifted_integers", {"delta": 0.3}, 10)
    g = GeneratingFunctionEvaluator(s)
    with pytest.raises(DiagnosticsError):
        line_diagnostics(g, X=5.0, h=0.01, a=0.3)


def test_a2_clustered_grows_with_window():
    s = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 150)
    g = GeneratingFunctionEvaluator(s)
    vals = [line_diagnostics(g, X=X, h=0.02)[0] for X in (20.0, 40.0, 80.0)]
    assert vals[0] < vals[1] < vals[2]


def test_carleson_single_point():
    assert carleson_sup(Spectrum(np.array([1j]))) == 0.0


def test_carleson_one_point_window_keeps_its_tail():
    # the full lattice looks the same from every site, so a one-point window
    # with its tail gives the sup of any larger window (5.559877 at delta 0.3)
    one = carleson_sup(make_family("shifted_integers", {"delta": 0.3}, 0))
    three = carleson_sup(make_family("shifted_integers", {"delta": 0.3}, 1))
    assert one == pytest.approx(three, rel=1e-12)
    assert one == pytest.approx(5.559877, abs=1e-6)


def test_carleson_not_finite_raises():
    # eps=1 moves the edge point k=-5 to -6, the first site of the tail's
    # left half, where the trigamma tail has its pole
    with pytest.raises(DiagnosticsError, match="not finite"):
        carleson_sup(make_family("kadec_perturbed", {"delta": 0.3, "eps": 1.0}, 5))


def test_carleson_two_points():
    v = carleson_sup(Spectrum(np.array([1j, 2j])))
    assert v == pytest.approx(6.0)


def test_carleson_matches_pair_loop():
    # a custom list has no tail: the sup is the pair sum, here summed exactly
    rng = np.random.default_rng(3)
    pts = rng.uniform(-6, 6, 40) + 1j * rng.choice([-1, 1], 40) * rng.uniform(0.1, 2.0, 40)
    w = [1.0 + abs(p.imag) for p in pts]
    want = max(
        math.fsum(w[i] * w[j] / abs(pts[i] - pts[j]) ** 2 for j in range(pts.size) if j != i)
        for i in range(pts.size)
    )
    assert carleson_sup(Spectrum(pts)) == pytest.approx(want, rel=1e-13)


def test_carleson_translation_invariance_exact():
    pts = np.array([0.25 + 0.5j, 1 + 1j, -2 + 0.75j, 3 - 0.5j])
    a = carleson_sup(Spectrum(pts))
    b = carleson_sup(Spectrum(pts + 7.0))
    assert a == b


def test_carleson_lattice_closed_form():
    s = make_family("shifted_integers", {"delta": 1.0}, 10_000)
    v = carleson_sup(s)
    assert abs(v - 4 * np.pi**2 / 3) < 1e-3


def test_trigamma_matches_scipy():
    x = np.concatenate([np.geomspace(1e-3, 1e4, 4001), [0.5, 1.0, 10.0, 10.0 - 1e-12]])
    assert np.max(np.abs(_trigamma(x) / polygamma(1, x) - 1.0)) <= 1e-12


def test_trigamma_bounded_off_the_positive_axis():
    # non-positive and huge arguments take a fixed number of steps (reflection,
    # at most 10 recurrence steps, the series), never a loop that runs ~|x| times
    x = np.array([-1e6 + 0.25, -2.5, -0.5, -1e-3, 1e12, 1e300])
    assert np.allclose(_trigamma(x), polygamma(1, x), rtol=1e-12, atol=0.0)
    with np.errstate(all="raise"):
        assert np.all(_trigamma(np.array([0.0, -1.0, -7.0])) == np.inf)


def test_carleson_clustered_blows_up():
    small = carleson_sup(make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 10))
    big = carleson_sup(make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 60))
    assert big > small > 0
    # pair terms grow like (2 count/eps)^2
    assert big > (2 * 60 / 0.5) ** 2 * 0.9


def test_intG_constant_modulus_tends_to_pi():
    g = _FakeG(lambda x, a: np.zeros(x.shape))
    rep = line_diagnostics(g, X=400.0, h=0.05)[2]
    assert rep.pos_integral_2X == pytest.approx(np.pi, rel=2e-3)
    assert rep.neg_integral_2X == pytest.approx(np.pi, rel=2e-3)
    assert rep.pos_trend <= 1.5 and rep.neg_trend <= 1.5


def test_intG_weights_are_the_node_spacing():
    # 2X/h is not an integer: the nodes are 20/667 and 40/1333 apart, not h
    g = _FakeG(lambda x, a: np.zeros(x.shape))
    rep = line_diagnostics(g, X=10.0, h=0.03)[2]
    for got, X in [(rep.pos_integral, 10.0), (rep.neg_integral, 10.0),
                   (rep.pos_integral_2X, 20.0), (rep.neg_integral_2X, 20.0)]:
        assert got == pytest.approx(2.0 * math.atan(X), rel=1e-5)


def test_intG_lattice_finite():
    s = make_family("shifted_integers", {"delta": 0.3}, 900)
    g = GeneratingFunctionEvaluator(s)
    rep = line_diagnostics(g, X=200.0, h=0.05)[2]
    assert rep.pos_trend < 1.1
    assert rep.neg_trend < 1.1


def test_intG_growing_modulus_flagged():
    g = _FakeG(lambda x, a: np.log(1.0 + x * x))
    rep = line_diagnostics(g, X=100.0, h=0.05)[2]
    assert rep.pos_trend > 1.5  # integrand tends to a constant: linear growth
    assert rep.neg_trend <= 1.5
