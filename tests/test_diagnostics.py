import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from pwsum import diagnostics
from pwsum.diagnostics import (
    DiagnosticsError,
    _a2_from_logs,
    _merge_sorted,
    _trigamma,
    carleson_sup,
    line_diagnostics,
)
from pwsum.genfun import GeneratingFunctionEvaluator
from pwsum.grids import line_grid
from pwsum.spectrum import Spectrum, inverse_square_sums, make_family, unique_sorted


class _FakeG:
    """Line-values stub: log|G| supplied by a callable."""

    def __init__(self, log_abs, points=None):
        self._f = log_abs
        self.spectrum = Spectrum(np.array(points if points is not None else [], dtype=complex))

    def log_abs_G(self, x, a: float = 0.0):
        return self._f(np.asarray(x, dtype=float), a)


def test_a2_constant_modulus_is_one():
    g = _FakeG(lambda x, a: np.zeros(x.shape))
    assert line_diagnostics(g, X=10.0, h=0.01)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_a2_lower_bound_at_least_one():
    g = _FakeG(lambda x, a: 0.3 * np.sin(x))
    assert line_diagnostics(g, X=20.0, h=0.01)[0, 0] >= 1.0 - 1e-12


def test_a2_scale_invariance():
    rng = np.random.default_rng(8)
    bumps = rng.standard_normal(64)

    def logmod(x, a, off=0.0):
        out = np.zeros(x.shape)
        for j, b in enumerate(bumps):
            out += b * np.exp(-((x - (j - 32) / 2.0) ** 2))
        return 0.2 * out + off

    v1 = line_diagnostics(_FakeG(lambda x, a: logmod(x, a)), X=15.0, h=0.01)[0, 0]
    v2 = line_diagnostics(_FakeG(lambda x, a: logmod(x, a, off=np.log(7.5))), X=15.0, h=0.01)[0, 0]
    assert abs(v1 - v2) <= 1e-12 * max(v1, 1.0)


def test_a2_far_above_the_line_does_not_overflow():
    # log|G| ~ 512.6 at height 3000: exp(2 log|G|) overflows unless the scan
    # centres the samples first, and the product does not see the centring
    # (the A2 scan alone: intG on the real line underflows with |G| scaled by e^-512.6)
    s = Spectrum(make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 50).points)
    x = 0.05 * (np.arange(401) - 200)  # the nodes of the window X = 10 at h = 0.05
    line = GeneratingFunctionEvaluator(s).log_abs_G(x, 3000.0)
    v1, v2 = _a2_from_logs(line), _a2_from_logs(line - 512.6)
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
    v1, v2 = line_diagnostics(g, X=40.0, h=0.01)[0]  # the windows X = 40 and 80
    assert v1 >= 1.0
    assert abs(v2 - v1) / v1 < 0.05
    # oracle cross-check: closed-form |G|^2 for the lattice
    delta = 0.3
    sh2 = np.sinh(np.pi * delta) ** 2

    def closed(x, a):
        return 0.5 * np.log((np.sin(np.pi * x) ** 2 + sh2) / sh2)

    v_oracle = line_diagnostics(_FakeG(closed), X=40.0, h=0.01)[0, 0]
    assert v1 == pytest.approx(v_oracle, rel=1e-6)


def test_a2_shift_rejected_on_zero_line():
    s = make_family("shifted_integers", {"delta": 0.3}, 10)
    g = GeneratingFunctionEvaluator(s)
    with pytest.raises(DiagnosticsError):
        line_diagnostics(g, X=5.0, h=0.01, a=0.3)


def test_a2_clustered_grows_with_window():
    s = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 150)
    g = GeneratingFunctionEvaluator(s)
    vals = [line_diagnostics(g, X=X, h=0.02)[0, 0] for X in (20.0, 40.0, 80.0)]
    assert vals[0] < vals[1] < vals[2]


def direct_carleson_sup(s) -> float:
    """The oracle: every row summed over all N columns in one pass, then the
    max (carleson_sup before its best-first search)."""
    pts = s.points
    if not pts.size:
        return 0.0
    w = 1.0 + np.abs(pts.imag)
    sums = inverse_square_sums(pts, pts, w, skip=np.arange(pts.size))
    sums *= w
    if s.tail is not None:
        # per sublattice: its sites Re c +- (spacing m + offset), m >= start
        psi1 = np.zeros(pts.shape)
        for sl in s.tail.sublattices:
            u, rho = (pts.real - sl.c.real) / sl.spacing, sl.start + sl.offset / sl.spacing
            psi1 += sl.weight / sl.spacing**2 * (_trigamma(rho - u) + _trigamma(rho + u))
        sums += w * (1.0 + s.tail.delta) * psi1
    if not np.all(np.isfinite(sums)):
        raise DiagnosticsError("Carleson sum not finite")
    return float(np.max(sums))


# (delta, eps) of the eight diagnose-clustered benchmark variants (count 600)
_BENCH_DRAWS = [(1.067, 0.48), (0.897, 0.684), (1.126, 0.634), (1.01, 0.445), (1.082, 0.669), (1.053, 0.479),
                (1.024, 0.629), (0.901, 0.638)]
_FAMILY_CASES = [("clustered_pairs", {"delta": d, "eps": e}, 600) for d, e in _BENCH_DRAWS] + [
    ("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 1),
    ("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 40),
    ("clustered_pairs", {"delta": 0.3, "eps": -0.2}, 150),
    ("clustered_pairs", {"delta": 2.0, "eps": 1e-3}, 200),
    ("shifted_integers", {"delta": 0.3}, 0),
    ("shifted_integers", {"delta": 0.3}, 1),
    ("shifted_integers", {"delta": 0.35}, 60),
    ("shifted_integers", {"delta": 0.05}, 2000),
    ("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 5),
    ("kadec_perturbed", {"delta": 0.25, "eps": 0.15}, 1000),
    ("kadec_perturbed", {"delta": 0.5, "eps": -0.3}, 300),
]


@pytest.mark.parametrize("name, params, count", _FAMILY_CASES)
def test_carleson_matches_the_direct_pass_on_the_families(name, params, count):
    s = make_family(name, params, count)
    assert carleson_sup(s) == direct_carleson_sup(s)


def _custom_points(rng, n):
    pts = rng.uniform(-20, 20, n) + 1j * rng.choice([-1, 1], n) * rng.uniform(0.01, 3.0, n)
    conj = np.conj(pts[: n // 4])  # conjugate pairs
    shared = pts[n // 4 : n // 2].real + 1j * rng.uniform(0.5, 4.0, n // 4)  # shared real parts
    close = np.concatenate([pts[n // 2 :] + 1e-9, pts[n // 2 :] + 1e-9j])  # 1e-9 apart
    return np.concatenate([pts, conj, shared, close])


@pytest.mark.parametrize("seed", range(6))
def test_carleson_matches_the_direct_pass_on_custom_lists(seed):
    rng = np.random.default_rng(seed)
    s = Spectrum(_custom_points(rng, 8 * (seed + 1)))
    assert carleson_sup(s) == direct_carleson_sup(s)
    # the same points with a lattice tail whose sites lie beyond them
    tailed = Spectrum(s.points, make_family("clustered_pairs", {"delta": 0.5, "eps": 0.5}, 30).tail)
    assert carleson_sup(tailed) == direct_carleson_sup(tailed)


@pytest.mark.parametrize("pts", [[1j], [-3.5 - 0.2j], [1j, 2j], [0.3 + 0.5j, 0.3 - 0.5j], [0.0 + 1j, 1e-9 + 1j]])
@pytest.mark.parametrize("tail", [False, True], ids=["no-tail", "tail"])
def test_carleson_matches_the_direct_pass_on_one_and_two_points(pts, tail):
    s = Spectrum(np.array(pts), make_family("shifted_integers", {"delta": 0.5}, 3).tail if tail else None)
    assert carleson_sup(s) == direct_carleson_sup(s)


@pytest.mark.parametrize("count", [100, 1000])
def test_carleson_tail_takes_each_sublattices_offset(count):
    # kadec_perturbed's tail is two sublattices at real offsets +-eps: with
    # them the windowed sup matches the family's, read off a window 40 times
    # wider without any tail, where a tail at the sites +-m read 6.3545 at
    # the window's edge against 6.1405
    params = {"delta": 0.25, "eps": 0.15}
    wide = carleson_sup(Spectrum(make_family("kadec_perturbed", params, 4000).points))
    got = carleson_sup(make_family("kadec_perturbed", params, count))
    assert abs(got - wide) <= 1e-3 * wide, (got, wide)


# A spectrum drawn as bytes, two per point (one draw, not one per element):
# real part (a % 61 - 30) * unit and height +-(b % 12 + 1)/4, so real parts
# are shared and, at unit 1e-9, points 1e-9 apart; the optional tail's sites
# start at 31, beyond every real part.
@settings(max_examples=200, deadline=None)
@given(unit=st.sampled_from([1.0, 0.125, 1e-9]), raw=st.binary(min_size=2, max_size=60), tail=st.booleans())
def test_carleson_matches_the_direct_pass_on_drawn_spectra(unit, raw, tail):
    a, b = np.frombuffer(raw[: len(raw) // 2 * 2], np.uint8).reshape(-1, 2).T.astype(float)
    pts = (a % 61 - 30) * unit + 1j * np.where(b >= 128, 1.0, -1.0) * (b % 12 + 1) / 4
    s = Spectrum(np.unique(pts), make_family("clustered_pairs", {"delta": 0.5, "eps": 0.5}, 30).tail if tail else None)
    assert carleson_sup(s) == direct_carleson_sup(s)


def _summed_rows(monkeypatch) -> list:
    """The row counts of carleson_sup's inverse_square_sums calls, recorded."""
    rows = []
    inner = diagnostics.inverse_square_sums
    monkeypatch.setattr(diagnostics, "inverse_square_sums",
                        lambda z, *args, **kw: rows.append(z.size) or inner(z, *args, **kw))
    return rows


@pytest.mark.parametrize("count", [40, 600, 3000])
def test_carleson_sums_few_rows_of_clustered_pairs(monkeypatch, count):
    # the largest rows sit at the window's edges, far above the rest: one
    # batch of rows settles the max
    rows = _summed_rows(monkeypatch)
    s = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, count)
    carleson_sup(s)
    assert sum(rows) <= 2 * diagnostics._FIRST_BATCH < len(s)


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
    # a point at -5.75 + 0.3i, where the tail's point k=-6 sits (-6 + eps):
    # a pole of the even sublattice's trigamma
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.25}, 5)
    with pytest.raises(DiagnosticsError, match="not finite"):
        carleson_sup(Spectrum(np.append(s.points, -5.75 + 0.3j), s.tail))


def test_carleson_raises_on_a_row_that_is_not_the_max(monkeypatch):
    # a point at 700 + i, a site of the tail beyond the window |k| <= 600,
    # far from the edge rows that hold the max (~6.7e6): its own pair sum
    # is small, its tail term infinite
    s = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 600)
    hit = Spectrum(np.append(s.points, 700.0 + 1j), s.tail)
    rows = _summed_rows(monkeypatch)
    with pytest.raises(DiagnosticsError, match="not finite"):
        carleson_sup(hit)
    assert sum(rows) < len(hit)  # raised before the search summed every row
    with pytest.raises(DiagnosticsError):
        direct_carleson_sup(hit)


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
    table = line_diagnostics(g, X=400.0, h=0.05)
    assert table[1, 1] == pytest.approx(np.pi, rel=2e-3)
    assert table[2, 1] == pytest.approx(np.pi, rel=2e-3)
    assert table[1, 1] / table[1, 0] <= 1.5 and table[2, 1] / table[2, 0] <= 1.5


def test_intG_weights_are_the_node_spacing():
    # 2X/h is not an integer: the nodes are 20/667 and 40/1333 apart, not h
    g = _FakeG(lambda x, a: np.zeros(x.shape))
    table = line_diagnostics(g, X=10.0, h=0.03)
    for got, X in [(table[1, 0], 10.0), (table[2, 0], 10.0),
                   (table[1, 1], 20.0), (table[2, 1], 20.0)]:
        assert got == pytest.approx(2.0 * math.atan(X), rel=1e-5)


def test_intG_lattice_finite():
    s = make_family("shifted_integers", {"delta": 0.3}, 900)
    g = GeneratingFunctionEvaluator(s)
    table = line_diagnostics(g, X=200.0, h=0.05)
    assert table[1, 1] / table[1, 0] < 1.1
    assert table[2, 1] / table[2, 0] < 1.1


def test_intG_growing_modulus_flagged():
    g = _FakeG(lambda x, a: np.log(1.0 + x * x))
    table = line_diagnostics(g, X=100.0, h=0.05)
    assert table[1, 1] / table[1, 0] > 1.5  # integrand tends to a constant: linear growth
    assert table[2, 1] / table[2, 0] <= 1.5


@pytest.mark.parametrize("X, h", [(40.0, 0.01), (5.0, 0.05), (2.55, 0.1), (10.05, 0.1), (10.0, 0.03), (0.01, 1.0)],
                         ids=["bench", "even", "odd-51", "odd-201", "ragged", "one-interval"])
def test_merge_sorted_is_the_union_of_the_windows(X, h):
    # at even m the [-X, X] nodes are nodes of [-2X, 2X]; at odd m they fall between them
    (a, _), (b, _) = line_grid(X, h), line_grid(2 * X, h)
    nodes, ka, kb = _merge_sorted(a, b)
    assert np.array_equal(nodes, unique_sorted(np.concatenate([a, b])))
    assert np.array_equal(nodes[ka], a) and np.array_equal(nodes[kb], b)


@pytest.mark.parametrize("seed", range(4))
def test_merge_sorted_on_random_arrays(seed):
    # shared values, entries beyond either end of b, runs of a between two of b
    rng = np.random.default_rng(seed)
    pool = np.round(rng.uniform(-5, 5, 60), 1)
    a, b = unique_sorted(rng.choice(pool, 25)), unique_sorted(rng.choice(pool[10:50], 25))
    nodes, ka, kb = _merge_sorted(a, b)
    assert np.array_equal(nodes, unique_sorted(np.concatenate([a, b])))
    assert np.array_equal(nodes[ka], a) and np.array_equal(nodes[kb], b)
