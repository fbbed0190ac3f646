import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pwsum.blaschke import BlaschkeError, BlaschkeEvaluator, upper_lower_evaluators
from pwsum.contours import build_schedule, in_triangle, triangle_samples
from pwsum.spectrum import Spectrum, blaschke_logs, make_family
from pwsum.weights import (
    WeightError,
    naive_weights,
    outer_weight,
    outer_weight_deviation_bound,
    outer_weight_phase,
    projection_weights,
    universal_weights,
)


def row_dict(w) -> dict:
    """Spectrum index -> weight on the support of one column w of W."""
    ks = np.flatnonzero(w)
    return dict(zip(ks.tolist(), w[ks]))


def quad_phase_oracle(zeta: complex) -> complex:
    """Adaptive quadrature of int_{|u|>1/2} [1/(zeta-u) + 1/u] du.

    The integrand combines to zeta/(u(zeta-u)) on the right ray and
    -zeta/(u(zeta+u)) on the left; beyond u=2 the substitution u=1/v
    turns each ray into a smooth integral over (0, 1/2].
    """

    def cquad(f, a, b):
        re, _ = quad(lambda u: f(u).real, a, b, limit=400)
        im, _ = quad(lambda u: f(u).imag, a, b, limit=400)
        return re + 1j * im

    total = cquad(lambda u: zeta / (u * (zeta - u)), 0.5, 2.0)
    total += cquad(lambda v: zeta / (zeta * v - 1.0), 0.0, 0.5)
    total += cquad(lambda u: -zeta / (u * (zeta + u)), 0.5, 2.0)
    total += cquad(lambda v: -zeta / (zeta * v + 1.0), 0.0, 0.5)
    return total


def test_phase_zero_at_origin():
    assert abs(outer_weight_phase(0j)) < 1e-14


def test_closed_form_phase_vs_quadrature():
    rng = np.random.default_rng(11)
    zetas = rng.uniform(-2, 2, 12) + 1j * rng.uniform(0.05, 3.0, 12)
    for zeta in zetas:
        got = outer_weight_phase(complex(zeta))
        want = quad_phase_oracle(complex(zeta))
        assert abs(got - want) < 1e-6


def test_outer_weight_boundary_profile():
    # modulus 1 on (-l/2, l/2), e^{-pi alpha l} beyond, on the real line
    l, alpha = 40.0, 0.05
    xs_in = np.linspace(-19.9, 19.9, 101)
    vals_in = outer_weight(l, alpha, xs_in.astype(complex))
    assert np.max(np.abs(np.abs(vals_in) - 1.0)) < 1e-8
    xs_out = np.concatenate([np.linspace(-80, -20.1, 50), np.linspace(20.1, 80, 50)])
    vals_out = outer_weight(l, alpha, xs_out.astype(complex))
    assert np.max(np.abs(np.abs(vals_out) - np.exp(-2 * np.pi))) < 1e-8


def test_outer_weight_quadrature_oracle_interior():
    l, alpha = 40.0, 0.05
    rng = np.random.default_rng(2)
    zs = rng.uniform(-30, 30, 20) + 1j * rng.uniform(0.2, 25.0, 20)
    for z in zs:
        got = outer_weight(l, alpha, complex(z))
        want = np.exp(-1j * alpha * l * quad_phase_oracle(complex(z) / l))
        assert abs(got - want) < 1e-6 * abs(want) + 1e-12


def test_outer_weight_modulus_bound_upper():
    l, alpha = 10.0, 0.3
    rng = np.random.default_rng(4)
    zs = rng.uniform(-30, 30, 300) + 1j * rng.uniform(0.0, 30.0, 300)
    vals = outer_weight(l, alpha, zs)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_outer_weight_branch_point_rejected():
    with pytest.raises(WeightError):
        outer_weight(10.0, 0.1, 5.0 + 0j)


def test_outer_weight_tends_to_one():
    # alpha*l held fixed at 1: deviation ~ alpha*l*|Phi(z/l)| ~ 4|z|/l
    z = 1.3 + 0.7j
    devs = [abs(outer_weight(l, 1.0 / l, z) - 1.0) for l in (10.0, 40.0, 160.0, 640.0)]
    assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
    bound = outer_weight_deviation_bound(640.0, 1.0 / 640.0, z)
    assert devs[-1] <= bound


# -- schemes -----------------------------------------------------------------


@pytest.fixture(scope="module")
def lattice_weights():
    s = make_family("shifted_integers", {"delta": 0.3}, 20)
    radii = np.array([5.0, 10.0, 15.0, 21.0])
    sched = build_schedule(BlaschkeEvaluator(s), count=3)
    return s, naive_weights(s, radii), projection_weights(s, radii), universal_weights(s, sched), sched


def test_naive_weights(lattice_weights):
    s, (_, naive), *_ = lattice_weights
    assert row_dict(naive[:, 0])[0] == 1.0
    k_far = len(s) - 1
    assert k_far not in row_dict(naive[:, 0])
    assert row_dict(naive[:, 3])[k_far] == 1.0
    assert all(abs(s.points[k]) < 5.0 and w == 1.0 for k, w in row_dict(naive[:, 0]).items())


def test_radius_rows_carry_their_radius(lattice_weights):
    _, naive, proj, *_ = lattice_weights
    for L, W in (naive, proj):
        assert L[0].tolist() == [5.0, 10.0, 15.0, 21.0]
        assert L.shape == (2, W.shape[1])
        assert L[1].tolist() == L[0].tolist()


def test_naive_empty_row():
    s = Spectrum(np.array([3j, 4j]))
    for L, W in (naive_weights(s, [1.0, 2.0, 5.0]), projection_weights(s, [1.0, 2.0, 5.0])):
        assert np.flatnonzero(W[:, 0]).size == 0
        assert W.shape == (len(s), L.shape[1]) == (2, 3)
        assert W.dtype == complex


def test_row_builders_check_their_schedules(lattice_weights):
    s, *_, sched = lattice_weights
    for build in (naive_weights, projection_weights):
        for radii in ([2.0, 1.0], [-1.0, 2.0], [1.0, 1.0]):
            with pytest.raises(WeightError, match="increasing"):
                build(s, radii)
    with pytest.raises(WeightError, match="upper"):
        universal_weights(s, None)
    both = Spectrum(np.array([1j, 2 + 1j, -1j, -2 - 1j]))
    b_up, b_lo = upper_lower_evaluators(both)
    with pytest.raises(WeightError, match="lower"):
        universal_weights(both, build_schedule(b_up, count=2))
    with pytest.raises(WeightError, match="equal length"):
        universal_weights(both, build_schedule(b_up, count=2), build_schedule(b_lo, count=1))


def test_projection_matches_blaschke_example():
    s = Spectrum(np.array([1j, 5j]))
    _, proj = projection_weights(s, [2.0, 6.0])
    k_i = int(np.flatnonzero(s.points == 1j)[0])
    assert row_dict(proj[:, 0])[k_i] == pytest.approx(2.0 / 3.0)
    assert row_dict(proj[:, 1])[k_i] == pytest.approx(1.0)


def test_projection_final_step_all_one(lattice_weights):
    s, _, (_, proj), *_ = lattice_weights
    row = row_dict(proj[:, 3])
    assert len(row) == len(s)
    assert all(abs(w - 1.0) < 1e-12 for w in row.values())


def test_projection_split_halfplanes():
    s = Spectrum(np.array([1j, -1j, 2 + 2j, -3 - 0.5j]))
    row = row_dict(projection_weights(s, [10.0])[1][:, 0])
    for k in range(len(s)):
        assert row[k] == pytest.approx(1.0)
    row2 = row_dict(projection_weights(s, [2.0, 10.0])[1][:, 0])
    # point i: its half-plane partner 2+2i is outside radius 2: tail factor
    k_i = int(np.flatnonzero(s.points == 1j)[0])
    mu = 2 + 2j
    expect = (np.conj(mu) / mu) * (1j - mu) / (1j - np.conj(mu))
    assert row2[k_i] == pytest.approx(expect)
    # conjugate side mirrors through conjugation
    k_mi = int(np.flatnonzero(s.points == -1j)[0])
    mu2 = -3 - 0.5j
    expect2 = (np.conj(mu2) / mu2) * (-1j - mu2) / (-1j - np.conj(mu2))
    assert row2[k_mi] == pytest.approx(expect2)


def test_projection_lower_halfplane_index_mapping():
    # lower points sharing moduli, so the lower evaluator stores their
    # reflections in a permuted order
    lower = np.array([1 - 1j, -1 - 1j, 2 - 2j, -2 - 2j])
    upper = np.array([0.5 + 1j, -1.5 + 0.7j, 2 + 2j, -3 + 0.4j])
    s = Spectrum(np.concatenate([lower, upper]))
    radii = [1.5, 3.0, 4.0]
    assert not np.array_equal(upper_lower_evaluators(s)[1].points, np.conj(s.points[s.points.imag < 0]))
    for w_col, n in zip(projection_weights(s, radii)[1].T, radii):
        row = row_dict(w_col)
        assert list(row) == np.flatnonzero(s.moduli < n).tolist()
        for k, w in row.items():
            lam = s.points[k]
            mu = s.points[(s.moduli >= n) & (np.sign(s.points.imag) == np.sign(lam.imag))]
            direct = np.prod((np.conj(mu) / mu) * (lam - mu) / (lam - np.conj(mu)))
            assert w == pytest.approx(direct, rel=1e-12, abs=1e-14)


def direct_projection_weights(s, radii) -> np.ndarray:
    """The per-step oracle of projection_weights: at the points of each
    half-plane inside n, exp of one blaschke_logs call over that
    half-plane's zeros with |mu| >= n, for each radius n; the lower
    half-plane through its mirror."""
    W = np.zeros((len(s), len(radii)), dtype=complex)
    for sign in (1.0, -1.0):
        ks = np.flatnonzero(np.sign(s.points.imag) == sign)
        z = s.points[ks] if sign > 0 else np.conj(s.points[ks])
        for j, n in enumerate(radii):
            inside, mu = np.abs(z) < n, z[np.abs(z) >= n]
            beta = np.exp(blaschke_logs(z[inside], mu.real, mu.imag))
            W[ks[inside], j] = beta if sign > 0 else np.conj(beta)
    return W


def _two_heights():
    """100 points in C+ at x = 2k, heights 0.3 and 0.5 in turn, and 100 in
    C- at x = 2k + 1."""
    k = np.arange(-50, 50)
    h = np.where(k % 2 == 0, 0.3, 0.5)
    return Spectrum(np.concatenate([2 * k + 1j * h, 2 * k + 1 - 1j * h]))


@pytest.mark.parametrize("case", ["shifted", "kadec", "two-heights", "on-a-radius"])
def test_projection_annuli_match_the_direct_tails(case):
    # one pass per annulus, accumulated from the outside in, against one
    # tail product per step; 3 + 4i has modulus 5 exactly: off step 5's
    # support, and a zero of the annulus 5 <= |mu| < 7
    s, radii = {
        "shifted": (make_family("shifted_integers", {"delta": 0.3}, 60), [5.0, 10.5, 20.0, 40.0, 61.0]),
        "kadec": (make_family("kadec_perturbed", {"delta": 0.25, "eps": 0.15}, 40), [3.0, 12.0, 30.0]),
        "two-heights": (_two_heights(), [10.0, 25.0, 50.0, 75.0, 100.0]),
        "on-a-radius": (Spectrum(np.array([3 + 4j, 1 + 1j, 2 - 1j, 3 - 4j, 6 + 2j, 0.5j, -4 + 3.5j])),
                        [2.0, 5.0, 7.0]),
    }[case]
    got, want = projection_weights(s, radii)[1], direct_projection_weights(s, radii)
    assert np.array_equal(got != 0, want != 0)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-13
    if case == "on-a-radius":
        k = int(np.flatnonzero(s.points == 3 + 4j)[0])
        assert s.moduli[k] == 5.0 and got[k].tolist() == [0, 0, got[k, 2]] and got[k, 2] != 0


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
def test_projection_pole_rejected(sign):
    # 1000 + 1e-12i is inside the radius and 1e-10 from the pole of the tail
    # zero 1000 + 1e-10 + 1e-12i: within the reach 1e-12 |mu| of touching
    pts = np.array([1000.0 + 1e-12j, 1000.0 + 1e-10 + 1e-12j])
    s = Spectrum(pts if sign > 0 else np.conj(pts))
    with pytest.raises(BlaschkeError):
        projection_weights(s, [1000.0 + 5e-11])


def test_weights_bounded_and_final(lattice_weights):
    s, naive, proj, uni, sched = lattice_weights
    for _, W in (naive, proj, uni):
        for w_col in W.T:
            for w in row_dict(w_col).values():
                assert abs(w) <= 1.0 + 1e-12
    # universal final step: every point inside the last contour, deviation
    # within the certified profile bound
    last = uni[1].shape[1] - 1
    row = row_dict(uni[1][:, last])
    assert set(row.keys()) == set(range(len(s)))
    l, alpha = sched[0, last], sched[2, last]
    for k, w in row.items():
        bound = outer_weight_deviation_bound(l, alpha, s.points[k])
        assert abs(w - 1.0) <= bound + 1e-12


def test_universal_pointwise_trend(lattice_weights):
    # for a fixed small frequency the deviation from 1 shrinks along the
    # schedule (alpha*l stays bounded while |Phi(lambda/l)| ~ 4|lambda|/l)
    s, *_, (_, uni), _ = lattice_weights
    k0 = int(np.argmin(np.abs(s.points - 0.3j)))
    devs = [abs(row_dict(w_col).get(k0, 0j) - 1.0) for w_col in uni.T]
    assert devs[-1] < devs[0]


def test_universal_support_matches_contour(lattice_weights):
    s, *_, (L, uni), sched = lattice_weights
    assert uni.shape[1] == sched.shape[1]
    for n, w_col, l, c in zip(L[0], uni.T, sched[0], sched[1]):
        assert n == l
        row_ks = list(row_dict(w_col))
        assert row_ks == sorted(row_ks)
        for k in range(len(s)):
            inside = bool(in_triangle(l, c, s.points[k]))
            assert (k in row_ks) == inside


def test_universal_domination_on_sides(lattice_weights):
    s, *_, sched = lattice_weights
    b = BlaschkeEvaluator(s)
    for l, c, alpha in zip(*sched[:3]):
        zeta = triangle_samples(l, c, 512)
        w_vals = outer_weight(l, float(alpha), zeta)
        b_vals = b.eval_B(zeta)
        assert np.all(np.abs(w_vals) <= np.abs(b_vals) * (1.0 + 1e-9))


def test_universal_lower_halfplane_mirror():
    pts = np.array([1j, 2 + 1j, -1j, -2 - 1j])
    s = Spectrum(pts)
    lo = Spectrum(pts[pts.imag < 0])
    b_up = BlaschkeEvaluator(Spectrum(pts[pts.imag > 0]))
    b_lo_ref = BlaschkeEvaluator(Spectrum(np.conj(lo.points)))
    sched_p = build_schedule(b_up, count=2)
    sched_m = build_schedule(b_lo_ref, count=2)
    L, uni = universal_weights(s, sched_p, sched_m)
    assert uni.shape[1] == 2
    for step, w_col in enumerate(uni.T):
        row = row_dict(w_col)
        for k, lam in enumerate(s.points):
            w = row.get(k, 0j)
            if lam.imag < 0:
                k_ref = int(np.argmin(np.abs(s.points - np.conj(lam))))
                assert w == pytest.approx(np.conj(row.get(k_ref, 0j)))
        assert L[0, step] == sched_p[0, step]
        assert isinstance(L, np.ndarray)
        assert L[(s.points[list(row)].imag < 0).astype(int), step].tolist() == [
            (sched_p if s.points[k].imag > 0 else sched_m)[0, step] for k in row]
    # with no upper points, a step's n is the mirror schedule's l, in both rows of L
    L_lo, _ = universal_weights(lo, None, sched_m)
    assert L_lo[0].tolist() == L_lo[1].tolist() == sched_m[0].tolist()


@settings(max_examples=30, deadline=None)
@given(
    pts=st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=30, allow_nan=False).filter(
            lambda z: abs(z.imag) > 0.05
        ),
        min_size=1,
        max_size=10,
        unique=True,
    ),
    frac=st.floats(min_value=0.1, max_value=0.9),
)
def test_projection_weight_laws_random(pts, frac):
    s = Spectrum(np.array(pts))
    n_mid = frac * s.radius + 0.01
    radii = [n_mid, max(s.radius * 1.01, n_mid + 0.05)]
    _, proj = projection_weights(s, radii)
    mods = s.moduli
    for w_col, n in zip(proj.T, radii):
        assert np.all(np.abs(w_col) <= 1.0 + 1e-12)
        # points at or outside the radius are absent from the column's support
        assert np.flatnonzero(w_col).tolist() == np.flatnonzero(mods < n).tolist()
    for w in row_dict(proj[:, 1]).values():
        assert abs(w - 1.0) <= 1e-9
