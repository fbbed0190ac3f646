import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pwsum.blaschke import BlaschkeEvaluator, upper_lower_evaluators
from pwsum.contours import build_schedule
from pwsum.spectrum import Spectrum, make_family
from pwsum.weights import (
    WeightError,
    naive_rows,
    outer_weight,
    outer_weight_deviation_bound,
    outer_weight_phase,
    projection_rows,
    universal_rows,
)


def row_dict(row) -> dict:
    """Spectrum index -> weight for the entries of a WeightRow."""
    return dict(zip(row.indices.tolist(), row.weights))


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
    return s, naive_rows(s, radii), projection_rows(s, radii), universal_rows(s, sched), sched


def test_naive_weights(lattice_weights):
    s, naive, *_ = lattice_weights
    assert row_dict(naive[0])[0] == 1.0
    k_far = len(s) - 1
    assert k_far not in row_dict(naive[0])
    assert row_dict(naive[3])[k_far] == 1.0
    assert all(abs(s.points[k]) < 5.0 and w == 1.0 for k, w in row_dict(naive[0]).items())


def test_radius_rows_carry_their_radius(lattice_weights):
    _, naive, proj, *_ = lattice_weights
    for rows in (naive, proj):
        assert [row.n for row in rows] == [5.0, 10.0, 15.0, 21.0]
        for row in rows:
            assert row.labels.tolist() == [row.n] * len(row)


def test_naive_empty_row():
    s = Spectrum(np.array([3j, 4j]))
    for rows in (naive_rows(s, [1.0, 2.0, 5.0]), projection_rows(s, [1.0, 2.0, 5.0])):
        row = rows[0]
        assert len(row) == 0
        assert row.indices.shape == row.weights.shape == row.labels.shape == (0,)
        assert row.indices.dtype.kind == "i" and row.weights.dtype == complex


def test_row_builders_check_their_schedules(lattice_weights):
    s, *_, sched = lattice_weights
    for build in (naive_rows, projection_rows):
        for radii in ([2.0, 1.0], [-1.0, 2.0], [1.0, 1.0]):
            with pytest.raises(WeightError, match="increasing"):
                build(s, radii)
    with pytest.raises(WeightError, match="upper"):
        universal_rows(s, None)
    both = Spectrum(np.array([1j, 2 + 1j, -1j, -2 - 1j]))
    b_up, b_lo = upper_lower_evaluators(both)
    with pytest.raises(WeightError, match="lower"):
        universal_rows(both, build_schedule(b_up, count=2))
    with pytest.raises(WeightError, match="equal length"):
        universal_rows(both, build_schedule(b_up, count=2), build_schedule(b_lo, count=1))


def test_projection_matches_blaschke_example():
    s = Spectrum(np.array([1j, 5j]))
    proj = projection_rows(s, [2.0, 6.0])
    k_i = int(np.flatnonzero(s.points == 1j)[0])
    assert row_dict(proj[0])[k_i] == pytest.approx(2.0 / 3.0)
    assert row_dict(proj[1])[k_i] == pytest.approx(1.0)


def test_projection_final_step_all_one(lattice_weights):
    s, _, proj, *_ = lattice_weights
    row = proj[3]
    assert len(row) == len(s)
    assert all(abs(w - 1.0) < 1e-12 for w in row.weights)


def test_projection_split_halfplanes():
    s = Spectrum(np.array([1j, -1j, 2 + 2j, -3 - 0.5j]))
    row = row_dict(projection_rows(s, [10.0])[0])
    for k in range(len(s)):
        assert row[k] == pytest.approx(1.0)
    row2 = row_dict(projection_rows(s, [2.0, 10.0])[0])
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
    for row, n in zip(projection_rows(s, radii), radii):
        assert row.indices.tolist() == np.flatnonzero(s.moduli < n).tolist()
        for k, w in zip(row.indices, row.weights):
            lam = s.points[k]
            mu = s.points[(s.moduli >= n) & (np.sign(s.points.imag) == np.sign(lam.imag))]
            direct = np.prod((np.conj(mu) / mu) * (lam - mu) / (lam - np.conj(mu)))
            assert w == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_weights_bounded_and_final(lattice_weights):
    s, naive, proj, uni, sched = lattice_weights
    for rows in (naive, proj, uni):
        for row in rows:
            for w in row.weights:
                assert abs(w) <= 1.0 + 1e-12
    # universal final step: every point inside the last contour, deviation
    # within the certified profile bound
    last = len(uni) - 1
    row = row_dict(uni[last])
    assert set(row.keys()) == set(range(len(s)))
    tri = sched.contours[last]
    alpha = sched.alphas[last]
    for k, w in row.items():
        bound = outer_weight_deviation_bound(tri.l, alpha, s.points[k])
        assert abs(w - 1.0) <= bound + 1e-12


def test_universal_pointwise_trend(lattice_weights):
    # for a fixed small frequency the deviation from 1 shrinks along the
    # schedule (alpha*l stays bounded while |Phi(lambda/l)| ~ 4|lambda|/l)
    s, *_, uni, _ = lattice_weights
    k0 = int(np.argmin(np.abs(s.points - 0.3j)))
    devs = [abs(row_dict(row).get(k0, 0j) - 1.0) for row in uni]
    assert devs[-1] < devs[0]


def test_universal_support_matches_contour(lattice_weights):
    s, *_, uni, sched = lattice_weights
    assert len(uni) == len(sched)
    for row, tri in zip(uni, sched.contours):
        assert row.n == tri.l
        row_ks = row.indices.tolist()
        assert row_ks == sorted(row_ks)
        for k in range(len(s)):
            inside = bool(tri.contains(s.points[k]))
            assert (k in row_ks) == inside


def test_universal_domination_on_sides(lattice_weights):
    s, *_, sched = lattice_weights
    b = BlaschkeEvaluator(s)
    for tri, alpha in zip(sched.contours, sched.alphas):
        zeta = tri.slanted_samples()
        w_vals = outer_weight(tri.l, float(alpha), zeta)
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
    uni = universal_rows(s, sched_p, sched_m)
    assert len(uni) == 2
    for step, r in enumerate(uni):
        row = row_dict(r)
        for k, lam in enumerate(s.points):
            w = row.get(k, 0j)
            if lam.imag < 0:
                k_ref = int(np.argmin(np.abs(s.points - np.conj(lam))))
                assert w == pytest.approx(np.conj(row.get(k_ref, 0j)))
        assert r.n == sched_p.contours[step].l
        assert isinstance(r.labels, np.ndarray)
        assert r.labels.tolist() == [(sched_p if s.points[k].imag > 0 else sched_m).contours[step].l
                                     for k in r.indices]
    # with no upper points, a row's n is the mirror schedule's l
    assert [r.n for r in universal_rows(lo, None, sched_m)] == [t.l for t in sched_m.contours]


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
    proj = projection_rows(s, radii)
    mods = s.moduli
    for row, n in zip(proj, radii):
        assert np.all(np.abs(row.weights) <= 1.0 + 1e-12)
        # points at or outside the radius are absent from the row
        assert row.indices.tolist() == np.flatnonzero(mods < n).tolist()
    for w in proj[1].weights:
        assert abs(w - 1.0) <= 1e-9
