import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsum.blaschke import (
    BlaschkeError,
    BlaschkeEvaluator,
    BudgetError,
    DiskFamily,
    hayman_scan,
    save_disks_csv,
    upper_lower_evaluators,
)
from pwsum.spectrum import Spectrum, make_family


def B_i(z):
    # single zero at i: (conj/lam) (z-lam)/(z-conj lam) = -(z-i)/(z+i)
    return -(z - 1j) / (z + 1j)


def test_single_point_values():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    assert b.eval_B(0.0) == pytest.approx(1.0)
    assert abs(b.eval_B(1j)) == pytest.approx(0.0)
    assert b.eval_B(1.0) == pytest.approx(1j)


def test_matches_direct_formula_random():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5, 5, 6) + 1j * rng.uniform(0.2, 3, 6)
    b = BlaschkeEvaluator(Spectrum(pts))
    for z in (0.3 + 0.7j, -2 + 0.01j, 4.0 + 0j):
        direct = np.prod([(np.conj(l) / l) * (z - l) / (z - np.conj(l)) for l in pts])
        assert b.eval_B(z) == pytest.approx(direct, rel=1e-12)


def test_unimodular_on_reals():
    s = make_family("shifted_integers", {"delta": 0.3}, 100)
    b = BlaschkeEvaluator(s)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-150, 150, 1000)
    vals = b.eval_B(xs.astype(complex))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-10


def test_modulus_bound_upper_halfplane():
    s = make_family("kadec_perturbed", {"delta": 0.5, "eps": 0.2}, 20)
    b = BlaschkeEvaluator(s)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-25, 25, 200) + 1j * rng.uniform(0.0, 10, 200)
    vals = b.eval_B(zs)
    assert np.all(np.abs(vals) <= 1.0 + 1e-10)


def test_pole_rejected():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    with pytest.raises(BlaschkeError):
        b.eval_B(-1j)


# -- log|B| in real arithmetic ---------------------------------------------

LOG_ABS_ATOL = 1e-12  # absolute, against a 30-digit sum


def _mp_log_abs_B(z, lam):
    """sum over lam of log|z - lam| - log|z - conj lam| (the points as stored
    in the spectrum, either half-plane), summed in mpmath at 30 digits."""
    with mpmath.workdps(30):
        zz = mpmath.mpc(z)
        return float(mpmath.fsum(
            mpmath.log(abs(zz - mpmath.mpc(l))) - mpmath.log(abs(zz - mpmath.conj(mpmath.mpc(l))))
            for l in lam
        ))


def _oracle_points(lam):
    """Points 1e-3 .. 1e-10 away from zeros, and far-field points with |z| = 1e3."""
    th = np.array([0.3, 1.7, 2.9, 4.4])
    near = np.concatenate([lam[k] + r * np.exp(1j * th) for k in (0, 7, 40) for r in (1e-3, 1e-7, 1e-10)])
    far = 1e3 * np.exp(1j * np.array([0.05, 0.8, 1.6, 3.1, -0.4, -2.0]))
    return np.concatenate([near, far, [0.3 + 0.2j, -5.1 + 2.5j]])


@pytest.mark.parametrize("orientation", ["upper", "lower"])
def test_log_abs_B_matches_mpmath(orientation):
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 40)
    if orientation == "lower":
        s = Spectrum(np.conj(s.points))
    b = BlaschkeEvaluator(s, orientation=orientation)
    zs = _oracle_points(s.points)
    got = b.log_abs_B(zs)
    want = np.array([_mp_log_abs_B(z, s.points) for z in zs])
    np.testing.assert_allclose(got, want, rtol=0, atol=LOG_ABS_ATOL)
    assert isinstance(b.log_abs_B(zs[0]), float)


def test_log_abs_B_zero_and_pole():
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 10)
    b = BlaschkeEvaluator(s)
    lam = b.points[3]
    vals = b.log_abs_B(np.array([lam, lam + 0.5]))  # no RuntimeWarning either
    assert vals[0] == -np.inf and np.isfinite(vals[1])
    assert b.log_abs_B(lam) == -np.inf
    with pytest.raises(BlaschkeError):
        b.log_abs_B(np.conj(lam))
    lo = BlaschkeEvaluator(Spectrum(np.conj(s.points)), orientation="lower")
    assert lo.log_abs_B(np.conj(lam)) == -np.inf
    with pytest.raises(BlaschkeError):
        lo.log_abs_B(lam)


def test_beta_trivial_full_inclusion():
    s = Spectrum(np.array([1j, 5j, 2 + 1j]))
    b = BlaschkeEvaluator(s)
    for k in range(3):
        assert b.eval_beta(k, 10.0) == pytest.approx(1.0)


def test_beta_single_tail_factor():
    b = BlaschkeEvaluator(Spectrum(np.array([1j, 5j])))
    # tail factor of lambda=i against mu=5i: (-1)(i-5i)/(i+5i) = 2/3
    assert b.eval_beta(0, 2.0) == pytest.approx(2.0 / 3.0)


def test_beta_zero_outside():
    b = BlaschkeEvaluator(Spectrum(np.array([1j, 5j])))
    assert b.eval_beta(1, 2.0) == 0j
    assert b.eval_beta(0, 1.0) == 0j


def test_beta_modulus_bound_and_monotone_trend():
    s = make_family("shifted_integers", {"delta": 0.3}, 60)
    b = BlaschkeEvaluator(s)
    k = int(np.argmin(np.abs(b.points - 0.3j)))
    radii = [5.0, 10.0, 20.0, 40.0, 61.0]
    devs = []
    for n in radii:
        beta = b.eval_beta(k, n)
        assert abs(beta) <= 1.0 + 1e-12
        devs.append(abs(beta - 1.0))
    assert all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
    assert devs[-1] < 1e-12


def test_cutoff_tail_consistency():
    s = make_family("kadec_perturbed", {"delta": 0.4, "eps": 0.1}, 15)
    b = BlaschkeEvaluator(s)
    for z in (0.2 + 1.1j, -3 + 0.5j):
        full = b.eval_B(z)
        split = b.eval_B(z, cutoff=7.0) * b.tail_factor(z, 7.0)
        assert full == pytest.approx(split, rel=1e-12)


def test_lower_halfplane_conjugation():
    pts = np.array([-1j, 2 - 0.5j])
    s = Spectrum(pts)
    b = BlaschkeEvaluator(s, orientation="lower")
    z = 0.4 - 0.8j
    direct = np.prod([(np.conj(l) / l) * (z - l) / (z - np.conj(l)) for l in pts])
    assert b.eval_B(z) == pytest.approx(direct, rel=1e-12)
    assert np.all(b.points.imag > 0)


def test_B_prime_at_zero():
    # B(z) = -(z-i)/(z+i), B'(i) = -2i/(z+i)^2 at z=i: -2i/(-4) = i/2
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    assert b.eval_B_prime_at(0) == pytest.approx(0.5j)


def test_B_prime_matches_difference_quotient():
    s = make_family("shifted_integers", {"delta": 0.3}, 8)
    b = BlaschkeEvaluator(s)
    for k in (0, 3, 7):
        lam = b.points[k]
        eps = 1e-6
        fd = (b.eval_B(lam + eps, cutoff=5.0) - b.eval_B(lam - eps, cutoff=5.0)) / (2 * eps)
        if abs(lam) >= 5.0:
            with pytest.raises(BlaschkeError):
                b.eval_B_prime_at(k, cutoff=5.0)
        else:
            got = b.eval_B_prime_at(k, cutoff=5.0)
            assert fd == pytest.approx(got, rel=1e-6)


def test_arg_derivative_single_point():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    assert b.arg_derivative_on_R(0.0) == pytest.approx(2.0)
    ts = np.array([2.0, 5.0, 10.0, 50.0])
    vals = b.arg_derivative_on_R(ts)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_arg_derivative_lattice_tail():
    # window + analytic tail should reproduce the infinite-lattice value
    # 2*delta*sum_n 1/((t-n)^2+delta^2), computed by brute force
    delta = 0.3
    s = make_family("shifted_integers", {"delta": delta}, 40)
    b = BlaschkeEvaluator(s)
    t = 0.5
    ns = np.arange(-200000, 200001)
    brute = np.sum(2 * delta / ((t - ns) ** 2 + delta**2))
    assert b.arg_derivative_on_R(t) == pytest.approx(brute, rel=1e-4)


@settings(max_examples=30, deadline=None)
@given(
    pts=st.lists(
        st.complex_numbers(min_magnitude=0.05, max_magnitude=20, allow_nan=False).filter(
            lambda z: z.imag > 0.05
        ),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    t=st.floats(min_value=-30, max_value=30),
)
def test_arg_derivative_nonnegative(pts, t):
    b = BlaschkeEvaluator(Spectrum(np.array(pts)))
    assert b.arg_derivative_on_R(t) >= 0.0


# -- hayman scan -------------------------------------------------------------


def test_hayman_empty():
    fam = hayman_scan(
        BlaschkeEvaluator(Spectrum(np.array([], dtype=complex))),
        10.0,
        (np.array([0.0, 10.0]), np.array([1.0, 1.0])),
    )
    assert fam.view_sum == 0.0
    assert not fam.contains(np.array([1j]))[0]


def test_hayman_single_point():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    prof = (np.array([0.0, 10.0]), np.array([50.0, 50.0]))
    fam = hayman_scan(b, 10.0, prof)
    assert fam.centers.shape == (1,)
    assert fam.view_sum <= 1e-3
    zs = np.array([2j, 5 + 1j, 0.5 + 0.5j])
    outside = ~fam.contains(zs)
    neg_log = -np.log(np.abs(b.eval_B(zs[outside])))
    assert np.all(neg_log <= 50.0 * np.abs(zs[outside]))


def test_hayman_lattice_budget():
    s = make_family("shifted_integers", {"delta": 0.3}, 40)
    b = BlaschkeEvaluator(s)
    prof = (np.array([0.0, 40.0]), np.array([30.0, 29.9]))
    fam = hayman_scan(b, 35.0, prof, n_verify=12000)
    assert fam.view_sum <= 1e-3
    # radii proportional to |lambda|/(1+|lambda|)^2 keep the view sum summable
    assert fam.radii.shape == fam.centers.shape
    assert fam.profile_values.size >= 5


def test_hayman_infeasible_budget_reports_smallest():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    # an absurdly demanding profile cannot hold outside tiny disks
    prof = (np.array([0.0, 10.0]), np.array([1e-9, 1e-9]))
    with pytest.raises(BudgetError) as exc:
        hayman_scan(b, 10.0, prof, n_verify=4000)
    assert exc.value.smallest_budget > 1e-3


def test_disks_csv(tmp_path):
    fam = DiskFamily(
        centers=np.array([1j, 1 + 1j]),
        radii=np.array([0.1, 0.05]),
        profile_radii=np.array([1.0]),
        profile_values=np.array([1.0]),
    )
    p = tmp_path / "disks.csv"
    save_disks_csv(fam, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "center_re,center_im,radius"
    assert len(lines) == 3


def test_upper_lower_split_helper():
    s = Spectrum(np.array([1j, -2j, 1 + 1j]))
    b_up, b_lo = upper_lower_evaluators(s)
    assert len(b_up) == 2 and len(b_lo) == 1
