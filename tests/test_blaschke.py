import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsum.blaschke import BlaschkeError, BlaschkeEvaluator, upper_lower_evaluators
from pwsum.spectrum import Spectrum, make_family
from pwsum.weights import projection_rows


def B_i(z):
    # single zero at i: (conj/lam) (z-lam)/(z-conj lam) = -(z-i)/(z+i)
    return -(z - 1j) / (z + 1j)


def test_single_point_values():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    assert b.eval_B(np.array([0.0, 1j, 1.0])) == pytest.approx([1.0, 0.0, 1j])


def test_matches_direct_formula_random():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5, 5, 6) + 1j * rng.uniform(0.2, 3, 6)
    b = BlaschkeEvaluator(Spectrum(pts))
    for z in (0.3 + 0.7j, -2 + 0.01j, 4.0 + 0j):
        direct = np.prod([(np.conj(l) / l) * (z - l) / (z - np.conj(l)) for l in pts])
        assert b.eval_B(np.array([z]))[0] == pytest.approx(direct, rel=1e-12)


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


@pytest.mark.parametrize("kernel", [
    lambda b, z: b.eval_B(z),
    lambda b, z: b.eval_B(z, cutoff=3.0),
    lambda b, z: b.tail_factor(z, 1.5),
    lambda b, z: b.log_abs_B(z),
], ids=["eval_B", "eval_B-cutoff", "tail_factor", "log_abs_B"])
def test_pole_rejected(kernel):
    # each kernel checks for a pole conj(lambda) itself: -2j is the pole of the
    # zero 2j, inside the cutoff 3 and in the tail |mu| >= 1.5; 1e-13 away is
    # within the relative tolerance 1e-12 * |lambda|
    b = BlaschkeEvaluator(Spectrum(np.array([1j, 2j])))
    for z in (np.array([-2j]), np.array([0.5 + 0.5j, -2j + 1e-13])):
        with pytest.raises(BlaschkeError):
            kernel(b, z)


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


@pytest.mark.parametrize("half", ["upper", "lower"])
def test_log_abs_B_matches_mpmath(half):
    # lower: the oracle sums over the original points in C-; the evaluator
    # is their mirror, read at conj z (|B-(z)| = |B_mirror(conj z)|)
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 40)
    if half == "lower":
        s = Spectrum(np.conj(s.points))
    b_up, b_lo = upper_lower_evaluators(s)
    b, flip = (b_up, np.asarray) if half == "upper" else (b_lo, np.conj)
    zs = _oracle_points(s.points)
    got = b.log_abs_B(flip(zs))
    want = np.array([_mp_log_abs_B(z, s.points) for z in zs])
    np.testing.assert_allclose(got, want, rtol=0, atol=LOG_ABS_ATOL)


def test_log_abs_B_zero_and_pole():
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 10)
    b = BlaschkeEvaluator(s)
    lam = b.points[3]
    vals = b.log_abs_B(np.array([lam, lam + 0.5]))  # no RuntimeWarning either
    assert vals[0] == -np.inf and np.isfinite(vals[1])
    with pytest.raises(BlaschkeError):
        b.log_abs_B(np.conj([lam]))
    # B- of the lower spectrum conj(Lambda), read at z through the mirror at conj z
    _, lo = upper_lower_evaluators(Spectrum(np.conj(s.points)))
    zero, pole = np.conj(lam), lam
    assert lo.log_abs_B(np.conj([zero]))[0] == -np.inf
    with pytest.raises(BlaschkeError):
        lo.log_abs_B(np.conj([pole]))


def test_eval_B_zero_inside_a_block():
    # a zero factor sends its row to one log per factor: log 0 = -inf, B = 0
    # exactly, and the other rows keep their block products
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 20)  # 41 zeros
    b = BlaschkeEvaluator(s)
    z = np.array([b.points[17], b.points[17] + 0.25, b.points[40]])
    vals = b.eval_B(z)  # no RuntimeWarning either
    assert vals[0] == 0 and vals[2] == 0
    assert vals[1] == b.eval_B(z[1:2])[0]
    direct = np.prod((np.conj(b.points) / b.points) * (z[1] - b.points) / (z[1] - np.conj(b.points)))
    assert vals[1] == pytest.approx(direct, rel=1e-12)


def test_beta_trivial_full_inclusion():
    s = Spectrum(np.array([1j, 5j, 2 + 1j]))
    b = BlaschkeEvaluator(s)
    assert b.tail_factor(b.points, 10.0) == pytest.approx(np.ones(3))


def test_beta_single_tail_factor():
    b = BlaschkeEvaluator(Spectrum(np.array([1j, 5j])))
    # tail factor of lambda=i against mu=5i: (-1)(i-5i)/(i+5i) = 2/3
    assert b.tail_factor(b.points[:1], 2.0)[0] == pytest.approx(2.0 / 3.0)


def test_beta_zero_outside():
    # beta_n vanishes at |lambda| >= n: such points are absent from the row
    rows = projection_rows(Spectrum(np.array([1j, 5j])), [1.0, 2.0])
    assert rows[0].indices.tolist() == []
    assert rows[1].indices.tolist() == [0]


def test_beta_modulus_bound_and_monotone_trend():
    s = make_family("shifted_integers", {"delta": 0.3}, 60)
    b = BlaschkeEvaluator(s)
    k = int(np.argmin(np.abs(b.points - 0.3j)))
    radii = [5.0, 10.0, 20.0, 40.0, 61.0]
    devs = []
    for n in radii:
        beta = b.tail_factor(b.points[k : k + 1], n)[0]
        assert abs(beta) <= 1.0 + 1e-12
        devs.append(abs(beta - 1.0))
    assert all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
    assert devs[-1] < 1e-12


def test_cutoff_tail_consistency():
    s = make_family("kadec_perturbed", {"delta": 0.4, "eps": 0.1}, 15)
    b = BlaschkeEvaluator(s)
    z = np.array([0.2 + 1.1j, -3 + 0.5j])
    split = b.eval_B(z, cutoff=7.0) * b.tail_factor(z, 7.0)
    assert b.eval_B(z) == pytest.approx(split, rel=1e-12)


def test_lower_halfplane_conjugation():
    pts = np.array([-1j, 2 - 0.5j])
    b_up, b = upper_lower_evaluators(Spectrum(pts))
    z = 0.4 - 0.8j
    direct = np.prod([(np.conj(l) / l) * (z - l) / (z - np.conj(l)) for l in pts])
    assert b_up is None
    assert np.conj(b.eval_B(np.conj([z])))[0] == pytest.approx(direct, rel=1e-12)
    assert np.all(b.points.imag > 0)
    with pytest.raises(BlaschkeError):
        BlaschkeEvaluator(Spectrum(pts))  # one evaluator, points in C+ only


def test_B_prime_at_zero():
    # B(z) = -(z-i)/(z+i), B'(i) = -2i/(z+i)^2 at z=i: -2i/(-4) = i/2
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    assert b.eval_B_prime_at(np.array([0]))[0] == pytest.approx(0.5j)


def test_B_prime_matches_difference_quotient():
    s = make_family("shifted_integers", {"delta": 0.3}, 8)
    b = BlaschkeEvaluator(s)
    for k in (0, 3, 7):
        lam = b.points[k]
        eps = 1e-6
        above, below = b.eval_B(np.array([lam + eps, lam - eps]), cutoff=5.0)
        fd = (above - below) / (2 * eps)
        if abs(lam) >= 5.0:
            with pytest.raises(BlaschkeError):
                b.eval_B_prime_at(np.array([k]), cutoff=5.0)
        else:
            got = b.eval_B_prime_at(np.array([k]), cutoff=5.0)[0]
            assert fd == pytest.approx(got, rel=1e-6)


def test_B_prime_index_array_matches_per_k_product():
    # the oracle: the own factor's derivative times a direct product over the others
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 12)
    b = BlaschkeEvaluator(s)
    for cutoff in (np.inf, 7.0):
        lam = b.points[np.abs(b.points) < cutoff]
        ks = np.arange(lam.size)
        got = b.eval_B_prime_at(ks, cutoff=cutoff)
        for k in ks:
            mu, lk = np.delete(lam, k), lam[k]
            oracle = (np.conj(lk) / lk) / (lk - np.conj(lk)) * np.prod(
                (np.conj(mu) / mu) * (lk - mu) / (lk - np.conj(mu))
            )
            assert got[k] == pytest.approx(oracle, rel=1e-13, abs=0.0)
    # bit-equal alone and in the array: an out-of-place complex multiply of one
    # element rounds as in a longer array (numpy 2.4.6, x86-64 with FMA)
    one = b.eval_B_prime_at(np.array([3]), cutoff=7.0)
    assert one.shape == (1,) and one[0] == got[3]
    assert b.eval_B_prime_at(np.array([], dtype=int), cutoff=7.0).shape == (0,)
    for bad in ([lam.size], [0, lam.size], [-1]):
        with pytest.raises(BlaschkeError):
            b.eval_B_prime_at(np.array(bad), cutoff=7.0)


def test_arg_derivative_single_point():
    b = BlaschkeEvaluator(Spectrum(np.array([1j])))
    assert b.arg_derivative_on_R(np.array([0.0]))[0] == pytest.approx(2.0)
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
    assert b.arg_derivative_on_R(np.array([t]))[0] == pytest.approx(brute, rel=1e-4)


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
    assert b.arg_derivative_on_R(np.array([t]))[0] >= 0.0


def test_upper_lower_split_helper():
    s = Spectrum(np.array([1j, -2j, 1 + 1j]))
    b_up, b_lo = upper_lower_evaluators(s)
    assert b_up.points.size == 2 and b_lo.points.size == 1
