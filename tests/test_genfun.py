import mpmath
import numpy as np
import pytest
from scipy.special import loggamma

from pwsum.blaschke import upper_lower_evaluators
from pwsum.genfun import (
    CollisionError,
    GenFunError,
    GeneratingFunctionEvaluator,
    OuterEvaluator,
    _log_rgamma,
    _log_sin_pi,
    _tail_log,
    check_factorization,
)
from pwsum.grids import line_grid
from pwsum.spectrum import Spectrum, make_family


def sine_type_G(z, delta):
    # zero set Z + i*delta, normalized to 1 at the origin
    return np.sin(np.pi * (z - 1j * delta)) / np.sin(-1j * np.pi * delta)


def sine_type_G_prime(z, delta):
    return np.pi * np.cos(np.pi * (z - 1j * delta)) / np.sin(-1j * np.pi * delta)


@pytest.fixture(scope="module")
def lattice200():
    s = make_family("shifted_integers", {"delta": 0.3}, 200)
    return GeneratingFunctionEvaluator(s)


def test_single_factor():
    g = GeneratingFunctionEvaluator(Spectrum(np.array([1j])))
    assert g.eval_G(np.array([2j]))[0] == pytest.approx(-1.0)


def test_lattice_matches_sine_form_small_z():
    s = make_family("shifted_integers", {"delta": 0.3}, 5000)
    g = GeneratingFunctionEvaluator(s)
    got = g.eval_G(np.array([0.5 + 0j]))[0]
    want = sine_type_G(0.5, 0.3)
    assert abs(got - want) / abs(want) < 1e-3


def test_lattice_matches_sine_form_on_line(lattice200):
    x = np.linspace(-10, 10, 401)
    got = lattice200.eval_G(x.astype(complex))
    want = sine_type_G(x, 0.3)
    rel = np.max(np.abs(got - want) / np.abs(want))
    assert rel < 1e-8


def test_lattice_matches_sine_form_large_window_edge(lattice200):
    # near the window edge the analytic tail carries much of log G
    z = np.array([150.3 + 2j, -170.0 + 0.4j, 60.0 + 0j])
    got = lattice200.eval_G(z)
    want = sine_type_G(z, 0.3)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


def test_prime_single_point():
    g = GeneratingFunctionEvaluator(Spectrum(np.array([1j])))
    assert g.eval_G_prime_at_lambda(np.array([0]))[0] == pytest.approx(1j)


def test_prime_two_points():
    g = GeneratingFunctionEvaluator(Spectrum(np.array([1j, -1j])))
    k = np.flatnonzero(g.spectrum.points.imag > 0)
    assert g.eval_G_prime_at_lambda(k)[0] == pytest.approx(2j)


def test_prime_lattice_center():
    s = make_family("shifted_integers", {"delta": 0.3}, 5000)
    g = GeneratingFunctionEvaluator(s)
    k = np.argmin(np.abs(s.points - 0.3j))
    got = g.eval_G_prime_at_lambda(np.array([k]))[0]
    want = np.pi / np.sin(-0.3j * np.pi)
    assert abs(got - want) / abs(want) < 1e-3


def test_prime_matches_all_closed_form(lattice200):
    s = lattice200.spectrum
    ks = np.arange(0, len(s), 17)
    got = lattice200.eval_G_prime_at_lambda(ks)
    want = sine_type_G_prime(s.points[ks], 0.3)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


def test_prime_vs_central_difference():
    s = make_family("shifted_integers", {"delta": 0.3}, 50)
    g = GeneratingFunctionEvaluator(s)
    ks = np.flatnonzero(s.moduli < 25)
    lam = s.points[ks]
    eps = 1e-5 * (1 + np.abs(lam))
    fd = (g.eval_G(lam + eps) - g.eval_G(lam - eps)) / (2 * eps)
    got = g.eval_G_prime_at_lambda(ks)
    assert np.max(np.abs(fd - got) / np.abs(got)) < 1e-4


@pytest.mark.parametrize("radius", [20.0, np.inf])
def test_prime_index_array_matches_scalar_and_mpmath(radius):
    # radius 20 asks for G' at the points of modulus >= 20 first, which fills
    # every node; radius inf asks for every node at once
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 30)
    ks = np.arange(len(s))
    g = GeneratingFunctionEvaluator(s)
    outer = ks[s.moduli >= radius]
    assert (outer.size > 0) == np.isfinite(radius)
    g.eval_G_prime_at_lambda(outer)
    got = g.eval_G_prime_at_lambda(ks)
    fresh = GeneratingFunctionEvaluator(s)
    scalar = np.concatenate([fresh.eval_G_prime_at_lambda(ks[k : k + 1]) for k in ks])
    assert np.max(np.abs(got - scalar) / np.abs(scalar)) < 1e-12
    # oracle: -1/lambda_k times the product over every other stored point at
    # 30 digits, times the family tail beyond the window
    tail = np.exp(_tail_log(s.tail, s.points))
    with mpmath.workdps(30):
        pts = [mpmath.mpc(p) for p in s.points]
        want = [
            complex(-1 / lam * mpmath.fprod(1 - lam / mu for mu in pts if mu != lam)) for lam in pts
        ]
    rel = np.abs(got - np.array(want) * tail) / np.abs(got)
    assert np.max(rel) < 1e-12


def test_prime_on_a_clustered_window_matches_mpmath():
    # a tailless clustered_pairs window (801 points, pairs eps/|k| apart): the
    # factor (lambda - z)/lambda keeps its digits next to a zero, where
    # 1 - z/lambda lost them (1.29e-11 relative at every 7th node)
    s = Spectrum(make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 200).points)
    ks = np.arange(0, len(s), 7)
    got = GeneratingFunctionEvaluator(s).eval_G_prime_at_lambda(ks)
    with mpmath.workdps(40):
        pts = [mpmath.mpc(p) for p in s.points]
        want = np.array(
            [complex(-1 / pts[k] * mpmath.fprod(1 - pts[k] / mu for j, mu in enumerate(pts) if j != k)) for k in ks]
        )
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_prime_index_out_of_range(lattice200):
    n = len(lattice200.spectrum)
    for bad in ([-1], [n], [0, n]):
        with pytest.raises(GenFunError):
            lattice200.eval_G_prime_at_lambda(np.array(bad))


def test_collision_rejected(lattice200):
    with pytest.raises(CollisionError):
        lattice200.eval_G(np.array([0.3j]))


def test_line_collision_rejected_on_the_points_height(lattice200):
    # on the line x + i Im lambda_k only the columns at that height are
    # tested: a sample within the tolerance of lambda_k still collides
    lam = lattice200.spectrum.points[7]
    for x in (lam.real, lam.real + 1e-13):
        with pytest.raises(CollisionError):
            lattice200.log_abs_G(np.array([lam.real + 0.5, x]), a=lam.imag)
    x = np.linspace(-20.0, 20.0, 81) + 0.25  # clear of every point
    assert np.all(np.isfinite(lattice200.log_abs_G(x, a=lam.imag)))


def test_deterministic_bitwise(lattice200):
    z = np.linspace(-3, 3, 11) + 0.7j
    a = lattice200.eval_G(z)
    b = lattice200.eval_G(z)
    assert np.all(a == b)


@pytest.mark.parametrize(
    "family, params",
    [
        ("shifted_integers", {"delta": 0.3}),
        ("kadec_perturbed", {"delta": 0.3, "eps": 0.2}),
        ("clustered_pairs", {"delta": 1.0, "eps": 0.5}),
    ],
)
def test_batch_matches_one_point_calls_bit_for_bit(family, params):
    # a point's G has the same bits alone and in a batch, also where two points
    # of the batch take the log-Gamma recurrence, or one alone: Re w < 12 for
    # w = rho + (c - z)/s near the window edge (rho = 31, 16 or 15.5 here).
    # It rests on numpy's dispatch, as checked with numpy 2.4.6 on an x86-64 CPU
    # with FMA: an out-of-place complex multiply takes the fused (FMA) loop of a
    # long array at every length, one element multiplied in place does not.
    g = GeneratingFunctionEvaluator(make_family(family, params, 30))
    rng = np.random.default_rng(3)
    z = rng.uniform(-4.0, 4.0, 40) + 1j * rng.choice([-1.0, 1.0], 40) * rng.uniform(0.5, 2.0, 40)
    z[[17, 29]] += 20.0
    whole = g.eval_G(z)
    assert np.array_equal(whole, np.concatenate([g.eval_G(z[i : i + 1]) for i in range(z.size)]))
    assert np.array_equal(whole[:20], g.eval_G(z[:20]))


@pytest.fixture(scope="module")
def lattice400_grid():
    s = make_family("shifted_integers", {"delta": 0.3}, 400)
    g = GeneratingFunctionEvaluator(s)
    x, _ = line_grid(40.0, 0.02)
    return s, g, x, g.eval_G(x)


def test_grid_G_matches_sine_form(lattice400_grid):
    # block log-products on the grid against the closed form of the lattice G
    _, _, x, got = lattice400_grid
    want = sine_type_G(x, 0.3)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


def test_grid_G_matches_per_factor_log_sum(lattice400_grid):
    # oracle: one log per factor, summed in the same |lambda|-ascending order
    s, _, x, got = lattice400_grid
    x = x[::10]
    logs = np.log(1.0 - x[:, None].astype(complex) / s.points[None, :]).sum(axis=1)
    want = np.exp(logs + _tail_log(s.tail, x.astype(complex)))
    assert np.max(np.abs(got[::10] - want) / np.abs(want)) < 1e-12


def test_block_product_overflow_falls_back_per_factor():
    # 32 points of modulus ~1e-6: at z = 1e15 + i each factor is ~1e21, so a block
    # product of 16 overflows and that row takes one log per factor (a real z
    # takes the line kernels, not log_products)
    j = np.arange(32)
    lam = 1e-6 * ((j + 1) + (1.0 + 0.01 * j) * 1j)
    g = GeneratingFunctionEvaluator(Spectrum(lam))
    z = np.array([0.5 + 0.2j, 1e15 + 1j])
    got = g.log_G(z)
    per_factor = np.log(1.0 - z[:, None] / g.spectrum.points[None, :]).sum(axis=1)
    assert got[1] == per_factor[1]
    assert np.isfinite(got[1]) and got[1].real > 700.0  # exp would overflow
    # the block path keeps log|G|; its Im agrees modulo 2 pi
    assert abs(got[0].real - per_factor[0].real) < 1e-12 * abs(per_factor[0].real)
    assert abs(np.exp(1j * (got[0].imag - per_factor[0].imag)) - 1.0) < 1e-12


def test_kadec_tail_against_direct_product():
    # oracle: brute-force product over a much larger window
    params = {"delta": 0.4, "eps": 0.2}
    small = make_family("kadec_perturbed", params, 60)
    g = GeneratingFunctionEvaluator(small)
    big = make_family("kadec_perturbed", params, 200000)
    z = 1.7 + 0.9j
    logs = np.log(1.0 - z / big.points)
    order = np.argsort(np.abs(big.points), kind="stable")
    brute = np.exp(np.sum(logs[order]))
    got = g.eval_G(np.array([z]))[0]
    assert abs(got - brute) / abs(brute) < 2e-5


def _mp_tail_log_abs(tail, z, head=200):
    """Re log of the tail product, summed pair factor by pair factor in mpmath:
    the first `head` indices directly, the smooth remainder by Euler-Maclaurin.

    The pair factor (1 - z/(c+q))(1 - z/(c-q)) is written 1 + A/(q^2 - c^2),
    A = 2cz - z^2, and logged by log1p so that far terms keep their digits.
    """
    z = mpmath.mpc(z)

    def term(sl, m):
        c, q = mpmath.mpc(sl.c), sl.spacing * m + sl.offset
        return sl.weight * mpmath.re(mpmath.log1p((2 * c * z - z * z) / (q * q - c * c)))

    stop = max(sl.start for sl in tail.sublattices) + head
    direct = mpmath.fsum(term(sl, m) for sl in tail.sublattices for m in range(sl.start, stop))
    rest = mpmath.nsum(
        lambda m: mpmath.fsum(term(sl, m) for sl in tail.sublattices),
        [stop, mpmath.inf],
        method="euler-maclaurin",
    )
    return direct + rest


def test_kadec_tail_matches_mpmath_pair_series():
    # oracle independent of the Gamma identity: the pair-factor log series
    # itself at 30 digits, including a point past the window edge |Re z| = 100
    s = make_family("kadec_perturbed", {"delta": 0.4, "eps": 0.2}, 100)
    tail = s.tail
    zs = np.array([0.5 + 0j, -37.3 + 1.1j, 143.7 + 0.2j])
    got = _tail_log(tail, zs).real
    with mpmath.workdps(30):
        want = [float(_mp_tail_log_abs(tail, z)) for z in zs]
    assert np.max(np.abs(got - np.array(want))) < 1e-11


def test_clustered_tail_uncertainty_reported():
    s = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 50)
    g = GeneratingFunctionEvaluator(s)
    unc = g.tail_uncertainty(np.array([10.0 + 0j]))
    assert 0 < unc[0] < 1e-1
    # a custom list is the whole zero set: no tail, nothing uncertain
    assert GeneratingFunctionEvaluator(Spectrum(np.array([1j, 5j]))).tail_uncertainty(np.array([10.0]))[0] == 0.0


def test_clustered_tail_error_within_reported_uncertainty():
    # oracle: brute-force product over a 2000-site window; the approximate
    # tail (second copy folded into the base lattice) must stay within the
    # reported |z|-proportional slack
    params = {"delta": 1.0, "eps": 0.5}
    small = make_family("clustered_pairs", params, 50)
    g = GeneratingFunctionEvaluator(small)
    big = make_family("clustered_pairs", params, 2000)
    gbig = GeneratingFunctionEvaluator(big)
    z = np.array([3.0 + 0j, -7.5 + 2j])
    got = g.eval_G(z)
    want = gbig.eval_G(z)
    rel = np.abs(got - want) / np.abs(want)
    assert np.all(rel <= g.tail_uncertainty(z) + 1e-6)


# -- outer factor -----------------------------------------------------------


def test_outer_of_unimodular_boundary():
    o = OuterEvaluator(50.0, 0.05, np.zeros(line_grid(50.0, 0.05)[0].size))
    z = np.array([1j, 2 + 3j, -5 + 0.5j])
    assert np.allclose(np.abs(o.eval_outer(z)), 1.0, atol=1e-12)


def test_outer_scaling():
    x, _ = line_grid(50.0, 0.05)
    rng = np.random.default_rng(0)
    phi = np.exp(-x**2 / 100.0) * rng.standard_normal(x.size) * 0.1
    o1 = OuterEvaluator(50.0, 0.05, phi)
    o2 = OuterEvaluator(50.0, 0.05, phi + np.log(2.0))
    z = np.array([1.5 + 2j])
    assert abs(o2.eval_outer(z)[0]) == pytest.approx(2 * abs(o1.eval_outer(z)[0]), rel=1e-9)


def test_outer_halfplane_oracle():
    # |G(x)| = |x + i| is the boundary modulus of the outer function z + i.
    # The log-modulus grows like log|t| here, so the finite window leaves an
    # O(log X / X) truncation error; bounded (sine-type) weights do better.
    x, _ = line_grid(400.0, 0.05)
    o = OuterEvaluator(400.0, 0.05, 0.5 * np.log(1.0 + x**2))
    z = np.array([2j, 1 + 1j, -3 + 0.7j])
    assert np.abs(o.eval_outer(z)) == pytest.approx(np.abs(z + 1j), rel=1.5e-2)


def test_outer_boundary_phase_consistent():
    # bounded, decaying boundary modulus with closed form: the outer
    # function for |omega(x)| = |(x+2i)/(x+i)| is (z+2i)/(z+i), so
    # omega(x) over that ratio must be one unimodular constant
    x, _ = line_grid(200.0, 0.02)
    phi = 0.5 * np.log((x**2 + 4.0) / (x**2 + 1.0))
    o = OuterEvaluator(200.0, 0.02, phi)
    vals = o.boundary_values()
    oracle = (x + 2j) / (x + 1j)
    inner = np.abs(x) < 50
    ratio = vals[inner] / oracle[inner]
    assert np.allclose(np.abs(ratio), 1.0, atol=2e-3)
    ang = ratio / ratio[len(ratio) // 2]
    assert np.max(np.abs(ang - 1.0)) < 5e-3
    # interior values agree with the same closed form
    z = np.array([1j, 3 + 2j, -10 + 0.5j])
    assert np.abs(o.eval_outer(z)) == pytest.approx(np.abs((z + 2j) / (z + 1j)), rel=1e-3)


def test_outer_needs_one_sample_per_node():
    # 2X/h = 200 intervals: 201 nodes
    with pytest.raises(GenFunError):
        OuterEvaluator(10.0, 0.1, np.zeros(200))


def test_outer_requires_height():
    o = OuterEvaluator(10.0, 0.1, np.zeros(line_grid(10.0, 0.1)[0].size))
    with pytest.raises(GenFunError):
        o.eval_outer(np.array([1.0 + 0.01j]))
    with pytest.raises(GenFunError):
        o.eval_outer(np.array([9.0 + 1j]))


# -- factorization ----------------------------------------------------------


def test_factorization_single_point():
    # finite window: tau = 0, |G| = |omega B| in C+.  The boundary
    # log-modulus grows like log|x| here, so the quadrature tolerance is
    # the O(log X / X) window truncation of the Schwarz integral.
    s = Spectrum(np.array([1j]))
    g = GeneratingFunctionEvaluator(s)
    assert g.exp_type == 0.0
    o = OuterEvaluator.from_generating(g, X=1000.0, h=0.05)
    b_up, b_lo = upper_lower_evaluators(s)
    mismatch = check_factorization(g, o, b_up, b_lo, [2j, 1 + 1j, 0.5 + 2j])
    assert np.max(mismatch) < 3e-3


def test_factorization_lower_branch_trivial_B():
    # all-upper spectrum: the lower branch compares |G| to |omega# e^{i tau z}|
    s = Spectrum(np.array([1j]))
    g = GeneratingFunctionEvaluator(s)
    o = OuterEvaluator.from_generating(g, X=1000.0, h=0.05)
    b_up, b_lo = upper_lower_evaluators(s)
    assert b_lo is None
    mismatch = check_factorization(g, o, b_up, b_lo, [-2j, 1 - 1j])
    assert np.max(mismatch) < 3e-3


def test_factorization_symmetric_pair_agrees():
    s = Spectrum(np.array([1j, -1j]))
    g = GeneratingFunctionEvaluator(s)
    o = OuterEvaluator.from_generating(g, X=1000.0, h=0.05)
    b_up, b_lo = upper_lower_evaluators(s)
    mismatch = check_factorization(g, o, b_up, b_lo, [2j, -2j])
    assert np.max(mismatch) < 6e-3
    assert abs(mismatch[0] - mismatch[1]) < 6e-3


def test_factorization_lattice_with_exponential_type():
    s = make_family("shifted_integers", {"delta": 0.3}, 3000)
    g = GeneratingFunctionEvaluator(s)
    assert g.exp_type == pytest.approx(np.pi)
    o = OuterEvaluator.from_generating(g, X=400.0, h=0.02)
    b_up, _ = upper_lower_evaluators(s)
    mismatch = check_factorization(g, o, b_up, None, [1 + 1j])
    assert np.max(mismatch) < 1e-3


def test_factorization_batch_matches_per_point_loop():
    # both half-planes, a half-plane without spectrum points (log|B| = 0
    # there), and a lattice family (tau = pi)
    for s in (
        Spectrum(np.array([1j, 2 + 0.5j, -1.5 - 0.7j, 0.3 - 2j])),
        Spectrum(np.array([0.5j, -1 + 1.5j])),
        make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 30),
    ):
        g = GeneratingFunctionEvaluator(s)
        o = OuterEvaluator.from_generating(g, X=200.0, h=0.05)
        b_up, b_lo = upper_lower_evaluators(s)
        z = np.array([2j, 1 + 1j, -2j, 0.5 - 1.5j, -3 + 0.7j, 2.5 - 0.6j])
        oracle = []
        for p in z:
            one = np.array([p])
            b, w = (b_up, one) if p.imag > 0 else (b_lo, np.conj(one))
            lhs = abs(g.eval_G(one)[0])
            bmod = np.exp(b.log_abs_B(w)[0]) if b is not None else 1.0
            rhs = abs(o.eval_outer(w)[0]) * bmod * abs(np.exp(-1j * g.exp_type * w[0]))
            oracle.append(abs(lhs - rhs) / lhs)
        mismatch = check_factorization(g, o, b_up, b_lo, z)
        assert mismatch.shape == z.shape
        assert np.max(np.abs(mismatch - oracle)) <= 1e-13


# ---------------------------------------------------------------------------
# The numpy log-Gamma of the lattice tails, against scipy.special.loggamma
# ---------------------------------------------------------------------------


def _im_mod_2pi(a, b):
    """|a - b| modulo 2 pi, in [0, pi]."""
    return np.abs(np.angle(np.exp(1j * (a - b))))


def _assert_loggamma_close(w, want, atol=1e-12):
    got = -_log_rgamma(w)
    assert np.max(np.abs(got.real - want.real)) <= atol
    assert np.max(_im_mod_2pi(got.imag, want.imag)) <= atol


def test_log_rgamma_matches_scipy_on_the_tail_range():
    # Re w in [-60, 260], |Im w| <= 3, the reflection seam Re w = 1/2 and the
    # Stirling seam Re w = 12 included
    # (scipy gives NaN at the poles, so the real axis is sampled off the integers)
    re = np.concatenate([np.linspace(-60.0, 260.0, 3201), [0.5, 0.5 - 1e-12, 12.0, 12.0 - 1e-12]])
    w = (re[:, None] + 1j * np.linspace(-3.0, 3.0, 12)[None, :]).ravel()
    w = np.concatenate([w, re + 0.25])
    _assert_loggamma_close(w, loggamma(w))
    seam = 0.5 + 1j * np.linspace(-3.0, 3.0, 601)
    _assert_loggamma_close(seam, loggamma(seam))


def test_log_rgamma_next_to_the_poles():
    near = np.array([p + d for p in (0.0, -1.0, -5.0) for d in (1e-8, -1e-8, 1e-8j, -1e-8j, 1e-8 + 1e-8j)])
    _assert_loggamma_close(near, loggamma(near))


def test_log_rgamma_at_the_largest_workload_arguments():
    # the extremes the benchmark workloads reach: G' at the outermost node of
    # a 801-point lattice (1 and 801), the diagnose line (521..681, |Im| 1.13)
    # and the factorize-check line (-24.6..126.1, |Im| 1.2); mpmath is the
    # oracle, since scipy itself is off by up to 2 ulp (1.8e-12) at |w| = 801
    w = np.array([1.0, 801.0, 801.0 - 3.9j, 521.0 + 1.126j, 681.0 - 1.126j, -24.629 + 1.197j, 126.129 - 1.197j])
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.loggamma(mpmath.mpc(x.real, x.imag))) for x in w])
    _assert_loggamma_close(w, want)


def test_log_rgamma_pole_is_minus_inf_without_warning():
    poles = np.array([0.0, -1.0, -5.0, -60.0], dtype=complex)
    with np.errstate(all="raise"):
        got = _log_rgamma(poles)
    assert np.all(got.real == -np.inf) and np.all(np.isfinite(got.imag))
    # a family point beyond the window is a zero of G: log|G| = -inf, exp(log G) = 0
    s = make_family("shifted_integers", {"delta": 0.3}, 5)
    gen = GeneratingFunctionEvaluator(s)
    assert gen.log_abs_G(np.array([7.0]), a=0.3)[0] == -np.inf
    assert gen.eval_G(np.array([-9.0 + 0.3j]))[0] == 0


def test_log_sin_pi_survives_large_imaginary_parts():
    # sin(pi w) overflows a double beyond |Im w| ~ 226; its log does not
    w = np.array([-0.3 + 400j, -2.7 - 1000j])
    want = np.log(0.5) + np.pi * np.abs(w.imag) + 1j * np.sign(w.imag) * (0.5 * np.pi - np.pi * w.real)
    got = _log_sin_pi(w)
    assert np.allclose(got.real, want.real, rtol=1e-14)
    assert np.max(_im_mod_2pi(got.imag, want.imag)) < 1e-12
