"""The one-height kernels: a window whose points share one height delta
(Spectrum.height) takes one_height_self_logs for G' at every node and
one_height_blaschke_logs for B, B', beta and log|B|.  The general kernels
(log_products, blaschke._log_abs_factors, touching with a skip) stay for
any other point set and are the oracles here."""

import mpmath
import numpy as np
import pytest

from pwsum import blaschke, spectrum
from pwsum.blaschke import BlaschkeEvaluator, upper_lower_evaluators
from pwsum.contours import select_c, triangle_samples
from pwsum.genfun import CollisionError, GeneratingFunctionEvaluator
from pwsum.spectrum import Spectrum, log_products, make_family

_PARAMS = {
    "shifted_integers": {"delta": 0.3},
    "kadec_perturbed": {"delta": 0.3, "eps": 0.2},
    "clustered_pairs": {"delta": 1.0, "eps": 0.5},
}
# the three families at counts 30 and 200, and a tailless clustered window
_WINDOWS = {f"{name}-{count}": make_family(name, params, count) for name, params in _PARAMS.items()
            for count in (30, 200)}
_WINDOWS["clustered-tailless"] = Spectrum(make_family("clustered_pairs", _PARAMS["clustered_pairs"], 200).points)


def _general(s: Spectrum) -> Spectrum:
    """The same spectrum with the one-height kernels switched off."""
    out = Spectrum(s.points, s.tail)
    out.height = None
    return out


def _test_points(s: Spectrum) -> np.ndarray:
    """Contour sides, the real line, next to the zeros and the lower half-plane."""
    r, lam = s.radius, s.points
    sides = [triangle_samples(l, c, 64) for l, c in ((0.7, 1.0), (r / 3, 4.6), (r, 10.0))]
    line = np.linspace(-r, r, 301)
    return np.concatenate(sides + [line + 0j, lam[::3] + 1e-6, lam[::5] + 0.3j, line[::3] - 0.5j])


def test_height_is_a_property_of_the_points():
    for s in _WINDOWS.values():
        assert s.height == s.points[0].imag
    assert Spectrum(np.array([1 + 0.5j, 2 + 0.5j + 1e-15j])).height is None
    assert Spectrum(np.array([1 - 0.5j, 2 - 0.5j])).height == -0.5
    assert Spectrum(np.array([], dtype=complex)).height is None
    up, lo = spectrum.split_halfplanes(Spectrum(np.array([1 + 0.5j, 2 + 0.5j, 3 - 0.2j, 4 - 0.7j])))
    assert (up.height, lo.height) == (0.5, None)


@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_G_prime_matches_the_general_kernel(window):
    s = _WINDOWS[window]
    own = np.arange(len(s))
    got = spectrum.one_height_self_logs(s.points.real, s.height, own)
    want = log_products(s.points, s.points, skip=own)
    assert np.max(np.abs(np.expm1(got - want))) <= 1e-12
    g, g0 = GeneratingFunctionEvaluator(s), GeneratingFunctionEvaluator(_general(s))
    assert np.max(np.abs(g.eval_G_prime_at_lambda(own) / g0.eval_G_prime_at_lambda(own) - 1.0)) <= 1e-12


@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_blaschke_kernels_match_the_general_ones(window):
    # B, beta and B' within 2e-12 (on clustered_pairs count 200 the general
    # block product errs by up to 6.3e-13 against mpmath, this kernel by
    # 7e-15); log|B| bit for bit
    s = _WINDOWS[window]
    lam, z, own = s.points, _test_points(s), np.arange(len(s))
    for args in ((z, lam), (z, lam[np.abs(lam) >= s.radius / 2]), (lam, lam, own)):
        got = blaschke._log_factors(*args[:2], s.height, *args[2:])
        want = blaschke._log_factors(*args[:2], None, *args[2:])
        assert np.max(np.abs(np.expm1(got - want))) <= 2e-12
    assert np.array_equal(blaschke._log_abs_factors(z, lam, s.height), blaschke._log_abs_factors(z, lam, None))


def test_B_prime_on_a_clustered_window_matches_mpmath():
    s = _WINDOWS["clustered-tailless"]
    ks = np.arange(0, len(s), 37)
    got = np.exp(blaschke._log_factors(s.points[ks], s.points, s.height, skip=ks))
    with mpmath.workdps(30):
        pts = [mpmath.mpc(p) for p in s.points]
        want = np.array([complex(mpmath.fprod((mpmath.conj(m) / m) * (pts[k] - m) / (pts[k] - mpmath.conj(m))
                                              for j, m in enumerate(pts) if j != k)) for k in ks])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_touching_on_one_height_is_the_general_rule():
    for s in _WINDOWS.values():
        own = np.arange(len(s))
        assert not np.any(spectrum.one_height_touching(s.points))
        assert not np.any(spectrum.touching(s.points, s.points, own))
    # pairs just inside and just outside the reach 1e-12 max(1, |lambda|)
    x = np.array([0.0, 5e-13, 3.0, 3.0 + 2.9e-12, 40.0, 40.0 + 4.1e-11, -7.0, -7.0 - 6.9e-12, 9.0])
    lam = np.sort(x)[::-1] + 0.4j
    want = spectrum.touching(lam, lam, np.arange(lam.size))
    assert np.array_equal(spectrum.one_height_touching(lam), want)
    assert want.sum() == 6
    with pytest.raises(CollisionError):
        GeneratingFunctionEvaluator(Spectrum(lam)).eval_G_prime_at_lambda(np.arange(1))


def test_two_heights_and_their_mirror_take_the_general_path_bit_for_bit():
    x = np.linspace(-9.0, 9.0, 19)
    pts = np.concatenate([x + 0.3j, x[::2] + 0.25 + 0.8j, x[::3] + 0.1 - 0.4j, x[1::4] - 0.9j])
    s = Spectrum(pts)
    assert s.height is None
    own = np.arange(len(s))
    gen = GeneratingFunctionEvaluator(s)
    want = (-1.0 / s.points) * np.exp(log_products(s.points, s.points, skip=own))
    assert np.array_equal(gen.eval_G_prime_at_lambda(own), want)
    z = _test_points(Spectrum(x + 0.3j))
    for b in upper_lower_evaluators(s):
        mu = b.points
        assert b.spectrum.height is None
        assert np.array_equal(b.log_abs_B(z), blaschke._log_abs_factors(z, mu, None))
        assert np.array_equal(b.eval_B(z), np.exp(log_products(z, mu, np.conj(mu)) - 2j * np.angle(mu).sum()))
        k = np.arange(mu.size)
        assert np.array_equal(b.eval_B_prime_at(k), (np.conj(mu) / mu) / (mu - np.conj(mu)) * np.exp(
            log_products(mu, mu, np.conj(mu), k) - 2j * (np.angle(mu).sum() - np.angle(mu))))


def test_a_lower_window_on_one_height_and_its_mirror():
    # G' below the real line (sign -1 in the phase) and the mirror's B on
    # the one-height kernels, against the general ones
    s = Spectrum(np.conj(make_family("kadec_perturbed", _PARAMS["kadec_perturbed"], 30).points))
    assert s.height == -0.3
    own = np.arange(len(s))
    got = GeneratingFunctionEvaluator(s).eval_G_prime_at_lambda(own)
    assert np.max(np.abs(got / GeneratingFunctionEvaluator(_general(s)).eval_G_prime_at_lambda(own) - 1)) <= 1e-12
    up, lo = upper_lower_evaluators(s)
    assert up is None and lo.spectrum.height == 0.3
    general = BlaschkeEvaluator(_general(lo.spectrum))
    z = _test_points(lo.spectrum)
    assert np.max(np.abs(lo.eval_B(z) / general.eval_B(z) - 1.0)) <= 2e-12
    assert np.array_equal(lo.log_abs_B(z), general.log_abs_B(z))


@pytest.mark.parametrize("window", ["shifted_integers-30", "clustered_pairs-200", "clustered-tailless"])
def test_log_abs_B_of_a_point_alone_in_any_batch_and_order(window):
    up = BlaschkeEvaluator(_WINDOWS[window])
    z = _test_points(up.spectrum)
    full = up.log_abs_B(z)
    rng = np.random.default_rng(11)
    for idx in ([0], [z.size - 1], rng.permutation(z.size), rng.choice(z.size, 77), np.arange(z.size)[::-5]):
        assert np.array_equal(up.log_abs_B(z[idx]), full[idx])
    assert np.array_equal([up.log_abs_B(z[i : i + 1])[0] for i in range(0, z.size, 13)], full[::13])


_FOUR = {
    "shifted_integers": make_family("shifted_integers", _PARAMS["shifted_integers"], 40),
    "kadec_perturbed": make_family("kadec_perturbed", _PARAMS["kadec_perturbed"], 40),
    "clustered_pairs": make_family("clustered_pairs", _PARAMS["clustered_pairs"], 20),
    "custom_list": Spectrum(np.random.default_rng(7).uniform(-30, 30, 60) + 0.45j),
}


@pytest.mark.parametrize("family", sorted(_FOUR))
def test_select_c_pick_is_unchanged(family):
    s = _FOUR[family]
    assert s.height is not None
    b, general = BlaschkeEvaluator(s), BlaschkeEvaluator(_general(s))
    for l in (0.7, 3.5, 10.5, 24.3, 41.0):
        assert np.array(select_c(b, l)).tobytes() == np.array(select_c(general, l)).tobytes()
