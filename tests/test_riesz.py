import numpy as np
import pytest
from scipy import fft as scipy_fft

from pwsum.engine import EngineError, l2_error, riesz_project
from pwsum.grids import (
    GridError,
    GridFunction,
    _fast_len,
    _hilbert_kernel,
    fit_rational_tail,
    grid_template,
    hilbert_transform,
    sample_on_grid,
)


def cauchy_upper(x):
    return 1.0 / (x + 1j)


def cauchy_lower(x):
    return 1.0 / (x - 1j)


def test_grid_validation():
    with pytest.raises(GridError):
        GridFunction(10.0, 0.3, np.zeros(5))
    g = grid_template(10.0, 0.1)
    assert len(g) == 201
    assert g.x[0] == -10.0 and g.x[-1] == 10.0


def test_trapezoid_norm():
    g = sample_on_grid(lambda x: np.exp(-x.real**2 / 2), 30.0, 0.01)
    # ||exp(-x^2/2)||_2 = pi^(1/4)
    assert g.norm() == pytest.approx(np.pi**0.25, rel=1e-10)


def test_l2_error_examples():
    g = grid_template(5.0, 0.5)
    a = g.copy_with(np.ones(len(g), complex))
    assert l2_error(a, a) == 0.0
    vals = np.ones(len(g), complex)
    vals[3:7] += 2.0  # 4 interior samples shifted by 2
    b = g.copy_with(vals)
    assert l2_error(a, b) == pytest.approx(2.0 * np.sqrt(4 * 0.5))
    # conjugate-symmetric pair has the same norm
    c = g.copy_with(np.conj(vals))
    assert l2_error(a, c) == pytest.approx(l2_error(a, b))
    with pytest.raises(GridError):
        l2_error(a, grid_template(5.0, 0.25))


def test_tail_fit_recovers_laurent():
    g = sample_on_grid(cauchy_upper, 100.0, 0.05)
    a, b = fit_rational_tail(g)
    # 1/(t+i) = 1/t - i/t^2 + O(t^-3)
    assert abs(a - 1.0) < 5e-3
    assert abs(b + 1j) < 5e-2


def test_hilbert_of_cauchy_kernel():
    # H[1/(x+i)] = -i/(x+i); the tail model removes the O(1/X) truncation
    g = sample_on_grid(cauchy_upper, 100.0, 0.01)
    H = hilbert_transform(g)
    want = -1j * cauchy_upper(g.x)
    err = g.copy_with(H.values - want).norm()
    assert err < 5e-4


def test_hilbert_matches_direct_odd_offset_sum():
    # the FFT convolution equals Hf(x_j) = (2/pi) sum_{m odd} f(x_{j-m})/m
    g = sample_on_grid(lambda x: np.exp(-x**2 / 8) * (1 + 0.5j * x), 6.0, 0.1)
    n = len(g)
    j, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    m = j - i
    kern = np.where(m % 2 == 1, 2.0 / (np.pi * np.where(m == 0, 1, m)), 0.0)
    direct = kern @ g.values
    H = hilbert_transform(g, tail_fit=False)
    assert np.max(np.abs(H.values - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_fast_len_is_the_next_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 3000):
        want = next(m for m in range(n, 2 * n + 1) if smooth(m))
        assert _fast_len(n) == want, n


@pytest.mark.parametrize("n", [101, 8_001, 40_001])
def test_hilbert_numpy_fft_matches_scipy_fft(n):
    # the scipy.fft path this transform used before, at scipy's own fast length
    X = (n - 1) * 0.01 / 2
    g = sample_on_grid(lambda x: np.exp(-x**2 / 50) * (1 + 0.5j * x) + 1.0 / (x + 1j), X, 0.01)
    kern = _hilbert_kernel(n)
    m = scipy_fft.next_fast_len(n + kern.size - 1)
    want = scipy_fft.ifft(scipy_fft.fft(g.values, m) * scipy_fft.fft(kern, m))[n - 1 : 2 * n - 1]
    got = hilbert_transform(g, tail_fit=False).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_riesz_reproduces_upper():
    g = sample_on_grid(cauchy_upper, 100.0, 0.01)
    plus = riesz_project(g, "+")
    assert l2_error(plus, g) < 1e-3
    minus = riesz_project(g, "-")
    assert minus.norm() < 1e-3


def test_riesz_annihilates_lower():
    g = sample_on_grid(cauchy_lower, 100.0, 0.01)
    plus = riesz_project(g, "+")
    assert plus.norm() < 1e-3
    minus = riesz_project(g, "-")
    assert l2_error(minus, g) < 1e-3


def test_riesz_splits_mixture():
    up = sample_on_grid(cauchy_upper, 100.0, 0.01)
    lo = sample_on_grid(lambda x: 2.5 / (x - 2j), 100.0, 0.01)
    mix = up.copy_with(up.values + lo.values)
    plus = riesz_project(mix, "+")
    minus = riesz_project(mix, "-")
    assert l2_error(plus, up) < 2e-3
    assert l2_error(minus, lo) < 2e-3


def test_riesz_sum_is_identity():
    rng = np.random.default_rng(0)
    g = sample_on_grid(
        lambda x: np.exp(-x.real**2 / 8) * (rng.standard_normal(x.size) + 2.0), 20.0, 0.05
    )
    plus = riesz_project(g, "+")
    minus = riesz_project(g, "-")
    total = plus.values + minus.values
    assert np.allclose(total, g.values, rtol=0, atol=1e-14 * np.max(np.abs(g.values)))


def test_riesz_idempotent_on_smooth_decaying():
    # residual is the rational-tail model error of the second transform
    g = sample_on_grid(lambda x: np.exp(-x.real**2 / 4) * np.exp(2j * x.real), 30.0, 0.02)
    p1 = riesz_project(g, "+")
    p2 = riesz_project(p1, "+")
    assert l2_error(p2, p1) < 5e-5 * max(p1.norm(), 1.0)


def test_riesz_rejects_unknown_sign():
    g = sample_on_grid(cauchy_upper, 50.0, 0.05)
    with pytest.raises(EngineError):
        riesz_project(g, "x")
