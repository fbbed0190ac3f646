import numpy as np
import pytest
from scipy import fft as scipy_fft

from pwsum.engine import EngineError, riesz_project
from pwsum.grids import GridError, _fast_len, _hilbert_kernel, fit_rational_tail, hilbert_transform, line_grid


def cauchy_upper(x):
    return 1.0 / (x + 1j)


def cauchy_lower(x):
    return 1.0 / (x - 1j)


def norm(values, X, h):
    """The trapezoid L2 norm on line_grid(X, h)."""
    return np.sqrt(np.sum(line_grid(X, h)[1] * np.abs(values) ** 2))


def sample(fn, X, h):
    return fn(line_grid(X, h)[0].astype(complex))


def test_grid_validation():
    for X, h in [(10.0, 0.0), (10.0, -0.1), (0.0, 0.1), (-1.0, 0.1), (np.inf, 0.1), (10.0, np.nan)]:
        with pytest.raises(GridError):
            line_grid(X, h)
    x, w = line_grid(10.0, 0.1)
    assert len(x) == 201
    assert x[0] == -10.0 and x[-1] == 10.0
    # 2X/h is not whole: m = round(2X/h) intervals, at least one
    for X, h, m in [(10.0, 0.1, 200), (10.0, 0.3, 67), (2.55, 0.1, 51), (3.0, 7.0, 1), (1.0, 0.8, 2), (0.6, 0.1, 12)]:
        x, w = line_grid(X, h)
        assert x.size == w.size == m + 1
        # exactly symmetric about 0, bit for bit, with both ends at +-X
        assert np.array_equal(x, -x[::-1])
        assert abs(x[0] + X) <= 1e-15 * X and abs(x[-1] - X) <= 1e-15 * X
        # the weights are the node spacing, halved at both ends, and sum to 2X
        step = 2 * X / m
        assert np.allclose(np.diff(x), step, rtol=1e-12, atol=0)
        assert w[0] == w[-1] == step / 2 and np.all(w[1:-1] == step)
        assert abs(w.sum() - 2 * X) <= 1e-12 * X
        # where the 2X window has 2m intervals, the X window's nodes are nodes
        # of the 2X window, bit for bit, exactly at even m
        wide, _ = line_grid(2 * X, h)
        if wide.size == 2 * m + 1:
            assert np.isin(x, wide).all() == (m % 2 == 0)


def test_trapezoid_norm():
    # ||exp(-x^2/2)||_2 = pi^(1/4)
    assert norm(sample(lambda x: np.exp(-x.real**2 / 2), 30.0, 0.01), 30.0, 0.01) == pytest.approx(
        np.pi**0.25, rel=1e-10)


def test_l2_error_examples():
    a = np.ones(line_grid(5.0, 0.5)[0].size, complex)
    assert norm(a - a, 5.0, 0.5) == 0.0
    vals = a.copy()
    vals[3:7] += 2.0  # 4 interior samples shifted by 2
    assert norm(a - vals, 5.0, 0.5) == pytest.approx(2.0 * np.sqrt(4 * 0.5))
    # conjugate-symmetric pair has the same norm
    assert norm(a - np.conj(vals), 5.0, 0.5) == pytest.approx(norm(a - vals, 5.0, 0.5))


def test_tail_fit_recovers_laurent():
    a, b = fit_rational_tail(sample(cauchy_upper, 100.0, 0.05), 100.0, 0.05)
    # 1/(t+i) = 1/t - i/t^2 + O(t^-3)
    assert abs(a - 1.0) < 5e-3
    assert abs(b + 1j) < 5e-2


def test_hilbert_of_cauchy_kernel():
    # H[1/(x+i)] = -i/(x+i); the tail model removes the O(1/X) truncation
    g = sample(cauchy_upper, 100.0, 0.01)
    H = hilbert_transform(g, 100.0, 0.01)
    want = -1j * cauchy_upper(line_grid(100.0, 0.01)[0])
    err = norm(H - want, 100.0, 0.01)
    assert err < 5e-4


def test_hilbert_matches_direct_odd_offset_sum():
    # the FFT convolution equals Hf(x_j) = (2/pi) sum_{m odd} f(x_{j-m})/m
    g = sample(lambda x: np.exp(-x**2 / 8) * (1 + 0.5j * x), 6.0, 0.1)
    n = len(g)
    j, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    m = j - i
    kern = np.where(m % 2 == 1, 2.0 / (np.pi * np.where(m == 0, 1, m)), 0.0)
    direct = kern @ g
    H = hilbert_transform(g, 6.0, 0.1, tail_fit=False)
    assert np.max(np.abs(H - direct)) <= 1e-13 * np.max(np.abs(direct))


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
    g = sample(lambda x: np.exp(-x**2 / 50) * (1 + 0.5j * x) + 1.0 / (x + 1j), X, 0.01)
    kern = _hilbert_kernel(n)
    m = scipy_fft.next_fast_len(n + kern.size - 1)
    want = scipy_fft.ifft(scipy_fft.fft(g, m) * scipy_fft.fft(kern, m))[n - 1 : 2 * n - 1]
    got = hilbert_transform(g, X, 0.01, tail_fit=False)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_riesz_reproduces_upper():
    g = sample(cauchy_upper, 100.0, 0.01)
    plus = riesz_project(g, 100.0, 0.01, "+")
    assert norm(plus - g, 100.0, 0.01) < 1e-3
    minus = riesz_project(g, 100.0, 0.01, "-")
    assert norm(minus, 100.0, 0.01) < 1e-3


def test_riesz_annihilates_lower():
    g = sample(cauchy_lower, 100.0, 0.01)
    plus = riesz_project(g, 100.0, 0.01, "+")
    assert norm(plus, 100.0, 0.01) < 1e-3
    minus = riesz_project(g, 100.0, 0.01, "-")
    assert norm(minus - g, 100.0, 0.01) < 1e-3


def test_riesz_splits_mixture():
    up = sample(cauchy_upper, 100.0, 0.01)
    lo = sample(lambda x: 2.5 / (x - 2j), 100.0, 0.01)
    mix = up + lo
    plus = riesz_project(mix, 100.0, 0.01, "+")
    minus = riesz_project(mix, 100.0, 0.01, "-")
    assert norm(plus - up, 100.0, 0.01) < 2e-3
    assert norm(minus - lo, 100.0, 0.01) < 2e-3


def test_riesz_sum_is_identity():
    rng = np.random.default_rng(0)
    g = sample(lambda x: np.exp(-x.real**2 / 8) * (rng.standard_normal(x.size) + 2.0), 20.0, 0.05)
    plus = riesz_project(g, 20.0, 0.05, "+")
    minus = riesz_project(g, 20.0, 0.05, "-")
    total = plus + minus
    assert np.allclose(total, g, rtol=0, atol=1e-14 * np.max(np.abs(g)))


def test_riesz_idempotent_on_smooth_decaying():
    # residual is the rational-tail model error of the second transform
    g = sample(lambda x: np.exp(-x.real**2 / 4) * np.exp(2j * x.real), 30.0, 0.02)
    p1 = riesz_project(g, 30.0, 0.02, "+")
    p2 = riesz_project(p1, 30.0, 0.02, "+")
    assert norm(p2 - p1, 30.0, 0.02) < 5e-5 * max(norm(p1, 30.0, 0.02), 1.0)


def test_riesz_rejects_unknown_sign():
    g = sample(cauchy_upper, 50.0, 0.05)
    with pytest.raises(EngineError):
        riesz_project(g, 50.0, 0.05, "x")
    # samples on another grid than line_grid(50, 0.05)
    with pytest.raises(GridError):
        riesz_project(g[1:], 50.0, 0.05, "+")
