"""The shared pair-kernel helpers of spectrum against dense and loop oracles:
row_blocks, collisions, inverse_square_sums (and arg_derivative_on_R, which
is built on it) and real_cauchy_sums."""

import math

import numpy as np
import pytest

from pwsum import spectrum
from pwsum.blaschke import BlaschkeEvaluator
from pwsum.spectrum import Spectrum, cauchy_sums, collisions, inverse_square_sums, real_cauchy_sums, row_blocks


def dense_collisions(z, lam, tol2, skip=None):
    """(d2 <= tol2).any(1) over every pair, d2 formed as squared_distances does."""
    z, lam = np.asarray(z, dtype=complex), np.asarray(lam, dtype=complex)
    d2 = (z.real[:, None] - lam.real) ** 2 + (z.imag[:, None] - lam.imag) ** 2
    if skip is not None:
        d2[np.arange(z.size), skip] = np.inf
    return (d2 <= tol2).any(axis=1)


def _random_case(seed):
    """Points near a random spectrum: exact hits, 1e-13 offsets in either
    direction, points on other heights, and plain misses."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-5, 5, 40) + 1j * rng.choice([0.3, -0.7, 1.1], 40)
    z = np.concatenate([
        lam[rng.choice(40, 6)],  # exact hits
        lam[rng.choice(40, 6)] + 1e-13 * np.exp(2j * np.pi * rng.uniform(size=6)),
        lam[rng.choice(40, 4)] + 1e-13j,
        rng.uniform(-5, 5, 20) + 1j * rng.choice([0.3, -0.7, 0.5], 20),
    ])
    return z[rng.permutation(z.size)], lam


@pytest.mark.parametrize("seed", range(6))
def test_collisions_match_the_dense_test(seed):
    z, lam = _random_case(seed)
    rng = np.random.default_rng(100 + seed)
    per_column = (1e-12 * np.maximum(1.0, np.abs(lam))) ** 2 * rng.uniform(0.5, 4.0, lam.size)
    for tol2 in (1e-26, 1e-24, per_column):
        assert np.array_equal(collisions(z, lam, tol2), dense_collisions(z, lam, tol2))
    # skip: each point leaves out one column, its own where it is a hit
    skip = rng.integers(0, lam.size, z.size)
    own = np.argmin(np.abs(z[:, None] - lam), axis=1)
    skip[::2] = own[::2]
    for tol2 in (1e-24, per_column):
        assert np.array_equal(collisions(z, lam, tol2, skip), dense_collisions(z, lam, tol2, skip))


def test_collisions_at_the_tolerance_boundary():
    lam = np.array([1.0 + 0.5j, -2.0 + 0.5j, 3.0 - 0.25j])
    z = lam + np.array([3e-7, 2e-7j, 1e-7 - 1e-7j])
    d2 = (z.real - lam.real) ** 2 + (z.imag - lam.imag) ** 2  # each point's own pair
    for tol2 in (d2, np.nextafter(d2, 0.0), np.nextafter(d2, 1.0)):
        assert np.array_equal(collisions(z, lam, tol2), dense_collisions(z, lam, tol2))
    assert collisions(z, lam, d2).all() and not collisions(z, lam, np.nextafter(d2, 0.0)).any()
    # one point alone: its own height sets the columns' bound, which for the
    # point straight above its lambda is the distance itself
    for k in range(z.size):
        for tol2 in (d2[k], np.nextafter(d2[k], 0.0)):
            assert np.array_equal(collisions(z[k : k + 1], lam, tol2), dense_collisions(z[k : k + 1], lam, tol2))


def test_collisions_on_empty_inputs():
    lam = np.array([1.0 + 0.5j])
    assert collisions(np.zeros(0, dtype=complex), lam, 1e-24).shape == (0,)
    assert np.array_equal(collisions(lam, np.zeros(0, dtype=complex), 1e-24), [False])
    assert np.array_equal(collisions(lam, lam, 1e-24, skip=np.array([0])), [False])


@pytest.mark.parametrize("budget", [1, 7, 10**9], ids=["one-row", "ragged", "one-block"])
def test_collisions_over_many_blocks(monkeypatch, budget):
    z, lam = _random_case(7)
    ref = dense_collisions(z, lam, 1e-24)
    monkeypatch.setattr(spectrum, "BLOCK_BUDGET", budget)
    assert np.array_equal(collisions(z, lam, 1e-24), ref)


@pytest.mark.parametrize(
    "n_rows, n_cols",
    [(0, 5), (3, 5), (99, 400), (30, 0), (2 * 4096, 4)],  # 99 rows = 40 + 40 + 19
    ids=["no-rows", "under-one-block", "ragged-last-block", "no-columns", "whole-blocks"],
)
def test_row_blocks_tile_the_rows(n_rows, n_cols):
    step = spectrum.block_rows(n_cols)
    seen = []
    for rows, c, b in row_blocks(n_rows, n_cols, complex, bool):
        r = rows.stop - rows.start
        assert 0 < r <= step and c.shape == b.shape == (r, n_cols)
        assert c.dtype == complex and b.dtype == bool
        seen.extend(range(rows.start, rows.stop))
    assert seen == list(range(n_rows))
    assert [rows for (rows,) in row_blocks(n_rows, n_cols)] == [
        slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)
    ]


def _fsum_inverse_squares(z, lam, w, skip=None):
    return np.array([
        math.fsum(w[j] / abs(zi - lam[j]) ** 2 for j in range(lam.size) if skip is None or j != skip[i])
        for i, zi in enumerate(z)
    ])


def test_inverse_square_sums_match_a_pair_loop():
    rng = np.random.default_rng(3)
    lam = rng.uniform(-10, 10, 50) + 1j * rng.uniform(0.2, 2.0, 50)
    w = rng.uniform(0.5, 2.0, 50)
    z = rng.uniform(-12, 12, 30) + 1j * rng.uniform(-1, 1, 30)
    np.testing.assert_allclose(inverse_square_sums(z, lam, w), _fsum_inverse_squares(z, lam, w), rtol=1e-14, atol=0)
    skip = np.arange(lam.size)
    np.testing.assert_allclose(
        inverse_square_sums(lam, lam, w, skip=skip), _fsum_inverse_squares(lam, lam, w, skip), rtol=1e-14, atol=0
    )
    x = rng.uniform(-12, 12, 30)  # real points
    np.testing.assert_allclose(inverse_square_sums(x, lam, w), _fsum_inverse_squares(x, lam, w), rtol=1e-14, atol=0)


def test_arg_derivative_matches_a_pair_loop():
    rng = np.random.default_rng(4)
    lam = rng.uniform(-10, 10, 60) + 1j * rng.uniform(0.1, 2.0, 60)
    b = BlaschkeEvaluator(Spectrum(lam))  # no family: no lattice tail term
    t = np.linspace(-15.0, 15.0, 121)
    ref = _fsum_inverse_squares(t, b.points, 2.0 * b.points.imag)
    np.testing.assert_allclose(b.arg_derivative_on_R(t), ref, rtol=1e-14, atol=0)


def test_real_cauchy_sums_match_the_complex_form():
    # real nodes and weights, as eval_outer's: points above, on and below
    # the nodes' line, and a point between two nodes
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(-20.0, 20.0, 500))
    c = rng.standard_normal(500)
    z = np.concatenate([rng.uniform(-10, 10, 40) + 1j * rng.uniform(-2, 2, 40), [0.5 * (t[7] + t[8]) + 0j]])
    got = real_cauchy_sums(z, t, c)
    want = cauchy_sums(z, t + 0j, c[:, None] + 0j)[:, 0]
    scale = np.sum(np.abs(c)[None, :] / np.abs(z[:, None] - t), axis=1)
    assert np.all(np.abs(got - want) <= 1e-15 * scale)
    assert np.all(got.imag[z.imag == 0] == 0.0)
