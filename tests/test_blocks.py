"""The block size of the (points x spectrum) pair kernels changes no bit,
except in the BLAS-based Cauchy kernels on the grid (line_cauchy: the
partial sums, the projector's interpolation sum, the norm bounds), which stay
within a stated tolerance; the Cauchy sums off the grid (cauchy_sums, under
compactwise_errors and the outer factor) are held to every bit, a one-term
sum in one-element blocks included.  They form their products in real
arithmetic, so no bit rests on whether numpy takes a fused (FMA) loop for a
complex multiply of some length."""

import numpy as np
import pytest

from pwsum import diagnostics, spectrum
from pwsum.blaschke import BlaschkeEvaluator
from pwsum.contours import select_c, triangle_samples
from pwsum.diagnostics import carleson_sup
from pwsum.engine import (
    PWFunction,
    coefficient_matrix,
    compactwise_errors,
    disk_samples,
    norm_lower_bounds,
    sample_sums,
)
from pwsum.genfun import GeneratingFunctionEvaluator, OuterEvaluator
from pwsum.grids import line_grid
from pwsum.spectrum import Spectrum, make_family
from pwsum.weights import projection_weights

# The grid's Cauchy sums (line_cauchy, under sample_sums and
# norm_lower_bounds) multiply each chunk by BLAS: a one-row chunk takes numpy's
# matrix-vector path, so the block size moves their last bits (measured up to
# 1.5e-15 of the largest entry), and the bounds' eigenvalues with them.  They
# are held to this relative tolerance instead.
_BLAS_KERNELS = {"sample_sums": 1e-13, "norm_lower_bounds": 1e-13}


# carleson_sup's search sums only the rows that can hold the max: on this
# spectrum (161 points) a few of them, in row blocks of every size
_CLUSTERED = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 40)


def _kernel_outputs() -> dict:
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 30)  # 61 points
    gen = GeneratingFunctionEvaluator(s)
    up = BlaschkeEvaluator(s)
    # on two heights: the general kernels of G' and B
    two = Spectrum(np.concatenate([s.points, s.points[::4] + 0.2j]))
    up_two = BlaschkeEvaluator(two)
    x = np.linspace(-40.0, 40.0, 301)
    z = np.concatenate([x + 0.7j, x - 1.3j])
    outer = OuterEvaluator.from_generating(gen, X=50.0, h=0.05)
    grid_x, grid_w = line_grid(10.0, 0.05)
    f = PWFunction([0.3j, 2.7 - 0.3j], [1.0, 0.5])
    _, W = projection_weights(s, [5.0, 12.0, 31.0])
    A = coefficient_matrix(f.eval(s.points), gen, W)
    disk = disk_samples(0.4 + 0.2j, 3.0, 97)
    # a spectrum with a point on one disk sample, which compactwise_errors moves
    gen_hit = GeneratingFunctionEvaluator(Spectrum(np.append(s.points, disk[40])))
    A_hit = coefficient_matrix(f.eval(gen_hit.spectrum.points), gen_hit,
                               projection_weights(gen_hit.spectrum, [5.0, 31.0])[1])
    near = np.concatenate([s.points[::7], s.points[::5] + 1e-13, z])  # exact hits, near hits, misses
    tol2 = (1e-12 * np.maximum(1.0, np.abs(s.points))) ** 2
    own = np.arange(near.size) % s.points.size
    w = 1.0 + np.abs(s.points.imag)
    # three columns, one of them a single term
    three = np.stack([w * (1.0 - 0.5j), np.where(np.arange(w.size) == 3, 0.7 - 0.2j, 0.0), np.conj(s.points)], axis=1)
    return {
        "log_abs_G": gen.log_abs_G(x, a=0.4),
        # on the points' own line, between them: the collision test's columns
        "log_abs_G@delta": gen.log_abs_G(x + 0.1, a=0.3),
        "log_G": gen.log_G(z),
        "log_G@real": gen.log_G(x + 0j),
        "log_abs_B": up.log_abs_B(z),
        "log_abs_B@two-heights": up_two.log_abs_B(z),
        "eval_B": np.concatenate([up.eval_B(z), up.eval_B(z, cutoff=12.0)]),
        "eval_B@two-heights": up_two.eval_B(z),
        "G_prime": gen.eval_G_prime_at_lambda(np.arange(s.points.size)),
        "G_prime@two-heights": GeneratingFunctionEvaluator(two).eval_G_prime_at_lambda(np.arange(two.points.size)),
        "arg_derivative_on_R": up.arg_derivative_on_R(x),
        "carleson_sup": np.array([carleson_sup(s), carleson_sup(_CLUSTERED)]),
        "eval_outer": outer.eval_outer(x[np.abs(x) <= 25.0] + 1.0j),
        "select_c": np.array(select_c(up, 20.3, samples_per_side=64)),
        "sample_sums": sample_sums(gen, grid_x, A),
        "norm_lower_bounds": norm_lower_bounds(gen, grid_x, grid_w, 5, W),
        "compactwise_errors": np.concatenate([compactwise_errors(f, gen, A, 0.4 + 0.2j, 3.0, 97),
                                              compactwise_errors(f, gen_hit, A_hit, 0.4 + 0.2j, 3.0, 97)]),
        # the second, a one-term sum: at one row per block its products are single elements
        "cauchy_sums": np.concatenate([spectrum.cauchy_sums(z, s.points, three).ravel(),
                                       spectrum.cauchy_sums(disk, s.points[3:4], np.array([[0.7 - 0.2j]]))[:, 0]]),
        "real_cauchy_sums": spectrum.real_cauchy_sums(z, grid_x, np.cos(grid_x)),
        "eval_B_prime_at": np.concatenate(
            [up.eval_B_prime_at(np.arange(s.points.size)), up.eval_B_prime_at(np.arange(20), cutoff=12.0),
             up_two.eval_B_prime_at(np.arange(two.points.size))]
        ),
        "collisions": np.concatenate(
            [spectrum.collisions(near, s.points, tol2), spectrum.collisions(near, s.points, tol2, own)]
        ),
        "inverse_square_sums": spectrum.inverse_square_sums(z, s.points, w),
    }


@pytest.mark.parametrize("budget", [1, 1000, 10**9], ids=["one-row", "ragged", "one-block"])
def test_block_size_changes_no_bit(monkeypatch, budget):
    default = _kernel_outputs()
    monkeypatch.setattr(spectrum, "BLOCK_BUDGET", budget)
    rows = []
    inner = diagnostics.inverse_square_sums
    monkeypatch.setattr(diagnostics, "inverse_square_sums",
                        lambda z, *args, **kw: rows.append(z.size) or inner(z, *args, **kw))
    if budget == 1:
        assert spectrum.block_rows(61) == 1
    other = _kernel_outputs()
    for name, ref in default.items():
        if name in _BLAS_KERNELS:
            assert np.max(np.abs(other[name] - ref)) <= _BLAS_KERNELS[name] * np.max(np.abs(ref)), name
        else:
            assert np.array_equal(other[name], ref), name
    assert sum(rows) < 61 + len(_CLUSTERED)  # the search left rows out


@pytest.mark.parametrize("budget", [1, 1000, 10**9], ids=["one-row", "ragged", "one-block"])
def test_log_abs_B_of_a_point_ignores_the_other_points(monkeypatch, budget):
    # select_c scores samples in calls of every size: a sample's log|B| must
    # not depend on which other samples share its call
    monkeypatch.setattr(spectrum, "BLOCK_BUDGET", budget)
    up = BlaschkeEvaluator(make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 30))
    z = np.concatenate([triangle_samples(l, c, 64) for l, c in ((3.5, 1.0), (20.3, 4.6), (40.0, 10.0))])
    z = np.concatenate([z, np.linspace(-40.0, 40.0, 301) + 0.7j])
    full = up.log_abs_B(z)
    rng = np.random.default_rng(5)
    subsets = [np.arange(z.size)[s] for s in (slice(None, None, 16), slice(8, None, 16), slice(1, None, 2),
                                               slice(3, None, 7))]
    subsets += [np.sort(rng.choice(z.size, k, replace=False)) for k in (1, 2, 81, 500)]
    subsets += [rng.permutation(z.size)[:300], np.array([7, 7, 3, 600, 3])]
    for idx in subsets:
        assert np.array_equal(up.log_abs_B(z[idx]), full[idx]), idx[:5]


def test_block_rows_rule(monkeypatch):
    monkeypatch.setattr(spectrum, "BLOCK_BUDGET", 100)
    assert [spectrum.block_rows(n) for n in (0, 1, 7, 100, 101)] == [100, 100, 14, 1, 1]


@pytest.mark.parametrize("shape", [(3, 0), (0, 5)], ids=["no-factors", "no-rows"])
@pytest.mark.parametrize("poles", [False, True], ids=["G", "B"])
def test_log_products_empty_shapes(shape, poles):
    z, zeros = np.linspace(0.0, 2.0, shape[0]) + 0.5j, np.arange(shape[1]) + 1.5j
    out = spectrum.log_products(z, zeros, np.conj(zeros) if poles else None)
    assert out.shape == (shape[0],) and np.all(out == 0)


def test_tail_factor_with_no_points_beyond_n():
    # the (r, 0) factor block: every point lies inside |mu| < n
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 30)
    assert np.array_equal(BlaschkeEvaluator(s).tail_factor(s.points[:5], 100.0), np.ones(5))


@pytest.mark.parametrize("ragged", [False, True], ids=["under-one-block", "ragged-last-block"])
def test_block_buffers_sliced_per_block(ragged):
    # the kernels fill buffers made for a whole block; a call with fewer points
    # than one block, or a ragged last block, uses their first rows only and
    # must match one call per point bit for bit (a tailless window, so only
    # the block kernels run); G' at every node, made in one pass, must match
    # one call of its kernel (a window on one height) per node with its own skip
    pts = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 100).points  # 201 points
    gen = GeneratingFunctionEvaluator(Spectrum(pts))
    up = BlaschkeEvaluator(Spectrum(pts))
    step = spectrum.block_rows(pts.size)
    n = 2 * step + 5 if ragged else 3
    z = np.linspace(-40.0, 40.0, n) + 0.7j
    kernels = {
        "log_G": gen.log_G,
        "log_G@real": lambda z: gen.log_G(z.real + 0j),
        "log_abs_G": lambda z: gen.log_abs_G(z.real, a=0.4),
        "eval_B": up.eval_B,
        "tail_factor": lambda z: up.tail_factor(z, 12.0),
    }
    for name, kernel in kernels.items():
        single = np.array([kernel(z[i : i + 1])[0] for i in range(z.size)])
        assert np.array_equal(kernel(z), single), name
    nodes = [pts[k : k + 1] for k in range(pts.size if ragged else n)]  # 201 = 2 * 81 + 39
    assert gen.spectrum.height == 0.3
    single = [(-1.0 / lam) * np.exp(spectrum.one_height_self_logs(pts.real, 0.3, np.array([k])))
              for k, lam in enumerate(nodes)]
    assert np.array_equal(gen.eval_G_prime_at_lambda(np.arange(len(nodes))), np.concatenate(single))
