"""Acceptance criteria, one test per criterion, each printing a
[PASS]/[FAIL] line with the measured numbers before asserting.

Criteria 1 and 11 are kept at their stated tolerances although the
measured curves sit above them on this window scale, with the analysis
in the failure messages: the criterion-1 test atoms share the nodes'
imaginary height, which forces 1/n interpolation coefficients and a
2.4e-2 reconstruction plateau (the pipeline agrees with an independent
closed-form oracle to 5e-14, and conjugate-height atoms would pass at
4.3e-3); the criterion-11 sup runs over a radius-3 disk where the test
functions reach ~1.4e3 in modulus, so an absolute 1e-2 target would
need ~7e-6 relative accuracy while the certified decay rates give
|w - 1| ~ 0.3 at the smallest frequencies even on the final contour.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from pwsum.blaschke import BlaschkeEvaluator
from pwsum.contours import build_schedule
from pwsum.diagnostics import carleson_sup, line_diagnostics
from pwsum.engine import (
    PWFunction,
    coefficient_matrix,
    compactwise_errors,
    l2_error,
    riesz_project,
    sample_sums,
    weighted_projector_check,
)
from pwsum.genfun import GeneratingFunctionEvaluator
from pwsum.grids import grid_template, sample_on_grid
from pwsum.spectrum import Spectrum, make_family
from pwsum.weights import (
    naive_rows,
    outer_weight,
    outer_weight_deviation_bound,
    projection_rows,
    universal_rows,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _universal_for(spectrum, count=4):
    sched = build_schedule(BlaschkeEvaluator(spectrum), count=count)
    return spectrum, "universal", universal_rows(spectrum, sched), sched


@pytest.fixture(scope="module")
def weight_matrix():
    """Scheme/spectrum test matrix shared by criteria 2 and 3: (spectrum,
    scheme name, rows, the contour schedule of a universal scheme)."""
    lattice = make_family("shifted_integers", {"delta": 0.3}, 30)
    kadec = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 30)
    clustered = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 20)
    custom = Spectrum(np.array([1j, 5j, 2 + 1j, -1 - 2j, -4 + 0.5j]))
    entries = []
    for s in (lattice, kadec, clustered, custom):
        radii = np.array([5.0, 10.0, 20.0, max(25.0, s.radius * 1.01)])
        entries.append((s, "naive", naive_rows(s, radii), None))
        entries.append((s, "projection", projection_rows(s, radii), None))
    entries.append(_universal_for(lattice))
    entries.append(_universal_for(clustered))
    return entries


def test_criterion_1_shannon_oracle_reconstruction():
    """Projection-scheme reconstruction of k_{0.3i} + 0.5 k_{2.7+0.3i}."""
    t0 = time.perf_counter()
    s = make_family("shifted_integers", {"delta": 0.3}, 200)
    g = GeneratingFunctionEvaluator(s)
    f = PWFunction([0.3j, 2.7 + 0.3j], [1.0, 0.5])
    grid = grid_template(60.0, 0.01)
    ref = sample_on_grid(f, 60.0, 0.01)
    radii = np.arange(10.0, 151.0, 10.0)  # schedule reaching step n = 150
    values = f.eval(s.points)
    errs = []
    for sn in sample_sums(g, grid, coefficient_matrix(values, g, projection_rows(s, radii))):
        errs.append(l2_error(grid.copy_with(sn), ref) / ref.norm())
    elapsed = time.perf_counter() - t0
    err_150 = errs[-1]
    last5 = errs[-5:]
    nonincreasing = all(b <= a * (1 + 1e-12) for a, b in zip(last5, last5[1:]))
    ok = err_150 <= 1e-2 and nonincreasing and elapsed <= 60.0
    report(
        1,
        ok,
        f"rel L2 err at n=150: {err_150:.5f} (need <= 1e-2); "
        f"last-5 errors {['%.5f' % e for e in last5]} nonincreasing={nonincreasing}; "
        f"runtime {elapsed:.1f}s (need <= 60)",
    )
    assert elapsed <= 60.0
    assert nonincreasing
    assert err_150 <= 1e-2, "reconstruction plateau sits above the stated tolerance"


def test_criterion_2_weight_laws(weight_matrix):
    worst_mod = 0.0
    worst_final = 0.0
    worst_universal = 0.0
    for s, kind, rows, sched in weight_matrix:
        for step_row in rows:
            for w in step_row.weights:
                worst_mod = max(worst_mod, abs(w) - 1.0)
        final = len(rows) - 1
        last = rows[final]
        row = dict(zip(last.indices.tolist(), last.weights))
        if kind in ("naive", "projection"):
            assert set(row) == set(range(len(s)))
            for k, w in row.items():
                worst_final = max(worst_final, abs(w - 1.0))
        else:
            # every point sits inside the final contour; deviations from 1
            # are certified by the outer-weight profile bound (which is
            # large for points past l/2, where no convergence is claimed)
            tri = sched.contours[final]
            alpha = float(sched.alphas[final])
            assert np.all(tri.contains(s.points))
            bounds = outer_weight_deviation_bound(tri.l, alpha, s.points)
            for k in range(len(s)):
                w = row.get(k, 0j)
                worst_universal = max(worst_universal, abs(w - 1.0) - float(bounds[k]))
    ok = worst_mod <= 1e-12 and worst_final <= 1e-9 and worst_universal <= 1e-12
    report(
        2,
        ok,
        f"max(|w|-1) = {worst_mod:.2e} (<= 1e-12); "
        f"final-step max|w-1| naive/projection = {worst_final:.2e} (<= 1e-9); "
        f"universal profile excess = {worst_universal:.2e}",
    )
    assert worst_mod <= 1e-12
    assert worst_final <= 1e-9
    assert worst_universal <= 1e-12


def test_criterion_3_unimodularity(weight_matrix):
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-300.0, 300.0, 1000)
    worst = 0.0
    seen = set()
    for s, *_ in weight_matrix:
        key = id(s)
        if key in seen:
            continue
        seen.add(key)
        up = s.points[s.points.imag > 0]
        if not up.size:
            continue
        b = BlaschkeEvaluator(Spectrum(up))
        vals = b.eval_B(xs.astype(complex))
        worst = max(worst, float(np.max(np.abs(np.abs(vals) - 1.0))))
    ok = worst <= 1e-10
    report(3, ok, f"max ||B(x)|-1| over 1e3 random reals: {worst:.2e} (<= 1e-10)")
    assert worst <= 1e-10


def test_criterion_4_universal_weight_boundary_profile():
    l, alpha = 40.0, 0.05
    xs_in = np.linspace(-19.99, 19.99, 401)
    dev_in = np.max(np.abs(np.abs(outer_weight(l, alpha, xs_in.astype(complex))) - 1.0))
    xs_out = np.concatenate([np.linspace(-120, -20.01, 200), np.linspace(20.01, 120, 200)])
    dev_out = np.max(
        np.abs(np.abs(outer_weight(l, alpha, xs_out.astype(complex))) - np.exp(-2 * np.pi))
    )

    def cquad(fn, a, b):
        re, _ = quad(lambda u: fn(u).real, a, b, limit=400)
        im, _ = quad(lambda u: fn(u).imag, a, b, limit=400)
        return re + 1j * im

    def phase_oracle(zeta):
        out = cquad(lambda u: zeta / (u * (zeta - u)), 0.5, 2.0)
        out += cquad(lambda v: zeta / (zeta * v - 1.0), 0.0, 0.5)
        out += cquad(lambda u: -zeta / (u * (zeta + u)), 0.5, 2.0)
        out += cquad(lambda v: -zeta / (zeta * v + 1.0), 0.0, 0.5)
        return out

    rng = np.random.default_rng(7)
    zs = rng.uniform(-35, 35, 100) + 1j * rng.uniform(0.1, 30.0, 100)
    worst_q = 0.0
    for z, got in zip(zs, outer_weight(l, alpha, zs)):
        want = np.exp(-1j * alpha * l * phase_oracle(complex(z) / l))
        worst_q = max(worst_q, abs(got - want) / abs(want))
    ok = dev_in <= 1e-8 and dev_out <= 1e-8 and worst_q <= 1e-6
    report(
        4,
        ok,
        f"|w|-1 inside: {dev_in:.2e} (<=1e-8); |w|-e^(-2pi) outside: {dev_out:.2e} (<=1e-8); "
        f"closed form vs quadrature at 100 interior points: {worst_q:.2e} (<=1e-6)",
    )
    assert dev_in <= 1e-8
    assert dev_out <= 1e-8
    assert worst_q <= 1e-6


def test_criterion_5_domination_certificates():
    # each margin recomputed from a fresh log|B| pass over the contour's side
    # samples, against the schedule's own (taken from select_c's pass)
    worst, differ = np.inf, 0
    for name, params, count in (
        ("shifted_integers", {"delta": 0.3}, 60),
        ("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 40),
    ):
        s = make_family(name, params, count)
        b = BlaschkeEvaluator(s)
        sched = build_schedule(b, count=4, samples_per_side=512)
        for tri, alpha, margin in zip(sched.contours, sched.alphas, sched.margins):
            fresh = float(np.min(float(alpha) * tri.l / 5.0 + b.log_abs_B(tri.slanted_samples())))
            differ += fresh != margin
            worst = min(worst, fresh)
    ok = worst >= 0.0 and differ == 0
    report(5, ok, f"min over schedules/sides of alpha*l/5 + log|B|: {worst:.4f} (>= 0); "
                  f"margins differing from the schedule's: {differ} (== 0)")
    assert differ == 0
    assert worst >= 0.0


def test_criterion_6_projector_identity():
    s = make_family("shifted_integers", {"delta": 0.3}, 50)
    g = GeneratingFunctionEvaluator(s)
    b = BlaschkeEvaluator(s)
    f = PWFunction([0.3j, 2.7 + 0.3j], [1.0, 0.5])
    grid = grid_template(60.0, 0.005)
    rep = weighted_projector_check(f, g, b, 20.0, grid)
    ok = rep.mismatch <= 5.0 * rep.error_bar
    report(
        6,
        ok,
        f"mismatch {rep.mismatch:.3e} vs 5 x error bar {5 * rep.error_bar:.3e} "
        f"(scale {rep.operator_norm_scale:.3f})",
    )
    assert rep.mismatch <= 5.0 * rep.error_bar


def test_criterion_7_riesz_projection_oracle():
    g = sample_on_grid(lambda x: 1.0 / (x + 1j), 100.0, 0.01)
    plus = riesz_project(g, "+")
    err_plus = l2_error(plus, g)
    err_minus = riesz_project(g, "-").norm()
    ok = err_plus <= 1e-3 and err_minus <= 1e-3
    report(
        7,
        ok,
        f"||P+ g - g|| = {err_plus:.2e} (<= 1e-3); ||P- g|| = {err_minus:.2e} (<= 1e-3)",
    )
    assert err_plus <= 1e-3
    assert err_minus <= 1e-3


def test_criterion_8_norm_contrast_carleson_violating(tmp_path):
    # the comparison harness itself is what is accepted: norms.csv must be
    # emitted in full; the >= 3 ratio is the numerical expectation
    from pwsum.cli import EXIT_OK, run

    out = tmp_path / "out"
    cfg = tmp_path / "norms.cfg"
    cfg.write_text(
        f"""subcommand=compare-norms
family=clustered_pairs
count=100
delta=1.0
eps=0.5
scheme=naive,projection
schedule=10,20,30,40,50,60,70,80
grid.X=40
grid.h=0.02
atoms.halfwidth=30
seed=11
trials=3
output.dir={out}
"""
    )
    assert run(cfg) == EXIT_OK
    lines = (out / "norms.csv").read_text().strip().splitlines()
    assert lines[0] == "n,scheme,norm_lower_bound"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 16  # 8 steps x 2 schemes: the full table was emitted
    naive = {float(r[0]): float(r[2]) for r in rows if r[1] == "naive"}
    proj = {float(r[0]): float(r[2]) for r in rows if r[1] == "projection"}
    ratios = {n: naive[n] / max(proj[n], 1e-300) for n in naive}
    best_n = max(ratios, key=lambda n: ratios[n])
    met = any(r >= 3.0 for n, r in ratios.items() if n <= 80.0)
    report(
        8,
        True,
        f"norms.csv emitted ({len(rows)} rows); best naive/projection ratio "
        f"{ratios[best_n]:.1f} at n={best_n:.0f}; expectation ratio>=3 "
        f"{'met' if met else 'FALSIFIED (recorded as datum)'}",
    )
    # harness acceptance: emission is unconditional; the [DERIVED] numerical
    # expectation is additionally asserted because it holds on this machine
    assert met, "expected the Carleson-violating family to separate the schemes"


def test_criterion_9_carleson_closed_form():
    s = make_family("shifted_integers", {"delta": 1.0}, 10_000)
    v = carleson_sup(s)
    target = 4 * np.pi**2 / 3
    ok = abs(v - target) <= 1e-3
    report(9, ok, f"carleson sup {v:.6f} vs 4 pi^2/3 = {target:.6f}; |diff| = {abs(v - target):.2e}")
    assert abs(v - target) <= 1e-3


def test_criterion_10_diagnostics_invariances():
    s = make_family("shifted_integers", {"delta": 0.3}, 80)
    g1 = GeneratingFunctionEvaluator(s)
    g2 = GeneratingFunctionEvaluator(s, normalization=3.7 - 1.2j)
    v1 = line_diagnostics(g1, X=20.0, h=0.01)[0]
    v2 = line_diagnostics(g2, X=20.0, h=0.01)[0]
    scale_dev = abs(v1 - v2) / max(v1, 1.0)
    pts = np.array([0.25 + 0.5j, 1 + 1j, -2 + 0.75j, 3 - 0.5j])
    trans_exact = carleson_sup(Spectrum(pts)) == carleson_sup(Spectrum(pts + 11.0))
    lower_ok = v1 >= 1.0 - 1e-12 and line_diagnostics(g1, X=5.0, h=0.01)[0] >= 1.0 - 1e-12
    ok = scale_dev <= 1e-12 and trans_exact and lower_ok
    report(
        10,
        ok,
        f"a2 scale deviation {scale_dev:.2e} (<= 1e-12); translation exact: {trans_exact}; "
        f"a2 >= 1: {lower_ok} (value {v1:.4f})",
    )
    assert scale_dev <= 1e-12
    assert trans_exact
    assert lower_ok


def test_criterion_11_compactwise_universal():
    s = make_family("shifted_integers", {"delta": 0.3}, 200)
    g = GeneratingFunctionEvaluator(s)
    b = BlaschkeEvaluator(s)
    uni = universal_rows(s, build_schedule(b, count=6))
    f = PWFunction([0.3j, 2.7 + 0.3j], [1.0, 0.5])
    values = f.eval(s.points)
    errs = list(compactwise_errors(f, g, coefficient_matrix(values, g, uni), center=0j, radius=3.0, samples=337))
    decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
    final_ok = errs[-1] <= 1e-2
    ok = decreasing and final_ok
    report(
        11,
        ok,
        f"sup errors on K over the schedule: {['%.3e' % e for e in errs]}; "
        f"decreasing={decreasing}, final <= 1e-2: {final_ok}",
    )
    assert decreasing
    assert final_ok, "absolute sup on a radius-3 disk inherits e^{pi Im z} growth"
