"""Batch front-end: key=value configs in, deterministic CSV tables out.

Subcommands (selected by the `subcommand` config key): diagnose, weights,
converge, compare-norms, contours, factorize-check.  Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical precondition failures
(infeasible contour selection and friends).  Outputs are byte-stable for
a fixed config and seed.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from pathlib import Path

import numpy as np

from pwsum.blaschke import BlaschkeError, BlaschkeEvaluator, upper_lower_evaluators
from pwsum.contours import ContourError, build_schedule, save_schedule_csv
from pwsum.diagnostics import DiagnosticsError, carleson_sup, line_diagnostics, save_report_csv
from pwsum.engine import (
    EngineError,
    NormProbe,
    PWFunction,
    SummationContext,
    build_lagrange_sum,
    compactwise_error,
    disk_probe,
    l2_error,
    lagrange_tail_bound,
    pw_tail_bound,
    sample_pw,
)
from pwsum.genfun import GenFunError, GeneratingFunctionEvaluator, OuterEvaluator, check_factorization
from pwsum.grids import GridError, grid_template, sample_count
from pwsum.spectrum import Spectrum, SpectrumError, load_spectrum, make_family, split_halfplanes
from pwsum.weights import NaiveWeights, ProjectionWeights, UniversalWeights, WeightError, save_weights_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    BlaschkeError,
    ContourError,
    DiagnosticsError,
    EngineError,
    GenFunError,
    GridError,
    WeightError,
)


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "family": "shifted_integers",
    "count": "50",
    "delta": "0.3",
    "eps": "0.2",
    "points.file": "",
    "scheme": "projection",
    "schedule": "10,20,30,40,50,51",
    "grid.X": "40.0",
    "grid.h": "0.01",
    "output.dir": "out",
    "seed": "1234",
    "trials": "4",
    "atoms.halfwidth": "20",
    "atoms": "0.0,0.3,1,0;2.7,0.3,0.5,0",
    "l.count": "4",
    "l.ratio": "2.0",
    "l.arg_threshold": "1.0",
    "l.zero_margin": "1e-3",
    "c.grid": "16",
    "side.samples": "512",
    "alpha.safety": "1.2",
    "K.center.re": "0.0",
    "K.center.im": "0.0",
    "K.radius": "3.0",
    "K.samples": "256",
    "outer.X": "200.0",
    "outer.h": "0.01",
    "a2.a": "0.0",
    "diag.X": "40.0",
    "diag.h": "0.01",
    "factorize.samples": "1,1;-2,2;0.5,-1.5",
}

_REQUIRED = ("subcommand", "output.dir")

_SUBCOMMANDS = ("diagnose", "weights", "converge", "compare-norms", "contours", "factorize-check")

# integer keys with a lower bound (a disk needs a sample, the atom span an
# atom, a schedule a contour, the probe a trial, the apex-slope scan its 16
# candidates, a contour side two samples)
_INT_MINIMA = {
    "K.samples": 1,
    "atoms.halfwidth": 0,
    "l.count": 1,
    "trials": 1,
    "c.grid": 16,
    "side.samples": 2,
}

# float keys that must be finite, and the bound each must also meet (the
# contour ratio l_{j+1}/l_j, the domination safety factor, the disk K)
_FLOAT_BOUNDS = {
    "l.ratio": ">= 1",
    "alpha.safety": "> 0",
    "K.radius": "> 0",
    "K.center.re": "",
    "K.center.im": "",
    "a2.a": "",
}
_BOUND_TESTS = {">= 1": lambda v: v >= 1.0, "> 0": lambda v: v > 0.0, "": lambda v: True}


def parse_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = dict(_DEFAULTS)
    seen = set()
    for ln, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value")
        key, val = (t.strip() for t in line.split("=", 1))
        if key not in _DEFAULTS and key not in _REQUIRED:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        seen.add(key)
        cfg[key] = val
    for key in _REQUIRED:
        if key not in cfg or not cfg[key]:
            raise ConfigError(f"missing required key {key!r}")
    if cfg["subcommand"] not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {cfg['subcommand']!r}")
    for key, lo in _INT_MINIMA.items():
        if _i(cfg, key) < lo:
            raise ConfigError(f"key {key!r}: must be >= {lo}, got {cfg[key]!r}")
    for key, bound in _FLOAT_BOUNDS.items():
        val = _f(cfg, key)
        if not (math.isfinite(val) and _BOUND_TESTS[bound](val)):
            need = f"finite and {bound}" if bound else "finite"
            raise ConfigError(f"key {key!r}: must be {need}, got {cfg[key]!r}")
    for pair in ("grid", "diag", "outer"):  # (X, h) of a grid on [-X, X]
        try:
            sample_count(_f(cfg, f"{pair}.X"), _f(cfg, f"{pair}.h"))
        except GridError as e:
            raise ConfigError(f"keys {pair}.X, {pair}.h: {e}") from e
    return cfg


def _f(cfg, key) -> float:
    try:
        return float(cfg[key])
    except ValueError as e:
        raise ConfigError(f"key {key!r}: expected a number, got {cfg[key]!r}") from e


def _i(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError as e:
        raise ConfigError(f"key {key!r}: expected an integer, got {cfg[key]!r}") from e


def _build_spectrum(cfg) -> Spectrum:
    """Raises SpectrumError for invalid points; run() reports it as a config error."""
    family = cfg["family"]
    if family == "custom_list":
        if not cfg["points.file"]:
            raise ConfigError("custom_list needs points.file")
        try:
            return load_spectrum(cfg["points.file"])
        except FileNotFoundError as e:
            raise ConfigError(f"points file not found: {cfg['points.file']}") from e
    params = {"delta": _f(cfg, "delta")}
    if family in ("kadec_perturbed", "clustered_pairs"):
        params["eps"] = _f(cfg, "eps")
    return make_family(family, params, _i(cfg, "count"))


def _parse_schedule(cfg) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in cfg["schedule"].split(",") if t.strip()])
    except ValueError as e:
        raise ConfigError(f"bad schedule: {cfg['schedule']!r}") from e
    if not vals.size:
        raise ConfigError("empty schedule")
    if not np.all(np.isfinite(vals) & (vals > 0)) or np.any(np.diff(vals) <= 0):
        raise ConfigError(f"schedule must be finite, positive and strictly increasing: {cfg['schedule']!r}")
    return vals


def _parse_atoms(cfg) -> PWFunction:
    centers, coeffs = [], []
    for tok in cfg["atoms"].split(";"):
        tok = tok.strip()
        if not tok:
            continue
        parts = [t.strip() for t in tok.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"atom needs mu_re,mu_im,c_re,c_im: {tok!r}")
        try:
            a, b, c, d = (float(t) for t in parts)
        except ValueError as e:
            raise ConfigError(f"bad atom {tok!r}") from e
        if not all(math.isfinite(v) for v in (a, b, c, d)):
            raise ConfigError(f"atom parts must be finite: {tok!r}")
        centers.append(complex(a, b))
        coeffs.append(complex(c, d))
    if not centers:
        raise ConfigError("no atoms given")
    try:
        return PWFunction(centers, coeffs)
    except EngineError as e:
        raise ConfigError(f"bad atoms: {e}") from e


def _parse_points(text: str) -> np.ndarray:
    pts = []
    for tok in text.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        parts = [t.strip() for t in tok.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"sample point needs re,im: {tok!r}")
        try:
            pts.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as e:
            raise ConfigError(f"bad sample point {tok!r}") from e
    if not pts:
        raise ConfigError("no sample points given")
    if any(p.imag == 0 or not cmath.isfinite(p) for p in pts):
        raise ConfigError("sample points must be finite and off the real axis")
    return np.array(pts)


def _schedule_kwargs(cfg) -> dict:
    """The contour-selection keywords of build_schedule."""
    return dict(
        count=_i(cfg, "l.count"),
        ratio=_f(cfg, "l.ratio"),
        arg_threshold=_f(cfg, "l.arg_threshold"),
        zero_margin=_f(cfg, "l.zero_margin"),
        c_grid=_i(cfg, "c.grid"),
        samples_per_side=_i(cfg, "side.samples"),
        safety=_f(cfg, "alpha.safety"),
    )


def _build_scheme(name: str, cfg, spectrum):
    schedule = _parse_schedule(cfg)
    if name == "naive":
        return NaiveWeights(spectrum, schedule)
    if name == "projection":
        return ProjectionWeights(spectrum, schedule)
    if name == "universal":
        up, lo = split_halfplanes(spectrum)
        sched_p = sched_m = None
        kw = _schedule_kwargs(cfg)
        if len(up):
            sched_p = build_schedule(up, BlaschkeEvaluator(up), **kw)
        if len(lo):
            refl = Spectrum(np.conj(lo.points))
            sched_m = build_schedule(refl, BlaschkeEvaluator(refl), **kw)
        return UniversalWeights(spectrum, sched_p, sched_m)
    raise ConfigError(f"unknown scheme {name!r}")


def _schemes(cfg, spectrum) -> list:
    names = [t.strip() for t in cfg["scheme"].split(",") if t.strip()]
    if not names:
        raise ConfigError("no scheme given")
    return [_build_scheme(n, cfg, spectrum) for n in names]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_diagnose(cfg, outdir: Path) -> None:
    s = _build_spectrum(cfg)
    gen = GeneratingFunctionEvaluator(s)
    X = _f(cfg, "diag.X")
    v1, v2, rep = line_diagnostics(gen, X, _f(cfg, "diag.h"), a=_f(cfg, "a2.a"))
    car = carleson_sup(s)
    rows = [
        ("a2_lower_bound", X, v1, v2 / v1 if v1 else np.inf),
        ("carleson_sup", s.radius, car, 1.0),
        ("intG_pos", X, rep.pos_integral, rep.pos_trend),
        ("intG_neg", X, rep.neg_integral, rep.neg_trend),
    ]
    save_report_csv(rows, outdir / "report.csv")


def _cmd_weights(cfg, outdir: Path) -> None:
    schemes = _schemes(cfg, _build_spectrum(cfg))
    if len(schemes) == 1:
        save_weights_csv(schemes[0], outdir / "weights.csv")
    else:
        for sc in schemes:
            save_weights_csv(sc, outdir / f"weights_{sc.kind}.csv")


def _cmd_converge(cfg, outdir: Path) -> None:
    s = _build_spectrum(cfg)
    gen = GeneratingFunctionEvaluator(s)
    f = _parse_atoms(cfg)
    X, h = _f(cfg, "grid.X"), _f(cfg, "grid.h")
    grid = grid_template(X, h)
    ref = sample_pw(f, X, h)
    ref_norm = ref.norm()
    ctx = SummationContext(gen, grid)
    center = complex(_f(cfg, "K.center.re"), _f(cfg, "K.center.im"))
    probe = disk_probe(f, gen, center, _f(cfg, "K.radius"), _i(cfg, "K.samples"))
    f_tail = pw_tail_bound(f, X)
    steps = [(scheme, step) for scheme in _schemes(cfg, s) for step in range(len(scheme))]
    sums = [build_lagrange_sum(f, gen, scheme, step) for scheme, step in steps]
    with open(outdir / "errors.csv", "w") as fh:
        fh.write("n,scheme,l2_error,sup_error_K,tail_bound\n")
        for (scheme, step), ls, sn in zip(steps, sums, ctx.sample_sums(sums)):
            rel = l2_error(sn, ref) / ref_norm if ref_norm else np.inf
            sup = compactwise_error(probe, gen, ls)
            bound = f_tail + lagrange_tail_bound(ls, gen, X)
            fh.write(
                f"{scheme.step_label(step):.12e},{scheme.kind},"
                f"{rel:.12e},{sup:.12e},{bound:.12e}\n"
            )


def _cmd_compare_norms(cfg, outdir: Path) -> None:
    s = _build_spectrum(cfg)
    gen = GeneratingFunctionEvaluator(s)
    grid = grid_template(_f(cfg, "grid.X"), _f(cfg, "grid.h"))
    probe = NormProbe(gen, grid, atom_halfwidth=_i(cfg, "atoms.halfwidth"))
    seed = _i(cfg, "seed")
    trials = _i(cfg, "trials")
    with open(outdir / "norms.csv", "w") as fh:
        fh.write("n,scheme,norm_lower_bound\n")
        for scheme in _schemes(cfg, s):
            for step in range(len(scheme)):
                val = probe.lower_bound(scheme, step, trials=trials, seed=seed)
                fh.write(f"{scheme.step_label(step):.12e},{scheme.kind},{val:.12e}\n")


def _cmd_contours(cfg, outdir: Path) -> None:
    up, _ = split_halfplanes(_build_spectrum(cfg))
    if not len(up):
        raise ConfigError("contours need upper half-plane points")
    sched = build_schedule(up, BlaschkeEvaluator(up), **_schedule_kwargs(cfg))
    save_schedule_csv(sched, outdir / "contours.csv")


def _cmd_factorize_check(cfg, outdir: Path) -> None:
    pts = _parse_points(cfg["factorize.samples"])
    s = _build_spectrum(cfg)
    gen = GeneratingFunctionEvaluator(s)
    outer = OuterEvaluator.from_generating(gen, X=_f(cfg, "outer.X"), h=_f(cfg, "outer.h"))
    b_up, b_lo = upper_lower_evaluators(s)
    rep = check_factorization(gen, outer, b_up, b_lo, pts)
    save_report_csv(
        [("factorization_max_rel_mismatch", _f(cfg, "outer.X"), rep.max_mismatch, 1.0)],
        outdir / "report.csv",
    )


def run(config_path) -> int:
    """Execute the subcommand requested by the config; artifact CSVs land in
    output.dir.  Returns the process exit code."""
    try:
        cfg = parse_config(config_path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        outdir = Path(cfg["output.dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        cmd = cfg["subcommand"]
        if cmd == "diagnose":
            _cmd_diagnose(cfg, outdir)
        elif cmd == "weights":
            _cmd_weights(cfg, outdir)
        elif cmd == "converge":
            _cmd_converge(cfg, outdir)
        elif cmd == "compare-norms":
            _cmd_compare_norms(cfg, outdir)
        elif cmd == "contours":
            _cmd_contours(cfg, outdir)
        elif cmd == "factorize-check":
            _cmd_factorize_check(cfg, outdir)
    except (ConfigError, SpectrumError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as e:
        print(f"numerical precondition failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="pwsum",
        description="Batch experiments for summation methods of non-harmonic "
        "interpolation series (CSV outputs; see README for config keys).",
    )
    parser.add_argument("config", help="path to a key=value config file")
    args = parser.parse_args(argv)
    sys.exit(run(args.config))


if __name__ == "__main__":
    main()
