"""Batch front-end: key=value configs in, deterministic CSV tables out.

Subcommands (selected by the `subcommand` config key): diagnose, weights,
converge, compare-norms, contours, factorize-check.  Exit codes: 0 on
success, 2 on configuration errors, unwritable outputs and runs that need
more memory than the machine holds, 3 on numerical precondition failures
(infeasible contour selection, a non-finite number in any table, and
friends).  parse_config checks every key before anything runs; a
subcommand returns its tables, run checks every cell of every table and
only then writes them all, so a run that exits 2 or 3 writes no CSV.
Its stderr is one line: run holds back the warnings a subcommand raises,
drops them when the run fails and issues them again when it succeeds.
Outputs are byte-stable for a fixed config.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from pwsum.blaschke import BlaschkeError, upper_lower_evaluators
from pwsum.contours import ContourError, build_schedule
from pwsum.diagnostics import DiagnosticsError, carleson_sup, line_diagnostics
from pwsum.engine import (
    EngineError,
    PWFunction,
    coefficient_matrix,
    compactwise_errors,
    norm_lower_bounds,
    pw_tail_bound,
    sample_sums,
    sup_abs_G,
    tail_bounds,
)
from pwsum.genfun import GenFunError, GeneratingFunctionEvaluator, OuterEvaluator, check_factorization
from pwsum.grids import GridError, line_grid, sample_count
from pwsum.spectrum import FAMILY_NAMES, Spectrum, SpectrumError, load_spectrum, make_family
from pwsum.weights import WeightError, naive_weights, projection_weights, universal_weights

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


# Value parsers: the text of one key in, its typed value out, ValueError on a
# bad value.  parse_config applies them all before anything runs.


def _number(kind, bound: str = ""):
    """Parser of an int, or of a finite float, that meets an optional lower
    bound such as '> 0' or '>= 16'."""
    op, _, lo = bound.partition(" ")
    lo = float(lo or 0)

    def parse(text: str):
        try:
            val = kind(text)
        except ValueError:
            raise ValueError(f"expected {'an integer' if kind is int else 'a number'}, got {text!r}") from None
        if (kind is float and not math.isfinite(val)) or not {"": True, ">": val > lo, ">=": val >= lo}[op]:
            need = " and ".join(filter(None, ("finite" if kind is float else "", bound)))
            raise ValueError(f"must be {need}, got {text!r}")
        return val

    return parse


def _text(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def _choice(names):
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {text!r}")
        return text

    return parse


def _scheme_names(text: str) -> list:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ValueError("no scheme given")
    if len(set(names)) < len(names):  # a scheme's file or rows would be written twice
        raise ValueError(f"a scheme is named twice in {text!r}")
    return [_choice(("naive", "projection", "universal"))(n) for n in names]


def _schedule(text: str) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in text.split(",") if t.strip()])
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None
    if not vals.size or not np.all(np.isfinite(vals) & (vals > 0)) or np.any(np.diff(vals) <= 0):
        raise ValueError(f"must be non-empty, finite, positive and strictly increasing, got {text!r}")
    return vals


def _tuples(text: str, what: str, fields: str) -> np.ndarray:
    """The ';'-separated tuples of finite ','-separated numbers in text, one
    row each, with as many columns as `fields` names."""
    rows = []
    for tok in filter(None, (t.strip() for t in text.split(";"))):
        parts = tok.split(",")
        if len(parts) != fields.count(",") + 1:
            raise ValueError(f"{what} needs {fields}: {tok!r}")
        try:
            rows.append([float(t) for t in parts])
        except ValueError:
            raise ValueError(f"bad {what} {tok!r}") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ValueError(f"{what} parts must be finite: {tok!r}")
    if not rows:
        raise ValueError(f"no {what} given")
    return np.array(rows)


def _atoms(text: str) -> PWFunction:
    centers, coeffs = _tuples(text, "atom", "mu_re,mu_im,c_re,c_im").view(complex).T
    if not np.any(coeffs):
        raise ValueError("every coefficient is 0: F = 0 has no relative error")
    try:
        return PWFunction(centers, coeffs)
    except EngineError as e:
        raise ValueError(str(e)) from None


def _points(text: str) -> np.ndarray:
    pts = _tuples(text, "sample point", "re,im").view(complex).ravel()
    if np.any(pts.imag == 0):
        raise ValueError("sample points must be off the real axis")
    return pts


def _build_spectrum(cfg) -> Spectrum:
    """Raises SpectrumError for invalid points; run() reports it as a config error."""
    family = cfg["family"]
    if family == "custom_list":
        try:
            return load_spectrum(cfg["points.file"])
        except FileNotFoundError as e:
            raise ConfigError(f"points file not found: {cfg['points.file']}") from e
    return make_family(family, {"delta": cfg["delta"], "eps": cfg["eps"]}, cfg["count"])


def _schedule_kwargs(cfg) -> dict:
    """The contour-selection keywords of build_schedule."""
    return dict(
        count=cfg["l.count"],
        ratio=cfg["l.ratio"],
        arg_threshold=cfg["l.arg_threshold"],
        zero_margin=cfg["l.zero_margin"],
        c_grid=cfg["c.grid"],
        samples_per_side=cfg["side.samples"],
        safety=cfg["alpha.safety"],
    )


def _weights(name: str, cfg, spectrum) -> tuple:
    """(L, W) of the summation method the config names."""
    if name == "naive":
        return naive_weights(spectrum, cfg["schedule"])
    if name == "projection":
        return projection_weights(spectrum, cfg["schedule"])
    kw = _schedule_kwargs(cfg)
    return universal_weights(spectrum, *[None if b is None else build_schedule(b, **kw)
                                         for b in upper_lower_evaluators(spectrum)])


def _steps(cfg, spectrum) -> tuple:
    """Every step of the schemes the config names, in order: the scheme and
    the n of each step, and the (points x steps) weight matrix."""
    parts = {name: _weights(name, cfg, spectrum) for name in cfg["scheme"]}
    schemes = [name for name, (L, _) in parts.items() for _ in L[0]]
    return schemes, np.concatenate([L[0] for L, _ in parts.values()]), np.hstack([W for _, W in parts.values()])


# ---------------------------------------------------------------------------
# subcommands: each returns its tables, {file name: (header, rows)}
# ---------------------------------------------------------------------------

_REPORT = "condition,window_X,value,trend_ratio"


def _cmd_diagnose(cfg) -> dict:
    s = _build_spectrum(cfg)
    gen = GeneratingFunctionEvaluator(s)
    X = cfg["diag.X"]
    table = line_diagnostics(gen, X, cfg["diag.h"], a=cfg["a2.a"])
    # the A2 scan is >= 1; a zero X-window integral gives inf, which the writer refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        trend = np.where(table[:, 0] != 0, table[:, 1] / table[:, 0], np.inf)
    a2, pos, neg = zip(table[:, 0], trend)
    rows = [("a2_lower_bound", X, *a2), ("carleson_sup", s.radius, carleson_sup(s), 1.0),
            ("intG_pos", X, *pos), ("intG_neg", X, *neg)]
    return {"report.csv": (_REPORT, rows)}


def _cmd_weights(cfg) -> dict:
    s = _build_spectrum(cfg)
    names = cfg["scheme"]
    tables = {}
    for name in names:
        L, W = _weights(name, cfg, s)
        j, k = np.nonzero(W.T)  # step order, then ascending index
        lam = s.points[k]
        rows = list(zip(L[(lam.imag < 0).astype(int), j], k, lam.real, lam.imag, W[k, j].real, W[k, j].imag))
        file = "weights.csv" if len(names) == 1 else f"weights_{name}.csv"
        tables[file] = ("n,k,lambda_re,lambda_im,w_re,w_im", rows)
    return tables


def _cmd_converge(cfg) -> dict:
    s = _build_spectrum(cfg)
    gen = GeneratingFunctionEvaluator(s)
    f = cfg["atoms"]
    X = cfg["grid.X"]
    x, w = line_grid(X, cfg["grid.h"])
    ref = f.eval(x)
    schemes, ns, W = _steps(cfg, s)
    A = coefficient_matrix(f.eval(s.points), gen, W)
    center = complex(cfg["K.center.re"], cfg["K.center.im"])
    sup = compactwise_errors(f, gen, A, center, cfg["K.radius"], cfg["K.samples"])
    diff = sample_sums(gen, x, A) - ref
    rel = np.sqrt(np.sum(w * np.abs(diff) ** 2, axis=1)) / np.sqrt(np.sum(w * np.abs(ref) ** 2))
    tail = pw_tail_bound(f, X) + tail_bounds(A, gen, X, sup_abs_G(gen, X))
    table = list(zip(ns, schemes, rel, sup, tail))
    return {"errors.csv": ("n,scheme,l2_error,sup_error_K,tail_bound", table)}


def _cmd_compare_norms(cfg) -> dict:
    s = _build_spectrum(cfg)
    gen = GeneratingFunctionEvaluator(s)
    x, w = line_grid(cfg["grid.X"], cfg["grid.h"])
    schemes, ns, W = _steps(cfg, s)
    table = list(zip(ns, schemes, norm_lower_bounds(gen, x, w, cfg["atoms.halfwidth"], W)))
    return {"norms.csv": ("n,scheme,norm_lower_bound", table)}


def _cmd_contours(cfg) -> dict:
    b_up, _ = upper_lower_evaluators(_build_spectrum(cfg))
    if b_up is None:
        raise ConfigError("contours need upper half-plane points")
    sched = build_schedule(b_up, **_schedule_kwargs(cfg))
    rows = list(zip(range(1, sched.shape[1] + 1), *sched))
    return {"contours.csv": ("n,l,c,alpha,eps_hat,margin", rows)}


def _cmd_factorize_check(cfg) -> dict:
    s = _build_spectrum(cfg)
    gen = GeneratingFunctionEvaluator(s)
    outer = OuterEvaluator.from_generating(gen, X=cfg["outer.X"], h=cfg["outer.h"])
    b_up, b_lo = upper_lower_evaluators(s)
    mismatch = check_factorization(gen, outer, b_up, b_lo, cfg["factorize.samples"])
    return {"report.csv": (_REPORT, [("factorization_max_rel_mismatch", cfg["outer.X"], np.max(mismatch), 1.0)])}


_COMMANDS = {
    "diagnose": _cmd_diagnose,
    "weights": _cmd_weights,
    "converge": _cmd_converge,
    "compare-norms": _cmd_compare_norms,
    "contours": _cmd_contours,
    "factorize-check": _cmd_factorize_check,
}

# key -> (default text, parser); a key without a default is required.  The
# lower bounds: a family window needs a k on each side of 0, a disk a sample,
# the atom span an atom, a schedule a contour, the apex-slope scan its 16
# candidates, a contour side two samples, a grid on [-X, X] a positive X and
# h.  seed is parsed and checked but has no effect: the norm probe takes no
# random start, and old configs still send it.
_KEYS = {
    "subcommand": (None, _choice(_COMMANDS)),
    "output.dir": ("out", _text),
    "family": ("shifted_integers", _choice(FAMILY_NAMES)),
    "count": ("50", _number(int, ">= 1")),
    "delta": ("0.3", _number(float)),
    "eps": ("0.2", _number(float)),
    "points.file": ("", str),
    "scheme": ("projection", _scheme_names),
    "schedule": ("10,20,30,40,50,51", _schedule),
    "grid.X": ("40.0", _number(float, "> 0")),
    "grid.h": ("0.01", _number(float, "> 0")),
    "seed": ("1234", _number(int, ">= 0")),
    "atoms.halfwidth": ("20", _number(int, ">= 0")),
    "atoms": ("0.0,0.3,1,0;2.7,0.3,0.5,0", _atoms),
    "l.count": ("4", _number(int, ">= 1")),
    "l.ratio": ("2.0", _number(float, ">= 1")),
    "l.arg_threshold": ("1.0", _number(float, "> 0")),
    "l.zero_margin": ("1e-3", _number(float, ">= 0")),
    "c.grid": ("16", _number(int, ">= 16")),
    "side.samples": ("512", _number(int, ">= 2")),
    "alpha.safety": ("1.2", _number(float, "> 0")),
    "K.center.re": ("0.0", _number(float)),
    "K.center.im": ("0.0", _number(float)),
    "K.radius": ("3.0", _number(float, "> 0")),
    "K.samples": ("256", _number(int, ">= 1")),
    "outer.X": ("200.0", _number(float, "> 0")),
    "outer.h": ("0.01", _number(float, "> 0")),
    "a2.a": ("0.0", _number(float)),
    "diag.X": ("40.0", _number(float, "> 0")),
    "diag.h": ("0.01", _number(float, "> 0")),
    "factorize.samples": ("1,1;-2,2;0.5,-1.5", _points),
}


def parse_config(path) -> dict:
    """Every key of _KEYS, typed and checked: the given value or the default."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    given = {}
    for ln, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value")
        key, val = (t.strip() for t in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        given[key] = val
    cfg = {}
    for key, (default, parse) in _KEYS.items():
        text = given.get(key, default)
        if text is None:
            raise ConfigError(f"missing required key {key!r}")
        try:
            cfg[key] = parse(text)
        except ValueError as e:
            raise ConfigError(f"key {key!r}: {e}") from e
    for pair in ("grid", "diag", "outer"):  # (X, h) of a grid on [-X, X]
        try:
            sample_count(cfg[f"{pair}.X"], cfg[f"{pair}.h"])
        except GridError as e:
            raise ConfigError(f"keys {pair}.X, {pair}.h: {e}") from e
    if cfg["family"] == "custom_list" and not cfg["points.file"]:
        raise ConfigError("custom_list needs points.file")
    return cfg


def _cell(val) -> str:
    """Text as it is, an integer as an integer, any other number as %.12e."""
    if isinstance(val, str):
        return val
    return str(val) if isinstance(val, (int, np.integer)) else f"{val:.12e}"


def _write_tables(outdir: Path, tables: dict) -> None:
    """Each table, {file name: (header, rows)}, to outdir / its file name:
    the header line, then one line per row.  Every cell is checked first: a
    non-finite number raises EngineError naming its file, column and row,
    before output.dir is made.  An OSError is a ConfigError, raised after
    the files written before it are removed, so a failed run leaves no CSV."""
    for name, (header, rows) in tables.items():
        cols = header.split(",")
        for row in rows:
            for col, val in zip(cols, row):
                if not isinstance(val, str) and not math.isfinite(val):
                    raise EngineError(f"{name}: {col} is {val} at {cols[0]}={_cell(row[0])}")
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            with open(outdir / name, "w") as fh:
                written.append(outdir / name)
                fh.write(header + "\n")
                fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
    except OSError as e:
        for path in written:
            path.unlink()
        raise ConfigError(f"cannot write output.dir: {e}") from e


def run(config_path) -> int:
    """Execute the subcommand requested by the config, then check and write
    the tables it returns.  Returns the process exit code.  The warnings the
    run raises are held back: a run that fails prints its one stderr line
    alone, and a run that succeeds issues them again on its way out."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            cfg = parse_config(config_path)
            _write_tables(Path(cfg["output.dir"]), _COMMANDS[cfg["subcommand"]](cfg))
        except (ConfigError, SpectrumError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except MemoryError as e:  # the config asks for more than the machine holds
            print(f"config error: out of memory: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except _NUMERICAL_ERRORS as e:
            print(f"numerical precondition failure: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
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
