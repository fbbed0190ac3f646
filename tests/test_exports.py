"""The package export list: every name in pwsum.__all__ resolves, once; the
module layout rules that keep one decision in one module; and the
reachability rule: every public function is reached by a CLI run or by the
projector check, or is on a short allow-list."""

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pwsum


def test_all_resolves_without_duplicates():
    assert len(set(pwsum.__all__)) == len(pwsum.__all__)
    assert [name for name in pwsum.__all__ if not hasattr(pwsum, name)] == []
    namespace: dict = {}
    exec("from pwsum import *", namespace)  # raises AttributeError on a stale name
    assert set(pwsum.__all__) <= set(namespace)


def test_only_spectrum_sizes_the_blocks():
    # every pair kernel walks its blocks with spectrum.row_blocks, which makes
    # the block buffers once per call; a module that sized its own blocks would
    # bypass that rule
    src = Path(pwsum.__file__).parent
    callers = sorted(p.name for p in src.glob("*.py") if "block_rows(" in p.read_text())
    assert callers == ["spectrum.py"]
    # likewise one block log-product (spectrum.log_products, the only reader
    # of LOG_BLOCK) and one touching rule of G's zeros and B's poles
    # (spectrum.touching): a module with its own 1e-12 tolerance, named or
    # scaled by max(1, |lambda|), would bypass it
    tol = re.compile(r"^\s*\w+\s*=\s*1e-12\b|1e-12\s*\*\s*np\.maximum", re.MULTILINE)
    assert sorted(p.name for p in src.glob("*.py") if "LOG_BLOCK" in p.read_text()) == ["spectrum.py"]
    assert sorted(p.name for p in src.glob("*.py") if tol.search(p.read_text())) == ["spectrum.py"]


def test_only_cli_writes_files():
    # subcommands return their tables and cli.run writes them all, after it
    # has checked every cell; a module that opened a file for writing itself
    # would bypass that check and the one CSV format
    src = Path(pwsum.__file__).parent
    writes = re.compile(r"""\bopen\([^)]*["'][wax]|write_text|write_bytes|savetxt|tofile""")
    assert sorted(p.name for p in src.glob("*.py") if writes.search(p.read_text())) == ["cli.py"]


def test_contour_selection_has_no_separate_zero_pass():
    # select_c scores its candidates by log|B| alone: a side sample on a zero
    # gives log|B| = -inf, so eps_hat = inf, and that candidate is never taken
    src = Path(pwsum.__file__).parent
    assert "collisions(" not in (src / "contours.py").read_text()


def test_evaluators_take_and_return_arrays_only():
    # every evaluator takes a 1-d array and returns one, so no module tests
    # its argument for a scalar; and each evaluation has one entry point: no
    # grid alias of eval_G, no second Lagrange-sum builder, no second log|B|
    # pass for the domination margin, no None cutoff, no scheme class, and no
    # per-step evaluator of a partial sum
    src = {p.name: p.read_text() for p in Path(pwsum.__file__).parent.glob("*.py")}
    scalar = re.compile(r"atleast_1d|isscalar|\bndim\b")
    assert sorted(name for name, text in src.items() if scalar.search(text)) == []
    gone = ("eval_G_on_grid", "build_lagrange_sum_from_values", "domination_margin", "_log_G", "_select",
            # a summation method is its list of rows: no scheme classes, no lazy row interface
            "weight_row", "step_label", "row_labels", "_RadiusSchedule", "NaiveWeights", "ProjectionWeights",
            "UniversalWeights",
            # a run's steps are the columns of one coefficient matrix: no per-step sum or disk probe
            "LagrangeSum", "build_lagrange_sum", "compactwise_error", "DiskProbe", "disk_probe",
            "lagrange_tail_bound")
    assert sorted((name, g) for name, text in src.items() for g in gone if re.search(rf"\b{g}\b", text)) == []


# Public names that no CLI run and no criterion-6 check reaches, and why each
# stays.  Anything else public that those runs do not call is dead surface.
_ALLOW_LIST = {
    # the console script; the runs below call cli.run, which main wraps
    ("cli", "main"),
    # the tail model's error estimate, until a CLI output reports it
    ("genfun", "GeneratingFunctionEvaluator.tail_uncertainty"),
    # the outer-weight deviation certificate, until a CLI output reports it;
    # criterion 2 calls it
    ("weights", "outer_weight_deviation_bound"),
}


def _public_surface() -> set:
    """(module, qualname) of every public function, and of every public
    method and property of a class (a private base class too), defined in a
    pwsum module."""
    out = set()
    for info in pkgutil.iter_modules(pwsum.__path__):
        mod = importlib.import_module(f"pwsum.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out.add((info.name, obj.__qualname__))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        out.add((info.name, fn.__qualname__))
    return out


def _cli_configs(tmp: Path) -> list:
    """One small config per subcommand; weights reads a custom point list
    with points in both half-planes."""
    up = [(0.5, 1.0), (-1.5, 0.7), (3.1, 0.4), (-2.5, 0.6), (1.2, 0.3)]
    (tmp / "pts.txt").write_text("".join(f"{x} {y}\n{x} {-y}\n" for x, y in up))
    bodies = {
        "diagnose": "family=clustered_pairs\ncount=10\ndiag.X=5\ndiag.h=0.05\n",
        "weights": f"family=custom_list\npoints.file={tmp / 'pts.txt'}\nscheme=naive,projection,universal\n"
                   "schedule=1,2.5,6\nl.count=3\n",
        "converge": "count=20\nscheme=naive,projection,universal\nschedule=10,21\nl.count=2\n"
                    "grid.X=10\ngrid.h=0.05\nK.samples=16\n",
        "compare-norms": "count=10\nscheme=naive\nschedule=5,11\ngrid.X=10\ngrid.h=0.05\natoms.halfwidth=3\n",
        "contours": "family=kadec_perturbed\ncount=20\nl.count=2\n",
        "factorize-check": "family=kadec_perturbed\ncount=20\nouter.X=40\nouter.h=0.05\n",
    }
    paths = []
    for sub, body in bodies.items():
        p = tmp / f"{sub}.cfg"
        p.write_text(f"subcommand={sub}\n{body}output.dir={tmp / sub}\n")
        paths.append(p)
    return paths


def test_every_public_name_is_reached_or_allow_listed(tmp_path):
    from pwsum import cli
    from pwsum.blaschke import BlaschkeEvaluator
    from pwsum.engine import PWFunction, weighted_projector_check
    from pwsum.genfun import GeneratingFunctionEvaluator
    from pwsum.grids import grid_template
    from pwsum.spectrum import make_family

    configs = _cli_configs(tmp_path)
    called = set()

    def record(frame, event, arg):
        mod = frame.f_globals.get("__name__", "")
        if event == "call" and mod.startswith("pwsum."):
            called.add((mod[len("pwsum."):], frame.f_code.co_qualname))

    sys.setprofile(record)
    try:
        codes = [cli.run(p) for p in configs]
        s = make_family("shifted_integers", {"delta": 0.3}, 10)
        weighted_projector_check(PWFunction([0.3j], [1.0]), GeneratingFunctionEvaluator(s),
                                 BlaschkeEvaluator(s), 4.0, grid_template(10.0, 0.05))
    finally:
        sys.setprofile(None)
    assert codes == [cli.EXIT_OK] * len(configs)
    surface = _public_surface()
    assert sorted(surface - called - _ALLOW_LIST) == []  # dead surface: wire it or delete it
    assert sorted(_ALLOW_LIST & called) == []  # reached now: off the allow-list
    assert sorted(_ALLOW_LIST - surface) == []  # gone or renamed
