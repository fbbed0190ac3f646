"""List the CSVs that two source trees write differently.

    python tools/same_outputs.py OLD NEW

Runs one fixed set of configs with each tree's src/pwsum: every variant of
every benchmark workload (perfbench/workloads.config_text), the one
config per subcommand of tests/test_exports.py::_cli_configs, whose
weights run reads points in both half-planes, and the configs of _EXTRA,
which no benchmark variant takes: diagnose windows with an odd number of
intervals m = round(2X/h) or an A2 scan off the real line (a2.a != 0);
diagnose on shifted_integers and kadec_perturbed, where the Carleson
search sums every row (eps 0.02) or a few (eps 0.15), and on
clustered_pairs at count 3 000, where it leaves out all but a few of
12 001 rows; diagnose on a sparse line (diag.X 400 at diag.h 2, a node or
two per leaf of the line kernels' panel tree) and converge on
shifted_integers at count 2 000 (a tree several levels deeper than the
benchmark's); and contours and universal weights on all three lattice
families, at c.grid 17 and 64 and at side.samples 2, 3 and 1000 (the
apex-slope search's candidate and sample counts).
The configs come from this tool's own tree, so both sides run the same
text.  Each tree runs them all in one subprocess, cli.run on each config
in turn, with one BLAS thread.
Prints each config whose exit code differs and each CSV that differs byte
for byte or that one tree wrote and the other did not; for a CSV both trees
wrote, the number of numeric cells that moved and the largest relative
change among them, |new - old| / max(|new|, |old|).  Exits 1 if anything
differs, 0 if every output is the same.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "src")]

from test_exports import _cli_configs  # noqa: E402
from workloads import VARIANTS, WORKLOADS, config_text  # noqa: E402

# name -> config body: m = 51 and m = 201 intervals are odd, so the [-X, X]
# nodes are not nodes of [-2X, 2X]
_EXTRA = {
    "diagnose-odd": "subcommand=diagnose\nfamily=clustered_pairs\ncount=100\ndelta=1\neps=0.5\ndiag.X=2.55\n"
                    "diag.h=0.1\n",
    "diagnose-shifted": "subcommand=diagnose\nfamily=clustered_pairs\ncount=100\ndelta=1\neps=0.5\na2.a=0.2\n"
                        "diag.X=5\ndiag.h=0.05\n",
    "diagnose-odd-shifted": "subcommand=diagnose\nfamily=kadec_perturbed\ncount=100\na2.a=-0.4\ndiag.X=10.05\n"
                            "diag.h=0.1\n",
    # the Carleson search: every row summed (shifted, kadec-flat), a few (kadec), a few of 12 001 (clustered-3000)
    "carleson-shifted": "subcommand=diagnose\nfamily=shifted_integers\ncount=100\ndelta=0.35\ndiag.X=10\ndiag.h=0.05\n",
    "carleson-kadec-flat": "subcommand=diagnose\nfamily=kadec_perturbed\ncount=100\ndelta=0.25\neps=0.02\ndiag.X=10\n"
                           "diag.h=0.05\n",
    "carleson-kadec": "subcommand=diagnose\nfamily=kadec_perturbed\ncount=100\ndelta=0.25\neps=0.15\ndiag.X=10\n"
                      "diag.h=0.05\n",
    "carleson-clustered-3000": "subcommand=diagnose\nfamily=clustered_pairs\ncount=3000\ndelta=1\neps=0.5\ndiag.X=20\n"
                               "diag.h=0.05\n",
    # the line kernels' panel tree: a sparse line, and a spectrum of 4 001 points
    "diagnose-sparse": "subcommand=diagnose\nfamily=clustered_pairs\ncount=600\ndelta=1\neps=0.5\ndiag.X=400\n"
                       "diag.h=2\n",
    "converge-shifted-2000": "subcommand=converge\nfamily=shifted_integers\ncount=2000\ndelta=0.3\n",
}
# contours and universal weights: the apex-slope search at the default
# candidates and samples, and at c.grid 17 and 64 and side.samples 2, 3 and
# 1000, on each lattice family
_FAMILY_KEYS = {
    "shifted": "family=shifted_integers\ncount=60\ndelta=0.35\n",
    "clustered": "family=clustered_pairs\ncount=40\ndelta=1\neps=0.5\n",
    "kadec": "family=kadec_perturbed\ncount=60\ndelta=0.25\neps=0.15\n",
}
_SEARCH_KEYS = {"": "", "-grid17": "c.grid=17\n", "-grid64": "c.grid=64\n", "-side2": "side.samples=2\n",
                "-side3": "side.samples=3\n", "-side1000": "side.samples=1000\n"}
_EXTRA.update({f"{sub}-{family}{suffix}": f"subcommand={sub}\n{scheme}{keys}{search}"
               for sub, scheme in (("contours", ""), ("weights", "scheme=universal\n"))
               for family, keys in _FAMILY_KEYS.items() for suffix, search in _SEARCH_KEYS.items()})

_RUN = "import sys\nfrom pwsum import cli\nfor path in sys.argv[1:]:\n    print(cli.run(path), flush=True)\n"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def write_configs(base: Path) -> list[Path]:
    """Every config, written under base, each with its output.dir under base."""
    paths = []
    for name in WORKLOADS:
        for variant in range(VARIANTS):
            path = base / f"{name}-{variant}.cfg"
            path.write_text(config_text(name, variant, str(base / f"{name}-{variant}")))
            paths.append(path)
    for name, body in _EXTRA.items():
        path = base / f"{name}.cfg"
        path.write_text(f"{body}output.dir={base / name}\n")
        paths.append(path)
    (base / "cli").mkdir()
    return paths + _cli_configs(base / "cli")


def run_tree(tree: Path, base: Path) -> dict:
    """{config, relative to base: exit code} of every config run on tree."""
    base.mkdir()
    paths = write_configs(base)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **{var: "1" for var in _THREAD_VARS}}
    proc = subprocess.run([sys.executable, "-c", _RUN, *map(str, paths)], env=env, cwd=base,
                          stdout=subprocess.PIPE, text=True, check=True)
    return dict(zip((p.relative_to(base) for p in paths), map(int, proc.stdout.split())))


def cell_moves(old: bytes, new: bytes) -> str:
    """How two CSVs differ: the count of numeric cells that moved and the
    largest relative change among them, plus the count of text cells that
    changed; or that the tables differ in shape."""
    a, b = ([line.split(",") for line in text.decode().splitlines()] for text in (old, new))
    if [len(row) for row in a] != [len(row) for row in b]:
        return "the tables differ in shape"
    moved, text, worst = 0, 0, 0.0
    for u, v in zip((c for row in a for c in row), (c for row in b for c in row)):
        if u == v:
            continue
        try:
            x, y = float(u), float(v)
        except ValueError:
            text += 1
            continue
        moved += 1
        if x != y:
            worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
    out = f"{moved} numeric cells moved, largest relative change {worst:.1e}"
    return out + (f", {text} text cells changed" if text else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree with src/pwsum")
    parser.add_argument("new", type=Path, help="source tree with src/pwsum")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        bases = (Path(tmp, "old"), Path(tmp, "new"))
        old_codes, new_codes = (run_tree(tree.resolve(), base) for tree, base in zip((args.old, args.new), bases))
        old_csv, new_csv = ({p.relative_to(base): p.read_bytes() for p in base.rglob("*.csv")} for base in bases)
    differ = [f"exit code {cfg}: {code} -> {new_codes[cfg]}" for cfg, code in old_codes.items()
              if code != new_codes[cfg]]
    for name in sorted(old_csv.keys() | new_csv.keys()):
        old, new = old_csv.get(name), new_csv.get(name)
        if old != new:
            how = f"only in {'new' if old is None else 'old'}" if None in (old, new) else cell_moves(old, new)
            differ.append(f"differs: {name} ({how})")
    print("\n".join(differ) if differ else
          f"same: {len(old_csv)} CSVs from {len(old_codes)} configs ({sum(c != 0 for c in old_codes.values())} "
          "exit non-zero on both sides)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
