"""List the CSVs that two source trees write differently.

    python tools/same_outputs.py OLD NEW

Runs one fixed set of configs with each tree's src/pwsum: every variant of
every benchmark workload (perfbench/workloads.config_text), the one
config per subcommand of tests/test_exports.py::_cli_configs, whose
weights run reads points in both half-planes, and the diagnose configs of
_DIAGNOSE, whose windows no benchmark variant takes: an odd number of
intervals m = round(2X/h), and an A2 scan off the real line (a2.a != 0).
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
_DIAGNOSE = {
    "diagnose-odd": "family=clustered_pairs\ncount=100\ndelta=1\neps=0.5\ndiag.X=2.55\ndiag.h=0.1\n",
    "diagnose-shifted": "family=clustered_pairs\ncount=100\ndelta=1\neps=0.5\na2.a=0.2\ndiag.X=5\ndiag.h=0.05\n",
    "diagnose-odd-shifted": "family=kadec_perturbed\ncount=100\na2.a=-0.4\ndiag.X=10.05\ndiag.h=0.1\n",
}

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
    for name, body in _DIAGNOSE.items():
        path = base / f"{name}.cfg"
        path.write_text(f"subcommand=diagnose\n{body}output.dir={base / name}\n")
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
