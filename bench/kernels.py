"""Time the pair kernels in-process and write BENCH_kernels.json.

    python bench/kernels.py [--src DIR] [--against DIR] [--out PATH] [--repeat K] [--tiny]

Times, with one BLAS thread, on fixed inputs:
- the line kernels spectrum.line_log_abs and line_cauchy (10 columns),
  and G on the grid: engine.sample_sums (10 columns, tail included), whose
  one walk gives G and the partial sums: shifted_integers (delta 0.3) at
  counts 400 and 4 000 on a dense line ([-40, 40], h 0.01, converge-lattice's
  grid) and a sparse one ([-400, 400], h 2), and clustered_pairs (delta 1,
  eps 0.5) at counts 600 and 6 000 on [-80, 80], h 0.01, diagnose-clustered's
  line at the benchmark size and ten times it;
- the spectrum's own kernels: G' at every node (a new evaluator per call,
  which keeps the array), the beta rows of projection_weights at the radii
  count (1/8, 1/4, 1/2, 3/4) and count + 1 (converge-lattice's schedule at
  count 400), and log_abs_B on select_c's side samples (16 apex slopes,
  512 samples per side, at l = count/4), on shifted_integers at counts 400
  and 4 000 and clustered_pairs at count 600, and on shifted_integers'
  window at count 400 with the heights 0.3 and 0.5 in turn (params
  "heights"), a tailless Spectrum whose kernels take a height per zero;
- on the same spectrum cases, the disk K of engine.compactwise_errors:
  spectrum.cauchy_sums (10 columns) and G (log_G, tail included) at its
  256 sunflower samples (engine.disk_samples, centre 0, radius 3).
Each case runs once untimed, then K times; the file holds the best, the
quartiles and the pairs (evaluation points x spectrum points) per second at
the best, with the machine, Python and numpy versions.

--src times the pwsum of another source tree (default: this repo's src).
--against DIR loads the pwsum of DIR's src beside it, in the same process,
and alternates the two case by case and run by run (the order flips every
run); each case then also holds the other tree's best and quartiles and
the count of runs each tree won, so a host that drifts in speed moves both
sides alike.  --tiny runs a few small cases, for the smoke test.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

SHIFTED, CLUSTERED = ("shifted_integers", {"delta": 0.3}), ("clustered_pairs", {"delta": 1.0, "eps": 0.5})
TWO_HEIGHTS = ("shifted_integers", {"delta": 0.3, "heights": [0.3, 0.5]})
# line cases (family, params, count, X, h): the spectrum and the nodes line_grid(X, h)
CASES = [
    (*SHIFTED, 400, 40.0, 0.01),
    (*SHIFTED, 400, 400.0, 2.0),
    (*SHIFTED, 4000, 40.0, 0.01),
    (*SHIFTED, 4000, 400.0, 2.0),
    (*CLUSTERED, 600, 80.0, 0.01),
    (*CLUSTERED, 6000, 80.0, 0.01),
]
# spectrum cases (family, params, count): G', the beta rows and log|B| on contour sides
SPECTRUM_CASES = [(*SHIFTED, 400), (*SHIFTED, 4000), (*CLUSTERED, 600), (*TWO_HEIGHTS, 400)]
TINY = [(*SHIFTED, 20, 10.0, 0.1), (*CLUSTERED, 80, 8.0, 2.0)]
TINY_SPECTRUM = [(*SHIFTED, 20), (*TWO_HEIGHTS, 20)]
COLUMNS = 10  # of line_cauchy's, sample_sums' and cauchy_sums' coefficient matrices
RADII = (0.125, 0.25, 0.5, 0.75)  # beta rows at these fractions of count, and at count + 1
SLOPES, SIDE_SAMPLES = 16, 512  # select_c's defaults
DISK = (0j, 3.0, 256)  # compactwise_errors' defaults: centre, radius, samples


def machine() -> dict:
    """The machine, Python and numpy the numbers come from."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": model or platform.processor(),
            "cpu_count": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": 1}


def load(src: Path) -> SimpleNamespace:
    """The pwsum modules of the tree src, imported as a set of their own: two
    trees loaded one after the other live side by side, each function bound
    to its own tree's modules."""
    for name in [m for m in sys.modules if m == "pwsum" or m.startswith("pwsum.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src.resolve()))
    try:
        return SimpleNamespace(**{m: importlib.import_module(f"pwsum.{m}")
                                  for m in ("grids", "spectrum", "genfun", "blaschke", "contours", "weights",
                                            "engine")})
    finally:
        sys.path.pop(0)


def coefficients(n: int, seed: int) -> np.ndarray:
    """A seeded (n, COLUMNS) complex coefficient matrix."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, COLUMNS)) + 1j * rng.standard_normal((n, COLUMNS))


def line_kernels(pw, family, params, count, X, h) -> tuple:
    """(points, {name: (kernel, pairs)}) of the line kernels and of G on the
    grid on one line case."""
    s = pw.spectrum.make_family(family, params, count)
    lam, gen = s.points, pw.genfun.GeneratingFunctionEvaluator(s)
    x, _ = pw.grids.line_grid(X, h)
    A = coefficients(lam.size, count)
    pairs = x.size * lam.size
    return lam.size, {"line_log_abs": (lambda: pw.spectrum.line_log_abs(x, 0.0, lam), pairs),
                      "line_cauchy": (lambda: pw.spectrum.line_cauchy(x, lam, A), pairs),
                      "sample_sums": (lambda: pw.engine.sample_sums(gen, x, A), pairs)}


def spectrum_kernels(pw, family, params, count) -> tuple:
    """(points, {name: (kernel, pairs)}) of G' at every node, the beta rows,
    log|B| on select_c's side samples, and the Cauchy sums and G on the disk
    K, on one spectrum case."""
    heights = params.get("heights")
    s = pw.spectrum.make_family(family, {k: v for k, v in params.items() if k != "heights"}, count)
    if heights is not None:  # the window's Re at the heights in turn, with no tail
        s = pw.spectrum.Spectrum(s.points.real + 1j * np.resize(heights, len(s)))
    nodes, moduli = np.arange(len(s)), np.abs(s.points)
    radii = [f * count for f in RADII] + [count + 1.0]
    inside = [int(np.count_nonzero(moduli < n)) for n in radii]
    b = pw.blaschke.BlaschkeEvaluator(s)
    l = count / 4
    zeta = np.concatenate([pw.contours.triangle_samples(l, c, SIDE_SAMPLES) for c in np.linspace(1.0, 10.0, SLOPES)])
    n = len(s)
    disk, gen = pw.engine.disk_samples(*DISK), pw.genfun.GeneratingFunctionEvaluator(s)
    A = coefficients(n, count)
    return n, {"G_prime": (lambda: pw.genfun.GeneratingFunctionEvaluator(s).eval_G_prime_at_lambda(nodes), n * (n - 1)),
               "beta_rows": (lambda: pw.weights.projection_weights(s, radii), sum(k * (n - k) for k in inside)),
               "log_abs_B_sides": (lambda: b.log_abs_B(zeta), zeta.size * n),
               "cauchy_disk": (lambda: pw.spectrum.cauchy_sums(disk, s.points, A), disk.size * n),
               "G_disk": (lambda: gen.log_G(disk), disk.size * n)}


def time_runs(kernels: list, repeat: int) -> list:
    """Each kernel once untimed, then repeat rounds of one timed run of each,
    the order flipped every round; the wall times, one list per kernel."""
    for kernel in kernels:
        kernel()
    times = [[] for _ in kernels]
    for r in range(repeat):
        order = range(len(kernels)) if r % 2 == 0 else reversed(range(len(kernels)))
        for i in order:
            start = time.perf_counter()
            kernels[i]()
            times[i].append(time.perf_counter() - start)
    return times


def summary(times: list, prefix: str = "") -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {f"{prefix}best_s": min(times), f"{prefix}q1_s": q1, f"{prefix}median_s": median, f"{prefix}q3_s": q3}


def run(trees: list, line_cases, spectrum_cases, repeat: int) -> list:
    """One row per case and kernel: the first tree's times, and with a
    second tree its times and the runs each won."""
    rows = []
    cases = [(line_kernels, case, {"X": case[3], "h": case[4]}) for case in line_cases]
    cases += [(spectrum_kernels, case, {"X": None, "h": None}) for case in spectrum_cases]
    for make, case, line in cases:
        family, params, count = case[:3]
        made = [make(pw, *case) for pw in trees]
        points = made[0][0]
        for name, (_, pairs) in made[0][1].items():
            times = time_runs([kernels[name][0] for _, kernels in made], repeat)
            row = {"kernel": name, "family": family, "params": params, "count": count, **line, "points": points,
                   "pairs": pairs, "repeat": repeat, **summary(times[0]), "pairs_per_s": pairs / min(times[0])}
            if len(trees) == 2:
                wins = int(np.count_nonzero(np.less(times[0], times[1])))
                row.update(summary(times[1], "against_"), wins=wins, against_wins=repeat - wins)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree's src, holding pwsum")
    parser.add_argument("--against", type=Path, help="a second source tree (holding src/pwsum), alternated")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json")
    parser.add_argument("--repeat", type=int, default=7, help="timed runs per case (default 7)")
    parser.add_argument("--tiny", action="store_true", help="a few small cases, for the smoke test")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    trees = [load(args.src)] + ([load(args.against / "src")] if args.against else [])
    cases = (TINY, TINY_SPECTRUM) if args.tiny else (CASES, SPECTRUM_CASES)
    report = {"machine": machine(), "cases": run(trees, *cases, args.repeat)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
