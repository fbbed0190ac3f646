"""Time the line kernels in-process and write BENCH_kernels.json.

    python bench/kernels.py [--src DIR] [--out PATH] [--repeat K] [--tiny]

Times spectrum.line_log_abs, line_arg and line_cauchy (10 columns) on
fixed inputs, with one BLAS thread: shifted_integers (delta 0.3) at counts
400 and 4 000 on a dense line ([-40, 40], h 0.01) and a sparse one
([-400, 400], h 2), and clustered_pairs (delta 1, eps 0.5) at counts 600
and 6 000 on [-80, 80], h 0.01, diagnose-clustered's line at the benchmark
size and ten times it.  Each case runs once untimed, then K times; the
file holds the best, the quartiles and the (nodes x points) pairs per
second at the best, with the machine, Python and numpy versions.

--src times the pwsum of another source tree (default: this repo's src), so
two trees compare case by case; --tiny runs a few small cases, for the
smoke test.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# (family, params, count, X, h): the spectrum and the nodes line_grid(X, h)
CASES = [
    ("shifted_integers", {"delta": 0.3}, 400, 40.0, 0.01),
    ("shifted_integers", {"delta": 0.3}, 400, 400.0, 2.0),
    ("shifted_integers", {"delta": 0.3}, 4000, 40.0, 0.01),
    ("shifted_integers", {"delta": 0.3}, 4000, 400.0, 2.0),
    ("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 600, 80.0, 0.01),
    ("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 6000, 80.0, 0.01),
]
TINY = [
    ("shifted_integers", {"delta": 0.3}, 20, 10.0, 0.1),
    ("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 80, 8.0, 2.0),
]
COLUMNS = 10  # of line_cauchy's coefficient matrix


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


def time_case(kernel, repeat: int) -> list:
    """kernel() once untimed, then its wall time repeat times."""
    kernel()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def run(cases, repeat: int) -> list:
    from pwsum.grids import line_grid
    from pwsum.spectrum import line_arg, line_cauchy, line_log_abs, make_family

    rows = []
    for family, params, count, X, h in cases:
        lam = make_family(family, params, count).points
        x, _ = line_grid(X, h)
        rng = np.random.default_rng(count)
        A = rng.standard_normal((lam.size, COLUMNS)) + 1j * rng.standard_normal((lam.size, COLUMNS))
        kernels = {"line_log_abs": lambda: line_log_abs(x, 0.0, lam), "line_arg": lambda: line_arg(x, 0.0, lam),
                   "line_cauchy": lambda: line_cauchy(x, lam, A)}
        for name, kernel in kernels.items():
            times = time_case(kernel, repeat)
            q1, median, q3 = np.percentile(times, [25, 50, 75])
            rows.append({"kernel": name, "family": family, "params": params, "count": count, "X": X, "h": h,
                         "nodes": int(x.size), "points": int(lam.size), "repeat": repeat, "best_s": min(times),
                         "q1_s": q1, "median_s": median, "q3_s": q3,
                         "pairs_per_s": x.size * lam.size / min(times)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree's src, holding pwsum")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json")
    parser.add_argument("--repeat", type=int, default=7, help="timed runs per case (default 7)")
    parser.add_argument("--tiny", action="store_true", help="a few small cases, for the smoke test")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    report = {"machine": machine(), "cases": run(TINY if args.tiny else CASES, args.repeat)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
