"""Output-correctness gate for the benchmark's CLI runs.

Two parts, both applied to every job:

* reference values: every cell of the workload's CSV is compared with the
  checked-in reference for the seed's variant (reference.json, written by
  make_reference.py at the commit that added the benchmark).  Text cells
  must match exactly, numbers within |a - r| <= ATOL + RTOL * |r|.  RTOL
  leaves room for the ~1e-11 relative changes a reformulated tail or
  log-modulus kernel brings, and catches any change at the 1e-6 level;
  ATOL covers cells that are themselves small differences (a near-zero
  factorization mismatch) or underflowed weights, all of which are bounded
  by 1 in modulus.
* invariants that hold for every seed: every number finite, every weight
  |w| <= 1, a2_lower_bound >= 1, carleson_sup > 0, and the factorization
  mismatch below MISMATCH_BOUND.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9
WEIGHT_SLACK = 1e-12
# |G| against |omega B e^{-+i pi z}| at sample heights up to 2 on a boundary
# grid of half-width 150: measured up to ~6e-2 on the drawn parameter ranges.
MISMATCH_BOUND = 0.1

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def read_table(path) -> list[list]:
    """CSV rows (header dropped) with numeric cells as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    out = []
    for row in rows:
        cells = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        out.append(cells)
    return out


def load_reference(workload: str, variant: int) -> list[list]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[workload][str(variant)]


def _close(a: float, r: float) -> bool:
    return abs(a - r) <= ATOL + RTOL * abs(r)


def compare(rows: list[list], ref: list[list]) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    for i, (row, rrow) in enumerate(zip(rows, ref)):
        if len(row) != len(rrow):
            return [f"row {i}: {len(row)} cells, reference has {len(rrow)}"]
        for j, (a, r) in enumerate(zip(row, rrow)):
            if isinstance(r, str) or isinstance(a, str):
                ok = a == r
            else:
                ok = _close(a, r)
            if not ok:
                return [f"row {i} cell {j}: {a!r} outside tolerance of reference {r!r}"]
    return []


def invariants(workload: str, rows: list[list]) -> list[str]:
    bad = []
    for i, row in enumerate(rows):
        if any(isinstance(c, float) and not math.isfinite(c) for c in row):
            bad.append(f"row {i}: non-finite value")
    if workload == "contours-kadec":
        for i, row in enumerate(rows):
            if math.hypot(row[4], row[5]) > 1.0 + WEIGHT_SLACK:
                bad.append(f"row {i}: weight modulus above 1")
    elif workload in ("diagnose-clustered", "factorize-line"):
        values = {row[0]: row[2] for row in rows}
        if workload == "diagnose-clustered":
            if not values.get("a2_lower_bound", 0.0) >= 1.0:
                bad.append("a2_lower_bound below 1")
            if not values.get("carleson_sup", 0.0) > 0.0:
                bad.append("carleson_sup not positive")
        elif not values.get("factorization_max_rel_mismatch", math.inf) < MISMATCH_BOUND:
            bad.append(f"factorization mismatch not below {MISMATCH_BOUND}")
    return bad


def check_csv(workload: str, path, ref: list[list]) -> list[str]:
    """Failure messages for one CLI output file; empty when it passes."""
    if not Path(path).is_file():
        return [f"missing output {Path(path).name}"]
    try:
        rows = read_table(path)
    except (OSError, csv.Error) as e:
        return [f"unreadable output: {e}"]
    try:
        broken = invariants(workload, rows)
    except (IndexError, TypeError):
        broken = ["malformed rows"]
    return broken + compare(rows, ref)


def perturbed_copy_is_caught(workload: str, path, ref: list[list], scratch) -> bool:
    """Self-check of the gate: scale the largest number of a passing CSV by
    1 + 1e-4 and confirm that the copy fails."""
    lines = Path(path).read_text().splitlines(keepends=True)
    best = None
    for i, line in enumerate(lines[1:], 1):
        for j, cell in enumerate(line.rstrip("\n").split(",")):
            try:
                v = float(cell)
            except ValueError:
                continue
            if best is None or abs(v) > abs(best[2]):
                best = (i, j, v)
    i, j, v = best
    cells = lines[i].rstrip("\n").split(",")
    cells[j] = f"{v * (1 + 1e-4):.12e}"
    lines[i] = ",".join(cells) + "\n"
    Path(scratch).write_text("".join(lines))
    return bool(check_csv(workload, scratch, ref))
