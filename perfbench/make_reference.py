"""Regenerate reference.json, the per-variant reference outputs of check.py.

    python3 perfbench/make_reference.py

Runs every variant of every workload once through the CLI (PYTHONPATH=src,
one BLAS thread) and stores each CSV cell: numbers rounded to 10 significant
digits, and those below 1e-12 in modulus (underflowed weights) as 0, which
the gate's absolute tolerance makes equivalent.  Run it only at a commit whose outputs are trusted.  Every variant
must exit 0 and pass the invariants, so this also checks that the drawn
parameter ranges keep each workload feasible.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def _stored(cell):
    if isinstance(cell, str):
        return cell
    return float(f"{cell:.10g}") if abs(cell) >= 1e-12 else 0.0


def main() -> int:
    env = run.child_env()
    refs, bad = {}, 0
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload, (_, csv_name) in workloads.WORKLOADS.items():
            refs[workload] = {}
            for variant in range(workloads.VARIANTS):
                out = Path(tmp) / f"{workload}-{variant}"
                cfg = Path(tmp) / f"{workload}-{variant}.cfg"
                cfg.write_text(workloads.config_text(workload, variant, str(out)))
                proc = subprocess.run([sys.executable, "-m", "pwsum.cli", str(cfg)], env=env,
                                      capture_output=True, text=True)
                rows = check.read_table(out / csv_name) if proc.returncode == 0 else []
                problems = check.invariants(workload, rows) if rows else [proc.stderr.strip()]
                if problems:
                    bad += 1
                    print(f"{workload} variant {variant}: {problems}", file=sys.stderr)
                refs[workload][str(variant)] = [[_stored(c) for c in row] for row in rows]
                print(f"{workload} variant {variant}: {len(rows)} rows", flush=True)
    if bad:
        return 1
    check.REFERENCE_FILE.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
