"""Smoke test of bench/kernels.py: a tiny sweep writes the JSON schema.
No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASE_KEYS = {"kernel", "family", "params", "count", "X", "h", "nodes", "points", "repeat", "best_s", "q1_s",
             "median_s", "q3_s", "pairs_per_s"}


def test_tiny_sweep_writes_the_schema(tmp_path):
    out = tmp_path / "BENCH_kernels.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "kernels.py"), "--tiny", "--repeat", "2", "--out", str(out)],
                   check=True, timeout=60)
    report = json.loads(out.read_text())
    assert set(report) == {"machine", "cases"}
    assert {"python", "numpy", "platform", "cpu", "blas_threads"} <= set(report["machine"])
    kernels = [case["kernel"] for case in report["cases"]]
    assert kernels == ["line_log_abs", "line_arg", "line_cauchy"] * 2
    for case in report["cases"]:
        assert set(case) == CASE_KEYS
        assert case["repeat"] == 2 and case["nodes"] > 0 and case["points"] > 0
        assert 0 < case["best_s"] <= case["q1_s"] <= case["median_s"] <= case["q3_s"]
        assert case["pairs_per_s"] > 0
