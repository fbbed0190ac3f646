"""Smoke test of bench/kernels.py: a tiny sweep writes the JSON schema,
alone and alternated against a second tree.  No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CASE_KEYS = {"kernel", "family", "params", "count", "X", "h", "points", "pairs", "repeat", "best_s", "q1_s",
             "median_s", "q3_s", "pairs_per_s"}
AGAINST_KEYS = {"against_best_s", "against_q1_s", "against_median_s", "against_q3_s", "wins", "against_wins"}


@pytest.mark.parametrize("against", [False, True], ids=["alone", "against"])
def test_tiny_sweep_writes_the_schema(tmp_path, against):
    out = tmp_path / "BENCH_kernels.json"
    cmd = [sys.executable, str(ROOT / "bench" / "kernels.py"), "--tiny", "--repeat", "2", "--out", str(out)]
    subprocess.run(cmd + (["--against", str(ROOT)] if against else []), check=True, timeout=60)
    report = json.loads(out.read_text())
    assert set(report) == {"machine", "cases"}
    assert {"python", "numpy", "platform", "cpu", "blas_threads"} <= set(report["machine"])
    kernels = [case["kernel"] for case in report["cases"]]
    spectrum_kernels = ["G_prime", "beta_rows", "log_abs_B_sides", "cauchy_disk", "G_disk"]
    assert kernels == ["line_log_abs", "line_cauchy", "sample_sums"] * 2 + spectrum_kernels * 2
    for case in report["cases"]:
        assert set(case) == CASE_KEYS | (AGAINST_KEYS if against else set())
        assert case["repeat"] == 2 and case["points"] > 0 and case["pairs"] > 0
        assert 0 < case["best_s"] <= case["q1_s"] <= case["median_s"] <= case["q3_s"]
        assert case["pairs_per_s"] > 0
        if against:
            assert 0 < case["against_best_s"] <= case["against_median_s"]
            assert case["wins"] + case["against_wins"] == 2
