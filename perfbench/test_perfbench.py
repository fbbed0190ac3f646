"""Self-tests of the benchmark's own arithmetic and gate.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def span(sid, name, parent, start, end, count=None, key=None):
    return [sid, name, parent, start, end, count, key]


def test_self_times_on_a_synthetic_tree():
    spans = [
        span(0, "cli.run", None, 0.0, 10.0),
        span(1, "genfun.GeneratingFunctionEvaluator.eval_G_on_grid", 0, 1.0, 4.0),
        span(2, "grids.grid_template", 1, 2.0, 3.0),
        span(3, "weights.save_weights_csv", 0, 5.0, 9.0),
        span(4, "weights.UniversalWeights.weight_row", 3, 5.5, 6.5, count=3),
        span(5, "weights.UniversalWeights.weight_row", 3, 7.0, 8.5, count=4),
        span(6, "cli.parse_config", None, -1.0, -0.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0, 5: 1.5, 6: 0.5})
    # self times partition the root spans' wall time
    assert sum(selfs.values()) == pytest.approx(10.5)
    m = tracing.layer_metrics(spans)
    assert m["cli.unattributed_s"] == pytest.approx(3.0)
    assert m["genfun.G_grid_s"] == pytest.approx(2.0)
    assert m["grids.self_s"] == pytest.approx(1.0)
    assert m["weights.csv_s"] == pytest.approx(1.5)
    assert m["weights.universal_row_s"] == pytest.approx(2.5)
    assert m["weights.row_entries"] == 7
    assert m["cli.parse_s"] == pytest.approx(0.5)
    assert m["diagnostics.carleson_s"] == 0
    assert m["trace.spans"] == 7


def test_overlapping_children_are_counted_once():
    spans = [
        span(0, "a", None, 0.0, 4.0),
        span(1, "b", 0, 1.0, 3.0),
        span(2, "c", 0, 2.0, 5.0),  # overlaps b and runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_distinct_counts_use_the_call_keys():
    name = "genfun.GeneratingFunctionEvaluator.eval_G_prime_at_lambda"
    spans = [span(i, name, None, i, i + 0.5, key=f"g:{i % 3}") for i in range(9)]
    m = tracing.layer_metrics(spans)
    assert m["genfun.G_prime_calls"] == 9
    assert m["genfun.G_prime_distinct"] == 3


def test_each_job_is_scaled_by_the_probes_on_either_side():
    ref = run.PROBE_REF_S
    # the host runs at the reference speed, then at half of it
    assert run.speeds([ref, ref, 2 * ref, 2 * ref]) == pytest.approx([1.0, 2 / 3, 0.5])
    job = {"job_s": 3.0, "setup_s": 1.0, "cpu_s": 4.0, "peak_rss_mb": 100.0, "speed": 0.5, "traced": False}
    scaled, _ = run.metric_samples([job], trace=False)
    assert scaled == {"setup_s": [0.5], "job_s": [1.5], "cpu_s": [2.0], "peak_rss_mb": [100.0]}
    assert run.metric_samples([job], trace=False, scaled=False)[0]["job_s"] == [3.0]


REPORT = """condition,window_X,value,trend_ratio
a2_lower_bound,4.000000000000e+01,2.970387683546e+01,2.428372853462e+00
carleson_sup,6.000010000000e+02,1.600002632452e+07,1.000000000000e+00
"""


def test_gate_passes_reference_and_catches_perturbation(tmp_path):
    good = tmp_path / "report.csv"
    good.write_text(REPORT)
    ref = check.read_table(good)
    assert check.check_csv("diagnose-clustered", good, ref) == []
    assert check.perturbed_copy_is_caught("diagnose-clustered", good, ref, tmp_path / "p.csv")
    # a change at the 1e-11 level passes
    tiny = tmp_path / "tiny.csv"
    tiny.write_text(REPORT.replace("2.970387683546e+01", "2.970387683579e+01"))
    assert check.check_csv("diagnose-clustered", tiny, ref) == []


def test_gate_invariants(tmp_path):
    bad = tmp_path / "report.csv"
    bad.write_text(REPORT.replace("2.970387683546e+01", "9.0e-01").replace("1.600002632452e+07", "nan"))
    reasons = check.invariants("diagnose-clustered", check.read_table(bad))
    assert any("non-finite" in r for r in reasons)
    assert "a2_lower_bound below 1" in reasons
    w = tmp_path / "weights.csv"
    w.write_text("n,k,lambda_re,lambda_im,w_re,w_im\n1.0,0,0.2,0.3,0.8,0.7\n")
    assert check.invariants("contours-kadec", check.read_table(w)) == ["row 0: weight modulus above 1"]
    w.write_text("n,k,lambda_re,lambda_im,w_re,w_im\n1.0,0,0.2\n")
    assert "malformed rows" in check.check_csv("contours-kadec", w, [[1.0, 0.0, 0.2, 0.3, 0.8, 0.1]])


def sizes(config: str) -> list[str]:
    keys = ("subcommand", "family", "count", "scheme", "schedule", "grid.X", "outer.X", "diag.X")
    return [ln for ln in config.splitlines() if ln.split("=")[0] in keys]


def test_configs_depend_only_on_the_seed_variant():
    for name in workloads.WORKLOADS:
        a = workloads.config_text(name, workloads.variant_of(3), "out")
        assert a == workloads.config_text(name, workloads.variant_of(3 + workloads.VARIANTS), "out")
        assert a != workloads.config_text(name, workloads.variant_of(4), "out")
        # the keys that set the amount of work are the same for every seed
        assert sizes(a) == sizes(workloads.config_text(name, 5, "out"))


def test_traced_job_sees_names_imported_across_modules(tmp_path):
    # cli calls build_schedule through its own imported name: the span exists
    # only if the tracer rebound that attribute
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"subcommand=weights\nfamily=kadec_perturbed\ncount=10\nscheme=universal\n"
                   f"output.dir={tmp_path / 'out'}\n")
    marks = tmp_path / "marks.json"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "cliproc.py"), str(cfg), str(marks), "--trace"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(marks.read_text())
    assert m["parsed"] < m["done"]
    names = {s[tracing.NAME] for s in m["spans"]}
    assert {"cli.parse_config", "contours.build_schedule", "blaschke.BlaschkeEvaluator.eval_B",
            "weights.save_weights_csv", "weights.UniversalWeights.weight_row"} <= names
    metrics = tracing.layer_metrics(m["spans"])
    assert metrics["contours.schedule_s"] > 0 and metrics["blaschke.eval_B_pairs"] > 0
    roots = [s for s in m["spans"] if s[tracing.PARENT] is None]
    assert [s[tracing.NAME] for s in roots] == ["cli.main"]
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_total == pytest.approx(roots[0][tracing.END] - roots[0][tracing.START])
