"""Benchmark of the pwsum batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: each job is a fresh `pwsum` CLI process on the
seed's generated config, and the next job starts only after the previous
one has exited.  Jobs start until S seconds are used up (the last one is
skipped when less than half a job's time is left) and at least MIN_JOBS of
each kind have run.  Child processes get PYTHONPATH=src and one BLAS/OpenMP
thread.

Host speed: the machine's cores are shared with other tenants and its
speed drifts by up to ~1.7x over minutes, which no run length averages out.
So the run pins itself and its jobs to one CPU, times a fixed probe
(probe_s) on that CPU before the first job and after every job, and scales
each time a job reports by PROBE_REF_S / (mean of the probes on either side
of it): the time the job takes on a core at the probe's reference speed.
The unscaled medians stay in the report.

Every job is checked (check.py): exit code 0, no traceback, CSV within the
reference tolerance and the invariants, and byte-identical to the run's
first passing CSV.  `attempted` and `failed` count jobs; their ratio is the
error rate.

--trace 0 reports the end-to-end metrics, medians over the jobs (times
scaled to the reference speed): setup_s
(process start until pwsum.cli is imported and the config parsed), job_s
(parsed config until the CLI returns, its last CSV closed), cpu_s (user +
system time of the job process) and peak_rss_mb (its peak resident memory).
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of tracing.py, medians over the traced jobs, and the tracing
overhead: the median traced job_s minus the median untraced one.

CLI outputs go to a temporary directory under .perfbench-runs/, removed at
the end; the run's report (context, median and quartiles of each metric,
failures) and, with --trace 1, its spans stay there.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"
MIN_JOBS = 3  # jobs of each kind a run needs, whatever --seconds says
# a run ends within 180 s: no job starts after MAX_RUN_S, and a job still
# running at KILL_AFTER_S is killed (and counts as failed)
MAX_RUN_S = 120
KILL_AFTER_S = 165

E2E_UNITS = {"setup_s": "s", "job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# about the median of probe_s() on the 2-vCPU Xeon VM of the baseline in
# README.md (0.10-0.19 s there); it only sets the unit of the scaled times
PROBE_REF_S = 0.125
_PROBE_Z = np.arange(1300) * 0.01 - 6.5 + 0.5j
_PROBE_B = np.arange(1, 257) * 0.5 + 0.25
_PROBE_CODE = marshal.dumps(compile("".join(
    f"def f{i}(x, y={i}):\n    return [x * y + {i}.5 for _ in range(3)]\n" for i in range(400)
), "<probe>", "exec"))


def probe_s() -> float:
    """Seconds for a fixed mix of the work a job does: an interpreter loop,
    numpy complex arithmetic, and unmarshalling code (what an import does)."""
    start = time.perf_counter()
    acc = 0
    for i in range(750_000):
        acc += i * i
    np.log(1.0 + _PROBE_Z[:, None] / _PROBE_B[None, :]).sum()
    for _ in range(100):
        marshal.loads(_PROBE_CODE)
    return time.perf_counter() - start


def speeds(probes: list[float]) -> list[float]:
    """Per job, PROBE_REF_S over the mean of the probes before and after it."""
    return [2.0 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]


def pin_to_one_cpu() -> int:
    """Pins this process, and so every job it starts, to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def run_job(env: dict, jobdir: Path, config: str, traced: bool, kill_at: float) -> dict:
    """One CLI process; returns its timings, exit code and stderr."""
    jobdir.mkdir()
    cfg_path = jobdir / "job.cfg"
    cfg_path.write_text(config)
    marks_path = jobdir / "marks.json"
    cmd = [sys.executable, str(HERE / "cliproc.py"), str(cfg_path), str(marks_path)]
    if traced:
        cmd.append("--trace")
    with open(jobdir / "stderr.txt", "w+") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=jobdir, stdout=subprocess.DEVNULL, stderr=err)
        # poll instead of blocking so a hung job can be killed; wait4 gives
        # the rusage of this process alone
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.perf_counter() > kill_at:
                proc.kill()
                killed = True
            time.sleep(0.01)
        wall = time.perf_counter() - launched
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    job = {
        "traced": traced,
        "exit": proc.returncode,
        "stderr": stderr,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    try:
        marks = json.loads(marks_path.read_text())
        job["setup_s"] = marks["parsed"] - launched
        job["job_s"] = marks["done"] - marks["parsed"]
        job["spans"] = marks.get("spans")
    except (OSError, ValueError, KeyError):
        job["setup_s"] = job["job_s"] = None
    return job


def failures_of(job: dict, workload: str, csv_path: Path, ref, first_csv: bytes | None) -> list[str]:
    bad = []
    if job["exit"] != 0:
        bad.append(f"exit code {job['exit']}")
    if "Traceback" in job["stderr"]:
        bad.append("traceback on stderr")
    if job["job_s"] is None:
        bad.append("no time marks")
    bad += check.check_csv(workload, csv_path, ref)
    if first_csv is not None and csv_path.is_file() and csv_path.read_bytes() != first_csv:
        bad.append("CSV differs from the run's first passing job on the same config")
    return bad


def measure(workload: str, seed: int, ref, seconds: float, trace: bool, work: Path) -> tuple[list, list, list]:
    """Run jobs until the time is up; returns (jobs, failures, probe times)."""
    variant = workloads.variant_of(seed)
    csv_name = workloads.WORKLOADS[workload][1]
    env = child_env()
    jobs, failures = [], []
    first_csv = None
    start = time.perf_counter()
    probes = [probe_s()]
    i = 0
    while True:
        traced = trace and i % 2 == 1
        jobdir = work / f"job{i}"
        outdir = jobdir / "out"
        config = workloads.config_text(workload, variant, str(outdir))
        job = run_job(env, jobdir, config, traced, start + KILL_AFTER_S)
        probes.append(probe_s())
        job["run_id"] = f"{workload}-seed{seed}-job{i}"
        csv_path = outdir / csv_name
        bad = failures_of(job, workload, csv_path, ref, first_csv)
        if first_csv is None and not bad:
            first_csv = csv_path.read_bytes()
            if not check.perturbed_copy_is_caught(workload, csv_path, ref, work / "perturbed.csv"):
                bad.append("correctness gate passed a perturbed CSV")
        if bad:
            failures.append({"job": i, "reasons": bad, "stderr": job["stderr"][-2000:]})
        shutil.rmtree(jobdir)
        jobs.append(job)
        i += 1
        kinds = (False, True) if trace else (False,)
        enough = all(sum(j["traced"] == k for j in jobs) >= MIN_JOBS for k in kinds)
        elapsed = time.perf_counter() - start
        if (enough and elapsed + 0.5 * job["wall_s"] >= seconds) or elapsed >= MAX_RUN_S:
            for job, speed in zip(jobs, speeds(probes)):
                job["speed"] = speed
            return jobs, failures, probes


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_context(args, n_jobs: int, cpu: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "variant": workloads.variant_of(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one CLI process at a time",
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "probe_ref_s": PROBE_REF_S,
        "threads": {var: THREADS for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "jobs": n_jobs,
    }


def metric_samples(jobs: list, trace: bool, scaled: bool = True) -> tuple[dict, dict]:
    """(samples per metric, unit per metric) over the jobs that left time marks;
    times are scaled to the reference speed unless `scaled` is false."""
    timed = [j for j in jobs if j["job_s"] is not None]

    def at_ref(job, metric, value):
        return value * job["speed"] if scaled and metric.endswith("_s") else value

    if not trace:
        return {m: [at_ref(j, m, j[m]) for j in timed] for m in E2E_UNITS}, dict(E2E_UNITS)
    traced = [j for j in timed if j["traced"] and j["spans"]]
    per_job = [{m: at_ref(j, m, v) for m, v in tracing.layer_metrics(j["spans"]).items()}
               for j in traced]
    samples = {m: [pj[m] for pj in per_job] for m in per_job[0]} if per_job else {}
    plain = [at_ref(j, "job_s", j["job_s"]) for j in timed if not j["traced"]]
    with_spans = [at_ref(j, "job_s", j["job_s"]) for j in traced]
    if plain and with_spans:
        # one sample: the difference of the two medians
        samples["trace.overhead_s"] = [statistics.median(with_spans) - statistics.median(plain)]
    units = {m: tracing.unit_of(m) for m in samples}
    return samples, units


def write_spans(path: Path, jobs: list) -> None:
    with open(path, "w") as fh:
        for job in jobs:
            for s in job.get("spans") or ():
                fh.write(json.dumps({
                    "run": job["run_id"], "id": s[tracing.ID], "name": s[tracing.NAME],
                    "parent": s[tracing.PARENT], "start": s[tracing.START],
                    "end": s[tracing.END], "count": s[tracing.COUNT],
                }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pwsum" / "cli.py").is_file():
        print(f"perfbench: no pwsum sources at {ROOT / 'src' / 'pwsum'}", file=sys.stderr)
        return 2
    try:
        ref = check.load_reference(args.workload, workloads.variant_of(args.seed))
    except (OSError, KeyError, ValueError) as e:
        print(f"perfbench: no reference outputs: {e!r}", file=sys.stderr)
        return 2

    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "pwsum")],
                   stdout=subprocess.DEVNULL, check=False)
    RUNS.mkdir(exist_ok=True)
    cpu = pin_to_one_cpu()
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        jobs, failures, probes = measure(args.workload, args.seed, ref, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples, units = metric_samples(jobs, bool(args.trace))
    unscaled, _ = metric_samples(jobs, bool(args.trace), scaled=False)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "context": run_context(args, len(jobs), cpu),
        "attempted": len(jobs),
        "failed": len(failures),
        "error_rate": len(failures) / len(jobs),
        "failures": failures,
        "metrics": {m: {**summarize(v), "unit": units[m]} for m, v in samples.items() if v},
        "unscaled": {m: {**summarize(v), "unit": units[m]} for m, v in unscaled.items()
                     if v and units[m] == "s"},
        "probe_s": summarize(probes),
    }
    if args.trace:
        write_spans(stem.with_name(stem.name + "-spans.jsonl"), jobs)
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))

    ctx = report["context"]
    print(f"perfbench {args.workload} seed={args.seed} (variant {ctx['variant']}): "
          f"{len(jobs)} jobs, {ctx['load']}")
    print(f"  nproc={ctx['nproc']} pinned to cpu {cpu} threads={THREADS} ({', '.join(THREAD_VARS)}) "
          f"python={ctx['python']} numpy={ctx['numpy']} scipy={ctx['scipy']} commit={ctx['commit']}")
    for m, s in report["metrics"].items():
        print(f"  {m:28s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n={s['n']}")
    print(f"  times scaled to the reference speed: probe median {report['probe_s']['median']:.6g} s, "
          f"reference {PROBE_REF_S} s")
    for m, s in report["unscaled"].items():
        if m in E2E_UNITS:
            print(f"  {m + ' (unscaled)':28s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n={s['n']}")
    print(f"  error_rate {len(failures)}/{len(jobs)} = {report['error_rate']:.3g}")
    for f in failures:
        print(f"  job {f['job']} failed: {'; '.join(f['reasons'])}")
    print(f"  report: {stem.with_suffix('.json').relative_to(ROOT)}")

    result = {
        "correct": not failures and bool(samples),
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {m: {"value": s["median"], "unit": s["unit"]} for m, s in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
