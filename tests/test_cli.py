import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwsum
from pwsum import cli
from pwsum.blaschke import upper_lower_evaluators
from pwsum.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, parse_config, run
from pwsum.cli import ConfigError
from pwsum.contours import build_schedule
from pwsum import diagnostics
from pwsum.engine import EngineError
from pwsum.genfun import GeneratingFunctionEvaluator
from pwsum.spectrum import Spectrum, make_family
from pwsum.weights import universal_weights


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def write_points(path, points):
    """A points file without a header: 're im' per point."""
    path.write_text("".join(f"{float(p.real)!r} {float(p.imag)!r}\n" for p in points))


def test_missing_config_exits_2(tmp_path):
    assert run(tmp_path / "nope.cfg") == EXIT_CONFIG


def test_unknown_key_exits_2(tmp_path):
    cfg = write_cfg(
        tmp_path, "bad.cfg", "subcommand=diagnose\noutput.dir=out\nwibble=1\n"
    )
    assert run(cfg) == EXIT_CONFIG


def test_unknown_subcommand_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "bad2.cfg", "subcommand=frobnicate\noutput.dir=out\n")
    assert run(cfg) == EXIT_CONFIG


def test_parse_config_defaults(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "ok.cfg",
        "# comment\nsubcommand=diagnose\noutput.dir=o\ncount=12\n",
    )
    parsed = parse_config(cfg)
    assert parsed["count"] == 12
    assert parsed["family"] == "shifted_integers"
    assert parsed["grid.h"] == 0.01 and parsed["scheme"] == ["projection"]
    assert parsed["schedule"].tolist() == [10.0, 20.0, 30.0, 40.0, 50.0, 51.0]
    assert parsed["atoms"].centers.tolist() == [0.3j, 2.7 + 0.3j]
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "dup.cfg", "subcommand=diagnose\nsubcommand=weights\noutput.dir=o\n"))


def test_diagnose_lattice(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "diag.cfg",
        f"""subcommand=diagnose
family=shifted_integers
count=60
delta=0.3
diag.X=15
diag.h=0.02
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_OK
    text = (out / "report.csv").read_text().strip().splitlines()
    assert text[0] == "condition,window_X,value,trend_ratio"
    rows = {ln.split(",")[0]: ln.split(",") for ln in text[1:]}
    assert set(rows) == {"a2_lower_bound", "carleson_sup", "intG_pos", "intG_neg"}
    assert float(rows["a2_lower_bound"][2]) >= 1.0
    # lattice integrals stabilize
    assert float(rows["intG_pos"][3]) < 1.2


def test_converge_projection_monotone(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "conv.cfg",
        f"""subcommand=converge
family=shifted_integers
count=60
delta=0.3
scheme=projection
schedule=15,30,45,61
grid.X=30
grid.h=0.02
atoms=0.0,0.3,1,0
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_OK
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert lines[0] == "n,scheme,l2_error,sup_error_K,tail_bound"
    errs = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert len(errs) == 4
    # decreasing until the taper runs out of window; the final full-window
    # step may tick up slightly (the beta taper smooths the truncation)
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[3] < errs[1]


def test_converge_universal_scheme(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "cu.cfg",
        f"""subcommand=converge
family=shifted_integers
count=30
delta=0.3
scheme=universal
l.count=3
grid.X=20
grid.h=0.05
atoms=0.0,-0.3,1,0
K.radius=2
K.samples=64
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_OK
    lines = (out / "errors.csv").read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 3
    assert all(r[1] == "universal" for r in rows)
    ls = [float(r[0]) for r in rows]
    assert ls == sorted(ls)


def test_converge_tail_bound_on_any_valid_grid(tmp_path):
    # 2X/h = 1466 is whole, but 2X/max(X/200, 0.05) = 293.2 is not: the
    # tail bound's own max|G| grid must not require it to be
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "c733.cfg",
        f"subcommand=converge\ncount=20\nschedule=10,21\ngrid.X=7.33\ngrid.h=0.01\noutput.dir={out}\n",
    )
    assert run(cfg) == EXIT_OK
    rows = [ln.split(",") for ln in (out / "errors.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == 2
    assert all(np.isfinite(float(r[4])) for r in rows)


def test_weights_csv_output(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "w.cfg",
        f"""subcommand=weights
family=shifted_integers
count=10
delta=0.3
scheme=projection
schedule=5,11
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_OK
    lines = (out / "weights.csv").read_text().strip().splitlines()
    assert lines[0] == "n,k,lambda_re,lambda_im,w_re,w_im"
    assert len(lines) > 21


def test_weights_both_half_planes(tmp_path):
    # the lower half-plane goes through the mirror conj(Lambda-) in every
    # scheme; a symmetric point set makes the two universal schedules equal
    up = np.array([0.5 + 1.0j, -1.5 + 0.7j, 3.1 + 0.4j, -2.5 + 0.6j, 1.2 + 0.3j])
    s = Spectrum(np.concatenate([up, np.conj(up)]))
    write_points(tmp_path / "pts.txt", s.points)
    pts = s.points
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "w.cfg",
        f"""subcommand=weights
family=custom_list
count={pts.size}
points.file={tmp_path / "pts.txt"}
scheme=naive,projection,universal
schedule=1,2.5,6
l.count=3
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_OK
    rows = {}  # scheme -> (step label, k, w) columns
    for kind in ("naive", "projection", "universal"):
        n, k, _, _, w_re, w_im = np.loadtxt(out / f"weights_{kind}.csv", delimiter=",", skiprows=1).T
        rows[kind] = n, k.astype(int), w_re + 1j * w_im
        assert np.all(np.abs(rows[kind][2]) <= 1.0 + 1e-12)
    n, k, w = rows["projection"]
    lower = pts[k].imag < 0
    assert np.any(lower)
    for label, kk, wk in zip(n[lower], k[lower], w[lower]):
        lam = pts[kk]
        mu = pts[(pts.imag < 0) & (np.abs(pts) >= label)]
        direct = np.prod((np.conj(mu) / mu) * (lam - mu) / (lam - np.conj(mu)))
        assert wk == pytest.approx(direct, rel=1e-12)
    n, k, w = rows["universal"]
    got = {(label, kk): wk for label, kk, wk in zip(n, k, w)}
    mirror = [int(np.flatnonzero(pts == np.conj(lam))[0]) for lam in pts]
    assert any(pts[kk].imag < 0 for _, kk in got)
    for (label, kk), wk in got.items():
        if pts[kk].imag < 0:
            assert wk == np.conj(got[label, mirror[kk]])


def test_universal_weights_csv_labels_rows_by_half_plane(tmp_path):
    # an asymmetric point set: the mirror conj(Lambda-) gets half-widths of
    # its own, and a lower half-plane row carries the mirror's l, not the
    # upper schedule's
    up = np.array([0.5 + 1.0j, -1.5 + 0.7j, 3.1 + 0.4j, -2.5 + 0.6j, 1.2 + 0.3j])
    lo = np.array([0.3 - 0.8j, -1.1 - 0.5j, 2.7 - 0.9j, -3.4 - 0.4j, 1.6 - 0.6j])
    s = Spectrum(np.concatenate([up, lo]))
    write_points(tmp_path / "pts.txt", s.points)
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "w.cfg",
        f"""subcommand=weights
family=custom_list
count={len(s)}
points.file={tmp_path / "pts.txt"}
scheme=universal
l.count=3
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_OK
    up_sched, lo_sched = (build_schedule(b, count=3) for b in upper_lower_evaluators(s))
    assert up_sched[0].tolist() != lo_sched[0].tolist()
    expected = []
    for step, w in enumerate(universal_weights(s, up_sched, lo_sched)[1].T):
        for k in np.flatnonzero(w):
            sched = up_sched if s.points[k].imag > 0 else lo_sched
            expected.append((f"{sched[0, step]:.12e}", str(k)))
    rows = [line.split(",")[:2] for line in (out / "weights.csv").read_text().splitlines()[1:]]
    assert any(s.points[int(k)].imag < 0 for _, k in rows)
    assert [tuple(r) for r in rows] == expected


def test_compare_norms_and_determinism(tmp_path):
    # the probe's bound is exact: seed and trials are accepted and change no byte
    base = """subcommand=compare-norms
family=clustered_pairs
count=12
delta=1.0
eps=0.5
scheme=naive,projection
schedule=4,8,13
grid.X=15
grid.h=0.05
atoms.halfwidth=10
{}
output.dir={}
"""
    seeds = ["seed=42", "seed=42", "trials=1\nseed=0", "trials=4\nseed=99"]
    outs = [tmp_path / f"o{i}" for i in range(len(seeds))]
    for i, (seed, out) in enumerate(zip(seeds, outs)):
        assert run(write_cfg(tmp_path, f"n{i}.cfg", base.format(seed, out))) == EXIT_OK
    b1, b2, b3, b4 = [(out / "norms.csv").read_bytes() for out in outs]
    assert b1 == b2 == b3 == b4
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "n,scheme,norm_lower_bound"
    assert len(lines) == 7


def test_contours_csv(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "c.cfg",
        f"""subcommand=contours
family=shifted_integers
count=30
delta=0.3
l.count=3
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_OK
    lines = (out / "contours.csv").read_text().strip().splitlines()
    assert lines[0] == "n,l,c,alpha,eps_hat,margin"
    assert len(lines) == 4
    margins = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert all(m >= 0 for m in margins)


def test_contours_infeasible_exits_3(tmp_path):
    out = tmp_path / "out"
    # a custom spectrum whose zero real parts blanket the candidate range
    pts = ";".join(f"{x:.6f},0.5" for x in np.arange(0.05, 30.0, 0.05))
    ptsfile = tmp_path / "pts.txt"
    ptsfile.write_text("\n".join(f"{x:.6f} 0.5" for x in np.arange(0.05, 30.0, 0.05)))
    cfg = write_cfg(
        tmp_path,
        "inf.cfg",
        f"""subcommand=contours
family=custom_list
points.file={ptsfile}
l.count=2
l.zero_margin=0.06
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_NUMERICAL


def test_factorize_check(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "f.cfg",
        f"""subcommand=factorize-check
family=shifted_integers
count=800
delta=0.3
outer.X=200
outer.h=0.02
factorize.samples=1,1;-2,0.5
output.dir={out}
""",
    )
    assert run(cfg) == EXIT_OK
    lines = (out / "report.csv").read_text().strip().splitlines()
    cond, X, val, trend = lines[1].split(",")
    assert cond == "factorization_max_rel_mismatch"
    assert float(val) < 5e-3


def test_runtime_imports_neither_scipy_nor_numpy_ma(tmp_path):
    # scipy is a test-only dependency, and numpy.ma (10 ms to import, pulled in
    # lazily by np.unique) stays unloaded: a fresh process runs a factorize-check
    # (lattice tails: log-Gamma) and a diagnose (Carleson tail: trigamma)
    cfgs = [
        write_cfg(tmp_path, "f.cfg", f"subcommand=factorize-check\nfamily=kadec_perturbed\ncount=20\n"
                  f"outer.X=40\nouter.h=0.05\noutput.dir={tmp_path / 'f'}\n"),
        write_cfg(tmp_path, "d.cfg", f"subcommand=diagnose\nfamily=clustered_pairs\ncount=20\ndiag.X=10\n"
                  f"output.dir={tmp_path / 'd'}\n"),
    ]
    script = (
        "import sys\n"
        "import pwsum.cli as cli\n"
        "codes = [cli.run(p) for p in sys.argv[1:]]\n"
        "mods = [m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']]\n"
        "print(codes, sorted(mods))\n"
    )
    src = str(Path(pwsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, cfgs)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


@pytest.mark.parametrize(
    "body, files",
    [
        ("subcommand=diagnose\ndelta=nan\n", {}),
        ("subcommand=weights\nfamily=kadec_perturbed\neps=inf\n", {}),
        ("subcommand=diagnose\nfamily=custom_list\n", {"pts.txt": "0.5 1.0\n2.0 0.0\n"}),
        ("subcommand=diagnose\nfamily=custom_list\n", {"pts.txt": "0.5 1.0\n2.0\n"}),
        # a header and no points: there is no spectrum to run on
        ("subcommand=weights\nscheme=universal\nfamily=custom_list\n", {"pts.txt": "# family=custom_list\n"}),
        ("subcommand=diagnose\nfamily=custom_list\n", {"pts.txt": "# family=custom_list\n"}),
        ("subcommand=converge\nK.samples=0\n", {}),
        ("subcommand=compare-norms\natoms.halfwidth=-3\n", {}),
        # lattice headers the tail cannot be built from: a missing key, a
        # window too small to infer count >= 1
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=shifted_integers\n0.5 1.0\n1.5 1.0\n2.5 1.0\n"}),
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=clustered_pairs delta=1.0 eps=0.5\n0.0 1.0\n1.0 1.0\n1.5 1.0\n"}),
        # headers follow the family keys' rules: delta > 0, a known family name
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=shifted_integers delta=-0.3\n0.0 -0.3\n1.0 -0.3\n-1.0 -0.3\n"}),
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=shifted_integer delta=0.3\n0.0 0.3\n1.0 0.3\n-1.0 0.3\n"}),
        # a header count must be the window the file's upper points hold
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=shifted_integers delta=0.3 count=10\n0.0 0.3\n1.0 0.3\n-1.0 0.3\n"}),
        # an inferred count must be the window too: four upper points round down
        # to count=1, whose tail site 2 would sit on a stored point
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=shifted_integers delta=0.3\n" + "".join(f"{k}.0 0.3\n" for k in range(-1, 3))}),
        # a header key no family reads, a key given twice, a count that is not whole
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=kadec_perturbed delta=0.3 esp=0.2\n0.2 0.3\n0.8 0.3\n-1.2 0.3\n"}),
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=shifted_integers delta=0.3 delta=0.5\n0.0 0.3\n1.0 0.3\n-1.0 0.3\n"}),
        ("subcommand=diagnose\nfamily=custom_list\n",
         {"pts.txt": "# family=shifted_integers delta=0.3 count=2.4\n"
                     + "".join(f"{k}.0 0.3\n" for k in range(-2, 3))}),
        # grid pairs need finite, positive X and h with 2X/h integral
        ("subcommand=converge\ngrid.h=0\n", {}),
        ("subcommand=converge\ngrid.X=-5\n", {}),
        ("subcommand=diagnose\ndiag.h=0\n", {}),
        ("subcommand=diagnose\ndiag.X=-4\n", {}),
        ("subcommand=diagnose\ndiag.h=0.03\ndiag.X=40\n", {}),
        ("subcommand=factorize-check\nfactorize.samples=a,b\n", {}),
        # no contour, no trial: nothing meaningful to write
        ("subcommand=contours\nl.count=0\n", {}),
        ("subcommand=compare-norms\ntrials=0\n", {}),
        # config mistakes, caught before the numerical layers run
        ("subcommand=weights\nscheme=naive\nschedule=3,2\n", {}),
        ("subcommand=weights\nscheme=naive\nschedule=-1,2\n", {}),
        ("subcommand=contours\nc.grid=3\n", {}),
        ("subcommand=contours\nside.samples=1\n", {}),
        ("subcommand=converge\natoms=0,0.3,1,0;0,0.3,2,0\n", {}),
        ("subcommand=factorize-check\nfactorize.samples=1,0\n", {}),
        ("subcommand=factorize-check\nfactorize.samples=inf,1\n", {}),
        ("subcommand=contours\nl.ratio=0\n", {}),
        ("subcommand=contours\nl.ratio=nan\n", {}),
        # float keys that used to pass through to nan or negative outputs
        ("subcommand=contours\nalpha.safety=nan\n", {}),
        ("subcommand=contours\nalpha.safety=-1\n", {}),
        ("subcommand=converge\nK.radius=nan\n", {}),
        ("subcommand=converge\nK.radius=0\n", {}),
        ("subcommand=converge\nK.center.re=inf\n", {}),
        ("subcommand=converge\nK.center.im=nan\n", {}),
        ("subcommand=diagnose\na2.a=nan\n", {}),
        ("subcommand=converge\natoms=nan,0.3,1,0\n", {}),
        ("subcommand=converge\natoms=0,0.3,inf,0\n", {}),
        ("subcommand=converge\natoms=0,0.3,0,0\n", {}),  # F = 0: no relative error
        ("subcommand=contours\nl.arg_threshold=nan\n", {}),
        ("subcommand=contours\nl.arg_threshold=-1\n", {}),
        ("subcommand=contours\nl.zero_margin=-1\n", {}),
        ("subcommand=compare-norms\nseed=-1\n", {}),
        # values that no subcommand reads still fail their key's parser
        ("subcommand=converge\nschedule=50,abc\n", {}),
        ("subcommand=diagnose\ndelta=abc\n", {}),
        ("subcommand=diagnose\natoms=garbage\n", {}),
        ("subcommand=diagnose\nfamily=bogus\n", {}),
        ("subcommand=weights\nscheme=naive,bogus\n", {}),
        # a repeated scheme would write its file, or its rows, twice
        ("subcommand=weights\nscheme=naive,naive\n", {}),
        ("subcommand=diagnose\ncount=0\n", {}),
        # an output error, found after every table is computed and checked
        ("subcommand=diagnose\n", {"out": "a file, not a directory\n"}),
    ],
    ids=["delta-nan", "eps-inf", "real-axis-point", "malformed-points-line",
         "points-file-empty-weights", "points-file-empty-diagnose",
         "K-samples-0", "atoms-halfwidth-negative", "header-without-delta",
         "header-window-too-small", "header-delta-negative", "header-family-unknown",
         "header-count-disagrees", "header-window-even", "header-key-unknown", "header-key-repeated", "header-count-fractional",
         "grid-h-0", "grid-X-negative", "diag-h-0", "diag-X-negative", "diag-h-not-dividing-2X",
         "samples-unparsable",
         "l-count-0", "trials-0", "schedule-decreasing", "schedule-negative",
         "c-grid-3", "side-samples-1", "atoms-duplicate", "samples-on-real-axis", "samples-inf",
         "l-ratio-0", "l-ratio-nan", "alpha-safety-nan", "alpha-safety-negative",
         "K-radius-nan", "K-radius-0", "K-center-re-inf", "K-center-im-nan", "a2-a-nan",
         "atom-center-nan", "atom-coefficient-inf", "atoms-all-zero", "l-arg-threshold-nan",
         "l-arg-threshold-negative", "l-zero-margin-negative", "seed-negative",
         "schedule-unparsable", "delta-unparsable", "atoms-unparsable", "family-unknown",
         "scheme-unknown", "scheme-repeated", "count-zero", "output-dir-is-a-file"],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, body, files):
    for name, text in files.items():  # a points file, or a file where output.dir points
        (tmp_path / name).write_text(text)
    if "pts.txt" in files:
        body += f"points.file={tmp_path / 'pts.txt'}\n"
    if "\ncount=" not in body:
        body += "count=5\n"
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "bad.cfg", body + f"output.dir={out}\n")
    with pytest.raises(SystemExit) as exc:
        main([str(cfg)])  # an uncaught exception (a traceback) fails the test
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ")
    if "out" in files:
        assert out.read_text() == files["out"]
    else:  # no run that fails makes output.dir
        assert not out.exists()


@pytest.mark.parametrize(
    "body, blocked",
    [
        ("subcommand=diagnose\ncount=5\ndiag.X=5\ndiag.h=0.1\n", "report.csv"),
        # the first file is written before the second fails, and then removed
        ("subcommand=weights\ncount=5\nscheme=naive,projection\nschedule=2,6\n", "weights_projection.csv"),
    ],
    ids=["diagnose", "weights-second-file"],
)
def test_unwritable_output_file_exits_2_with_one_line(tmp_path, capsys, body, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the run writes its CSV
    cfg = write_cfg(tmp_path, "w.cfg", body + f"output.dir={out}\n")
    with pytest.raises(SystemExit) as exc:
        main([str(cfg)])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: cannot write output.dir: ")
    assert [p.name for p in out.iterdir()] == [blocked] and (out / blocked).is_dir()


def test_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # compare-norms at atoms.halfwidth=100000 asked numpy for a 200 001^2
    # complex matrix (596 GiB) and exited 1 with a traceback: the config asks
    # for more than the machine holds, like an unwritable output.dir
    def command(cfg):
        raise MemoryError("Unable to allocate 596. GiB for an array with shape (200001, 200001)")

    monkeypatch.setitem(cli._COMMANDS, "compare-norms", command)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "m.cfg", f"subcommand=compare-norms\natoms.halfwidth=100000\noutput.dir={out}\n")
    with pytest.raises(SystemExit) as exc:
        main([str(cfg)])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: out of memory: Unable to allocate 596. GiB for an array with shape (200001, 200001)\n"
    assert not out.exists()


_REPORT = "condition,window_X,value,trend_ratio"
_WEIGHTS = "n,k,lambda_re,lambda_im,w_re,w_im"


# shifted_integers count 10 has 21 points, 9 of them inside |lambda| < 5: a
# weights row per step of schedule 5,11 holds 9 and then 21 of them
@pytest.mark.parametrize(
    "body, files",
    [
        ("subcommand=diagnose\nfamily=clustered_pairs\ncount=10\ndiag.X=5\ndiag.h=0.05\n", {"report.csv": (_REPORT, 4)}),
        ("subcommand=factorize-check\nfamily=kadec_perturbed\ncount=20\nouter.X=40\nouter.h=0.05\n",
         {"report.csv": (_REPORT, 1)}),
        ("subcommand=contours\nfamily=kadec_perturbed\ncount=20\nl.count=2\n",
         {"contours.csv": ("n,l,c,alpha,eps_hat,margin", 2)}),
        ("subcommand=weights\ncount=10\nscheme=projection\nschedule=5,11\n", {"weights.csv": (_WEIGHTS, 9 + 21)}),
        ("subcommand=weights\ncount=10\nscheme=naive,projection\nschedule=5,11\n",
         {"weights_naive.csv": (_WEIGHTS, 9 + 21), "weights_projection.csv": (_WEIGHTS, 9 + 21)}),
        ("subcommand=converge\ncount=10\nscheme=naive,projection\nschedule=5,11\ngrid.X=10\ngrid.h=0.05\n"
         "K.samples=16\n", {"errors.csv": ("n,scheme,l2_error,sup_error_K,tail_bound", 4)}),
        ("subcommand=compare-norms\ncount=10\nscheme=naive\nschedule=5,11\ngrid.X=10\ngrid.h=0.05\n"
         "atoms.halfwidth=3\n", {"norms.csv": ("n,scheme,norm_lower_bound", 2)}),
    ],
    ids=["diagnose", "factorize-check", "contours", "weights", "weights-two-schemes", "converge", "compare-norms"],
)
def test_every_subcommand_writes_its_tables(tmp_path, capsys, body, files):
    out = tmp_path / "out"
    assert run(write_cfg(tmp_path, "t.cfg", body + f"output.dir={out}\n")) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name, (header, count) in files.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + count
        cells = [ln.split(",") for ln in lines[1:]]
        # integer columns keep their integer text: a spectrum index, a contour number
        if header == _WEIGHTS:
            assert [int(c[1]) for c in cells][9:] == list(range(21))
        if name == "contours.csv":
            assert [int(c[0]) for c in cells] == list(range(1, count + 1))


def _kadec_window_file(tmp_path):
    """201 kadec points (delta 0.3, eps 0.2) as a tailless custom list."""
    write_points(tmp_path / "pts.txt", make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 100).points)
    return f"family=custom_list\npoints.file={tmp_path / 'pts.txt'}\n"


def _dense_list_file(tmp_path):
    """The 599 points x + 0.5i, x = 0.05, 0.10, ..., 29.95, as a custom list:
    |G| overflows a double a few units from them."""
    (tmp_path / "dense.txt").write_text("".join(f"{k * 0.05:.2f} 0.5\n" for k in range(1, 600)))
    return f"family=custom_list\npoints.file={tmp_path / 'dense.txt'}\n"


@pytest.mark.parametrize(
    "body",
    [
        # |G| on [-800, 800] spans ~e^418: the A2 products and intG overflow
        "subcommand=diagnose\ndiag.X=400\ndiag.h=0.5\n{points}",
        # |G(1 + 300i)| ~ e^(300 pi) overflows, and so does its factorization
        "subcommand=factorize-check\nfactorize.samples=1,300\n",
        # G and F overflow on the disk K around 300i
        "subcommand=converge\nK.center.im=300\ngrid.X=10\ngrid.h=0.05\nschedule=10,21\n",
        # eps=1.5 moves the window's point k=1 to -0.5, where the tail's
        # point k=-2 sits too: the Carleson sum's trigamma tail has its pole
        "subcommand=diagnose\nfamily=kadec_perturbed\ncount=1\neps=1.5\ndiag.X=5\ndiag.h=0.1\n",
        # G overflows on the grid: errors.csv had l2_error and tail_bound inf
        "subcommand=converge\nscheme=naive\nschedule=10,31\ngrid.X=10\ngrid.h=0.05\n{dense}",
        # |G|^2 overflows in the norm probe's weights: norms.csv had 0.0 bounds
        "subcommand=compare-norms\natoms.halfwidth=3\n{dense}",
        # the probe is finite on [-1, 1], and contour selection fails after it
        # was built: norms.csv was left with its header alone
        "subcommand=compare-norms\nscheme=naive,universal\nl.count=2\nl.zero_margin=0.06\n"
        "grid.X=1\ngrid.h=0.05\n{dense}",
        # each of these printed 5 to 11 RuntimeWarning lines before its message
        "subcommand=diagnose\na2.a=1e300\n",
        "subcommand=factorize-check\nfactorize.samples=0.1,1e300\n",
        "subcommand=converge\nK.radius=1e300\ngrid.X=10\ngrid.h=0.05\nschedule=10,21\n",
        "subcommand=converge\natoms=0,1e300,1,0\ngrid.X=10\ngrid.h=0.05\nschedule=10,21\n",
        "subcommand=diagnose\ndelta=1e300\n",
        # alpha.safety < 1 left every margin negative: contours.csv held
        # margins down to -0.95, and weights 150 rows from that schedule
        "subcommand=contours\nalpha.safety=0.05\n",
        "subcommand=weights\nscheme=universal\nalpha.safety=0.05\n",
    ],
    ids=["diagnose-X-400", "factorize-Im-300", "converge-K-Im-300", "diagnose-kadec-eps-1.5",
         "converge-dense-list", "compare-norms-dense-list", "compare-norms-dense-list-contours",
         "diagnose-a2-a-1e300", "factorize-Im-1e300", "converge-K-radius-1e300", "converge-atom-Im-1e300",
         "diagnose-delta-1e300", "contours-safety-0.05", "weights-universal-safety-0.05"],
)
def test_overflow_exits_3_with_one_line(tmp_path, capsys, body):
    out = tmp_path / "out"
    files = dict(points=_kadec_window_file(tmp_path), dense=_dense_list_file(tmp_path))
    cfg = write_cfg(tmp_path, "o.cfg", body.format(**files) + f"output.dir={out}\n")
    with pytest.raises(SystemExit) as exc:
        main([str(cfg)])
    assert exc.value.code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1  # no RuntimeWarning before the message
    assert err.startswith("numerical precondition failure: ")
    assert not out.exists()  # raised before any CSV is opened


@pytest.mark.parametrize("fails", [False, True], ids=["exit-0", "exit-3"])
def test_run_issues_warnings_only_at_exit_0(tmp_path, monkeypatch, capsys, fails):
    # run holds back the warnings of the subcommand: a failing run prints its
    # one line alone, and a run that succeeds issues them again
    def command(cfg):
        np.log(np.zeros(1))  # RuntimeWarning: divide by zero
        if fails:
            raise EngineError("the run fails after the warning")
        return {"report.csv": (_REPORT, [("x", 1.0, 2.0, 1.0)])}

    monkeypatch.setitem(cli._COMMANDS, "diagnose", command)
    cfg = write_cfg(tmp_path, "w.cfg", f"subcommand=diagnose\noutput.dir={tmp_path / 'out'}\n")
    if fails:
        assert run(cfg) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical precondition failure: the run fails after the warning\n"
    else:
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert run(cfg) == EXIT_OK
        assert (tmp_path / "out" / "report.csv").is_file()


# (X, h, nodes per pass): one pass per line height over the union of the
# nodes of [-X, X] and [-2X, 2X].  With X=40, h=0.01 the X nodes (m = 8000
# intervals, even) are the middle nodes of the 2X window, so the union is
# the 2X window; with X=10.05, h=0.1 (m = 201, odd) no node is shared
@pytest.mark.parametrize(
    "a, X, h, nodes",
    [(a, *window) for window in [(40.0, 0.01, 16001), (10.05, 0.1, 202 + 403)] for a in (0.0, 0.15)],
    ids=["0.0", "0.15", "0.0-unaligned", "0.15-unaligned"],
)
def test_diagnose_samples_each_line_once(tmp_path, monkeypatch, a, X, h, nodes):
    calls = []  # (evaluator, nodes, shift) per log|G| pass
    log_abs_G = GeneratingFunctionEvaluator.log_abs_G

    def counted(self, x, a=0.0):
        calls.append((self, np.size(x), a))
        return log_abs_G(self, x, a=a)

    monkeypatch.setattr(GeneratingFunctionEvaluator, "log_abs_G", counted)
    cfg = write_cfg(tmp_path, "d.cfg", f"subcommand=diagnose\na2.a={a}\ndiag.X={X}\ndiag.h={h}\n")
    rows = cli._cmd_diagnose(parse_config(cfg))["report.csv"][1]
    passes = sorted((n, shift) for _, n, shift in calls)
    assert passes == sorted((nodes, shift) for shift in {0.0, a})
    gen = calls[0][0]

    def window(W, a):  # the node spacing and nodes of [-W, W], and a log|G| pass of its own
        m = max(1, round(2 * W / h))
        x = 2 * W / m * (np.arange(m + 1) - m / 2)
        return 2 * W / m, x, log_abs_G(gen, x, a=a)

    cells = []  # (A2 scan, int |G|^2/(1+x^2), int |G|^-2/(1+x^2)) per window
    for W in (X, 2 * X):
        step, x, logs = window(W, 0.0)
        wts = np.full(x.size, step)
        wts[0] = wts[-1] = step / 2
        cells.append((diagnostics._a2_from_logs(window(W, a)[2]), np.sum(wts * np.exp(2.0 * logs) / (1.0 + x * x)),
                      np.sum(wts * np.exp(-2.0 * logs) / (1.0 + x * x))))
    (v1, pos, neg), (v2, pos_2X, neg_2X) = cells
    assert rows[0][2:] == (v1, v2 / v1)
    assert rows[2][2:] == (pos, pos_2X / pos)
    assert rows[3][2:] == (neg, neg_2X / neg)


def test_diagnose_refuses_a_zero_window_integral(tmp_path, monkeypatch, capsys):
    # a zero [-X, X] integral makes its trend inf, which the writer refuses
    table = np.array([[1.5, 2.0], [0.0, 1.0], [3.0, 3.0]])
    monkeypatch.setattr(cli, "line_diagnostics", lambda *args, **kw: table)
    cfg = write_cfg(tmp_path, "z.cfg", f"subcommand=diagnose\ncount=10\noutput.dir={tmp_path / 'out'}\n")
    assert run(cfg) == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("numerical precondition failure: report.csv: trend_ratio is inf at "
                                       "condition=intG_pos\n")
    assert not (tmp_path / "out").exists()


def test_converge_computes_G_prime_once_per_step(tmp_path, monkeypatch):
    calls = []
    prime = GeneratingFunctionEvaluator.eval_G_prime_at_lambda

    def counted(self, k):
        calls.append(np.size(k))
        return prime(self, k)

    monkeypatch.setattr(GeneratingFunctionEvaluator, "eval_G_prime_at_lambda", counted)
    cfg = write_cfg(tmp_path, "c.cfg", "subcommand=converge\ncount=20\nscheme=naive,projection\n"
                    f"schedule=5,10,21\ngrid.X=10\ngrid.h=0.1\noutput.dir={tmp_path}\n")
    assert run(cfg) == EXIT_OK
    assert 0 < len(calls) <= 6  # two schemes, three steps each


def _number(cell):
    """A CSV cell as a float; None for a text cell (a scheme or condition name)."""
    try:
        return float(cell)
    except ValueError:
        return None


_NONFINITE = [float("nan"), float("inf"), -float("inf")]
# the ranges a run accepts, and edge values for each key (some must be refused)
_FUZZ_VALID = {
    "l.count": st.integers(1, 4),
    "trials": st.integers(1, 3),
    "c.grid": st.integers(16, 24),
    "side.samples": st.integers(2, 40),
    "l.ratio": st.floats(1.0, 6.0),
    "alpha.safety": st.floats(0.5, 3.0),
    "K.radius": st.floats(0.5, 4.0),
    "a2.a": st.floats(-0.5, 0.5),
    "delta": st.floats(0.1, 1.5),
    "eps": st.floats(-0.45, 0.45),
    "K.center.re": st.floats(-3.0, 3.0),
    "K.center.im": st.floats(-1.0, 1.0),
    "l.arg_threshold": st.floats(0.5, 2.0),
    "l.zero_margin": st.floats(0.0, 0.01),
}
_FUZZ_EDGE = {
    "l.count": [0, -1],
    "trials": [0],
    "c.grid": [3, 15],
    "side.samples": [0, 1],
    **{k: _NONFINITE + [-1.0, 0.0, 0.5] for k in
       ("l.ratio", "alpha.safety", "K.radius", "a2.a", "delta", "eps", "K.center.re",
        "K.center.im", "l.arg_threshold", "l.zero_margin")},
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    sub=st.sampled_from(["contours", "compare-norms", "weights", "converge", "diagnose", "factorize-check"]),
    count=st.integers(1, 20),
    keys=st.fixed_dictionaries({}, optional=_FUZZ_VALID),
    # at most one key at an edge value, so that no other key hides it
    edge=st.one_of(st.none(), st.sampled_from(sorted(_FUZZ_EDGE)).flatmap(
        lambda k: st.tuples(st.just(k), st.sampled_from(_FUZZ_EDGE[k])))),
)
def test_config_fuzz_exit_contract(sub, count, keys, edge):
    # a key left out keeps its default; an exit 0 writes only finite numbers,
    # and a run that exits 2 or 3 writes no CSV
    if edge is not None:
        keys = {**keys, edge[0]: edge[1]}
    body = "".join(f"{k}={v}\n" for k, v in keys.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(
            Path(tmp), "f.cfg",
            f"subcommand={sub}\nfamily=kadec_perturbed\ncount={count}\nscheme=universal\n{body}"
            f"grid.X=5\ngrid.h=0.1\ndiag.X=5\ndiag.h=0.1\nouter.X=5\nouter.h=0.1\nK.samples=16\natoms.halfwidth=3\n"
            f"output.dir={tmp}/out\n",
        )
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(cfg)
        made_out = Path(tmp, "out").exists()
        cells = [c for f in Path(tmp, "out").glob("*.csv") for ln in f.read_text().splitlines()[1:]
                 for c in ln.split(",")]
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if code != EXIT_OK:
        assert len(err.getvalue().splitlines()) == 1
        assert not made_out
    else:
        assert all(np.isfinite(v) for v in map(_number, cells) if v is not None), cells


# The contour keys at their edges, one key at a time: the bound a key's check
# accepts or refuses, 1e300, the fuzz edge values, and alpha.safety below 1,
# where the domination margin can go negative.
_CONTOUR_BOUND = {"l.count": 1, "l.ratio": 1, "l.arg_threshold": 0, "l.zero_margin": 0, "c.grid": 16,
                  "side.samples": 2, "alpha.safety": 0}


@pytest.mark.parametrize("sub", ["contours", "weights\nscheme=universal"], ids=["contours", "weights-universal"])
@pytest.mark.parametrize("key", sorted(_CONTOUR_BOUND))
def test_contour_key_edges_keep_the_exit_contract(tmp_path, sub, key):
    values = [_CONTOUR_BOUND[key], 1e300, *_FUZZ_EDGE[key]] + ([0.05, 1e-9, 1000] if key == "alpha.safety" else [])
    for i, value in enumerate(values):
        out = tmp_path / f"out{i}"
        cfg = write_cfg(tmp_path, f"e{i}.cfg",
                        f"subcommand={sub}\nfamily=kadec_perturbed\ncount=10\n{key}={value}\noutput.dir={out}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(cfg)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), value
        if code != EXIT_OK:
            assert len(err.getvalue().splitlines()) == 1, value
            assert not out.exists(), value
            continue
        assert err.getvalue() == "", value
        tables = {f.name: [ln.split(",") for ln in f.read_text().splitlines()[1:]] for f in out.glob("*.csv")}
        assert all(np.isfinite(v) for rows in tables.values() for row in rows for v in map(_number, row)), value
        assert all(float(row[5]) >= 0 for row in tables.get("contours.csv", [])), value
        assert "weights.csv" not in tables or tables["weights.csv"], value  # some weight is nonzero


@pytest.mark.parametrize("sub", ["contours", "weights\nscheme=universal"], ids=["contours", "weights-universal"])
@pytest.mark.parametrize("ratio", ["1e200", "1e300"])
def test_a_huge_contour_ratio_names_the_band_that_underflows(tmp_path, capsys, sub, ratio):
    # the bands [l/(1.6 ratio), l/ratio] fall below the smallest normal float
    # after the first pick: the one stderr line names the contour and the ratio
    cfg = write_cfg(tmp_path, "r.cfg", f"subcommand={sub}\nfamily=kadec_perturbed\ncount=10\nl.ratio={ratio}\n"
                                       f"output.dir={tmp_path / 'out'}\n")
    assert run(cfg) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical precondition failure: contour 2: the band [0.000e+00, 0.000e+00]"), err
    assert f"ratio {float(ratio):g}" in err and len(err.splitlines()) == 1
