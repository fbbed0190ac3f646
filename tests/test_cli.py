import numpy as np
import pytest

from pwsum.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, parse_config, run
from pwsum.cli import ConfigError


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


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
    assert parsed["count"] == "12"
    assert parsed["family"] == "shifted_integers"
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


def test_compare_norms_and_determinism(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
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
seed=42
output.dir={}
"""
    cfg1 = write_cfg(tmp_path, "n1.cfg", base.format(out1))
    cfg2 = write_cfg(tmp_path, "n2.cfg", base.format(out2))
    assert run(cfg1) == EXIT_OK
    assert run(cfg2) == EXIT_OK
    b1 = (out1 / "norms.csv").read_bytes()
    b2 = (out2 / "norms.csv").read_bytes()
    assert b1 == b2
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


@pytest.mark.parametrize(
    "body, points",
    [
        ("subcommand=diagnose\ndelta=nan\n", None),
        ("subcommand=weights\nfamily=kadec_perturbed\neps=inf\n", None),
        ("subcommand=diagnose\nfamily=custom_list\n", "0.5 1.0\n2.0 0.0\n"),
        ("subcommand=diagnose\nfamily=custom_list\n", "0.5 1.0\n2.0\n"),
        ("subcommand=converge\nK.samples=0\n", None),
        ("subcommand=compare-norms\natoms.halfwidth=-3\n", None),
        # lattice headers the tail cannot be built from: a missing key, a
        # window too small to infer count >= 1
        ("subcommand=diagnose\nfamily=custom_list\n",
         "# family=shifted_integers\n0.5 1.0\n1.5 1.0\n2.5 1.0\n"),
        ("subcommand=diagnose\nfamily=custom_list\n",
         "# family=clustered_pairs delta=1.0 eps=0.5\n0.0 1.0\n1.0 1.0\n1.5 1.0\n"),
    ],
    ids=["delta-nan", "eps-inf", "real-axis-point", "malformed-points-line",
         "K-samples-0", "atoms-halfwidth-negative", "header-without-delta",
         "header-window-too-small"],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, body, points):
    if points is not None:
        (tmp_path / "pts.txt").write_text(points)
        body += f"points.file={tmp_path / 'pts.txt'}\n"
    cfg = write_cfg(tmp_path, "bad.cfg", body + f"count=5\noutput.dir={tmp_path / 'out'}\n")
    with pytest.raises(SystemExit) as exc:
        main([str(cfg)])  # an uncaught exception (a traceback) fails the test
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ")
