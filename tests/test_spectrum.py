import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsum.genfun import GeneratingFunctionEvaluator
from pwsum.spectrum import (
    Spectrum,
    SpectrumError,
    load_spectrum,
    make_family,
    split_halfplanes,
)
from pwsum.weights import naive_weights


def test_shifted_integers_small():
    s = make_family("shifted_integers", {"delta": 0.3}, 2)
    expected = {-2 + 0.3j, -1 + 0.3j, 0.3j, 1 + 0.3j, 2 + 0.3j}
    assert set(s.points.tolist()) == expected
    assert len(s) == 5


def write_points(path, points, header=""):
    """A points file: the header line, if any, then 're im' per point."""
    path.write_text(header + "".join(f"{float(p.real)!r} {float(p.imag)!r}\n" for p in points))
    return path


def test_custom_single_point():
    s = Spectrum([1j])
    assert len(s) == 1
    assert s.points[0] == 1j
    assert s.tail is None


def test_clustered_pairs_formula():
    # perturbation applied to the real part: eps/|k| added to k + i*delta
    s = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 1)
    pts = set(s.points.tolist())
    assert 1 + 1j in pts
    assert 1.5 + 1j in pts
    assert -1 + 1j in pts
    assert -0.5 + 1j in pts
    assert 1j in pts
    assert len(s) == 5


def test_clustered_pairs_counts():
    s = make_family("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 7)
    assert len(s) == 4 * 7 + 1


def test_kadec_pattern():
    # lambda_k = k + eps*(-1)^k + i*delta
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 2)
    pts = set(np.round(s.points, 12).tolist())
    assert pts == {
        -1.8 + 0.3j,
        -1.2 + 0.3j,
        0.2 + 0.3j,
        0.8 + 0.3j,
        2.2 + 0.3j,
    }


@pytest.mark.parametrize(
    "name, params, count, first_site, density",
    [
        ("shifted_integers", {"delta": 0.3}, 10, 11, 1.0),
        ("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 10, 11, 1.0),
        ("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 11, 12, 1.0),
        ("clustered_pairs", {"delta": 0.3, "eps": 0.5}, 10, 11, 2.0),
    ],
)
def test_lattice_tail_descriptor(name, params, count, first_site, density):
    tail = make_family(name, params, count).tail
    assert tail.first_site == first_site
    assert tail.density == density
    assert tail.delta == 0.3
    if name == "clustered_pairs":
        assert tail.slope_slack == pytest.approx(2 * 0.5 / count**2)
        return
    assert tail.slope_slack == 0.0
    # the sublattice sites are the points a wider window adds, up to |q| <= count + 30
    sites = []
    for sl in tail.sublattices:
        for m in range(sl.start, count + 31):
            q = sl.spacing * m + sl.offset
            if q <= count + 30:
                sites += [sl.c + q, sl.c - q] * sl.weight
    small = set(np.round(make_family(name, params, count).points, 12).tolist())
    big = set(np.round(make_family(name, params, count + 30).points, 12).tolist())
    assert sorted(np.round(sites, 12).tolist(), key=abs) == sorted(big - small, key=abs)


def test_lattice_tail_none_without_family_formula(tmp_path):
    assert Spectrum([1j, 2 - 1j]).tail is None
    pts = [1j, 2 - 1j]
    assert load_spectrum(write_points(tmp_path / "a.txt", pts, "# family=custom_list\n")).tail is None
    assert load_spectrum(write_points(tmp_path / "b.txt", pts)).tail is None
    # a family header without `count` infers the window from the stored points
    s = make_family("shifted_integers", {"delta": 0.3}, 7)
    path = write_points(tmp_path / "spec.txt", s.points, "# family=shifted_integers delta=0.3\n")
    assert load_spectrum(path).tail == s.tail


def test_header_count_is_inferred_from_the_whole_file(tmp_path):
    # 11 upper and 11 lower points, no count: the tail sites sit at +delta, so
    # the window is the 11 upper points, |k| <= 5, and the lower points are
    # not family points; the upper half keeps that tail
    up = make_family("shifted_integers", {"delta": 0.3}, 5).points
    path = write_points(tmp_path / "two.txt", np.concatenate([up, np.conj(up)]),
                        "# family=shifted_integers delta=0.3\n")
    s = load_spectrum(path)
    upper, lower = split_halfplanes(s)
    assert s.tail.first_site == 6
    assert upper.tail == s.tail
    assert lower.tail is None


def test_two_half_file_is_the_upper_window_with_its_tail_times_the_lower_points(tmp_path):
    # log|G| of the file is the family window |k| <= 5 with its own tail, plus
    # the log-modulus of the lower points' finite product (3.00, 12.80, 15.90,
    # 19.22 here); a tail inferred from all 22 points started at site 11 and
    # dropped the zeros at 6..10 (4.20, 19.06, 20.72, 17.51)
    fam = make_family("shifted_integers", {"delta": 0.3}, 5)
    path = write_points(tmp_path / "two.txt", np.concatenate([fam.points, np.conj(fam.points)]),
                        "# family=shifted_integers delta=0.3\n")
    x = np.array([3.5, 7.5, 9.5, 12.5])
    got = GeneratingFunctionEvaluator(load_spectrum(path)).log_abs_G(x)
    want = (GeneratingFunctionEvaluator(fam).log_abs_G(x)
            + GeneratingFunctionEvaluator(Spectrum(np.conj(fam.points))).log_abs_G(x))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    assert np.allclose(want, [3.00, 12.80, 15.90, 19.22], atol=5e-3)


def test_header_count_must_match_the_upper_points(tmp_path):
    # count=10 is a window of 21 points; three upper points loaded silently
    # with the tail of |k| > 10 before (|G(5.5)| = 24.04 against 1.358)
    path = write_points(tmp_path / "pts.txt", np.array([-1, 0, 1]) + 0.3j,
                        "# family=shifted_integers delta=0.3 count=10\n")
    with pytest.raises(SpectrumError, match="count=10"):
        load_spectrum(path)
    # a matching count loads, whatever the lower half-plane holds
    path = write_points(tmp_path / "ok.txt", np.array([-1, 0, 1, 7]) + np.array([0.3j, 0.3j, 0.3j, -2j]),
                        "# family=shifted_integers delta=0.3 count=1\n")
    assert load_spectrum(path).tail.first_site == 2
    # a whole count written as a float is that count (count=2.4 is refused)
    path = write_points(tmp_path / "float.txt", np.array([-1, 0, 1]) + 0.3j,
                        "# family=shifted_integers delta=0.3 count=1.0\n")
    assert load_spectrum(path).tail.first_site == 2


@pytest.mark.parametrize(
    "tag, params, n_points, match",
    [
        ("shifted_integers", {}, 3, "'delta'"),
        ("clustered_pairs", {"delta": 1.0}, 9, "'eps'"),
        ("kadec_perturbed", {"delta": "abc"}, 5, "'delta'"),
        ("shifted_integers", {"delta": np.nan}, 5, "'delta'"),
        ("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 3, "'count'"),
        ("shifted_integers", {"delta": -0.3}, 5, "delta > 0"),
        ("shifted_integers", {"delta": 0.3, "count": -1}, 5, "'count'"),
        ("clustered_pairs", {"delta": 1.0, "eps": 0.0}, 9, "eps != 0"),
        ("shifted_integer", {"delta": 0.3}, 5, "unknown family"),
        # an even window: the inferred count=0 would put the first tail site on a stored point
        ("shifted_integers", {"delta": 0.3}, 2, "count=0"),
    ],
)
def test_lattice_tail_rejects_unusable_header(tmp_path, tag, params, n_points, match):
    header = f"# family={tag} " + " ".join(f"{k}={v}" for k, v in params.items()) + "\n"
    path = write_points(tmp_path / "pts.txt", np.arange(n_points) + 1j, header)
    with pytest.raises(SpectrumError, match=match):
        load_spectrum(path)


@pytest.mark.parametrize(
    "tag, params, n_points",
    [
        ("shifted_integers", {"delta": 0.3}, 1),
        ("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 1),
    ],
)
def test_lattice_tail_from_one_or_two_point_header(tmp_path, tag, params, n_points):
    # the inferred count is 0: the tail is every family site beyond the origin
    # (a two-point window is refused, see test_lattice_tail_rejects_unusable_header)
    header = f"# family={tag} " + " ".join(f"{k}={v}" for k, v in params.items()) + "\n"
    tail = load_spectrum(write_points(tmp_path / "pts.txt", np.arange(n_points) + 0.3j, header)).tail
    assert (tail.first_site, tail.density, tail.delta) == (1, 1.0, 0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected(bad):
    with pytest.raises(SpectrumError):
        Spectrum(np.array([1j, complex(bad, 1.0)]))
    with pytest.raises(SpectrumError):
        Spectrum(np.array([1j, complex(1.0, bad)]))


def test_load_spectrum_names_malformed_line(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1.0 0.5\n\n2.0\n")
    with pytest.raises(SpectrumError, match="line 3"):
        load_spectrum(path)


def test_unknown_family_rejected():
    with pytest.raises(SpectrumError):
        make_family("hexagonal", {}, 3)


def test_real_point_rejected():
    with pytest.raises(SpectrumError):
        Spectrum(np.array([1.0 + 0j]))
    with pytest.raises(SpectrumError):
        Spectrum(np.array([2.0 + 1e-15j]))


def test_duplicates_rejected():
    with pytest.raises(SpectrumError):
        Spectrum(np.array([1j, 1j]))


def test_sorting_convention():
    s = Spectrum(np.array([3 + 1j, 1j, -1 + 1j, 1 + 1j]))
    mods = np.abs(s.points)
    assert np.all(np.diff(mods) >= 0)
    # |1+i| == |-1+i|: argument ascending puts 1+i (pi/4) before -1+i (3pi/4)
    tied = [p for p in s.points if abs(abs(p) - abs(1 + 1j)) < 1e-12]
    assert tied == [1 + 1j, -1 + 1j]


def test_split_halfplanes_basic():
    s = Spectrum(np.array([1j, -1j, 1 + 1j]))
    up, lo = split_halfplanes(s)
    assert set(up.points.tolist()) == {1j, 1 + 1j}
    assert set(lo.points.tolist()) == {-1j}


def test_split_halfplanes_all_upper_and_empty():
    s = make_family("shifted_integers", {"delta": 0.5}, 3)
    up, lo = split_halfplanes(s)
    assert len(up) == len(s) and len(lo) == 0
    empty = Spectrum(np.array([], dtype=complex))
    u2, l2 = split_halfplanes(empty)
    assert len(u2) == 0 and len(l2) == 0


def kept(s: Spectrum, n: float) -> np.ndarray:
    """Indices that a truncation radius n keeps."""
    return np.flatnonzero(naive_weights(s, [n])[1][:, 0])


def test_truncation_small():
    s = Spectrum(np.array([1j, 3j]))
    assert len(kept(s, 2.0)) == 1
    assert len(kept(s, 10.0)) == 2


def test_truncation_lattice_brute_force():
    s = make_family("shifted_integers", {"delta": 0.3}, 50)
    t = kept(s, 10.5)
    brute = {k for k, p in enumerate(s.points) if abs(p) < 10.5}
    assert set(t.tolist()) == brute
    assert len(t) == 21


@settings(max_examples=40, deadline=None)
@given(
    pts=st.lists(
        st.complex_numbers(
            min_magnitude=0.01, max_magnitude=50, allow_nan=False, allow_infinity=False
        ).filter(lambda z: abs(z.imag) > 1e-6),
        min_size=0,
        max_size=12,
        unique=True,
    ),
    n1=st.floats(min_value=0.1, max_value=60),
    n2=st.floats(min_value=0.1, max_value=60),
)
def test_truncation_monotone_and_split_partition(pts, n1, n2):
    s = Spectrum(np.array(pts, dtype=complex))
    lo_n, hi_n = min(n1, n2), max(n1, n2)
    small = set(kept(s, lo_n).tolist())
    big = set(kept(s, hi_n).tolist())
    assert small <= big
    up, lo = split_halfplanes(s)
    assert len(up) + len(lo) == len(s)


def test_serialization_roundtrip(tmp_path):
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.1}, 4)
    path = write_points(tmp_path / "spec.txt", s.points, "# family=kadec_perturbed count=4 delta=0.3 eps=0.1\n")
    s2 = load_spectrum(path)
    assert np.array_equal(s.points, s2.points)
    assert s2.tail == s.tail


def test_serialization_custom_no_header(tmp_path):
    s = Spectrum(np.array([0.5 + 0.25j, -2j]))
    s2 = load_spectrum(write_points(tmp_path / "pts.txt", s.points))
    assert np.array_equal(s.points, s2.points)
    assert s2.tail is None
