import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsum.spectrum import (
    Spectrum,
    SpectrumError,
    load_spectrum,
    make_family,
    save_spectrum,
    split_halfplanes,
    truncation_at,
)


def test_shifted_integers_small():
    s = make_family("shifted_integers", {"delta": 0.3}, 2)
    expected = {-2 + 0.3j, -1 + 0.3j, 0.3j, 1 + 0.3j, 2 + 0.3j}
    assert set(s.points.tolist()) == expected
    assert len(s) == 5
    assert s.delta_floor == pytest.approx(0.3)


def test_custom_single_point():
    s = make_family("custom_list", {"points": [1j]}, 1)
    assert len(s) == 1
    assert s.points[0] == 1j


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
    tail = make_family(name, params, count).lattice_tail()
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
    assert make_family("custom_list", {"points": [1j, 2 - 1j]}, 2).lattice_tail() is None
    assert Spectrum(np.array([1j])).lattice_tail() is None
    # a family header without `count` infers the window from the stored points
    s = make_family("shifted_integers", {"delta": 0.3}, 7)
    path = tmp_path / "spec.txt"
    path.write_text("# family=shifted_integers delta=0.3\n" + "".join(
        f"{p.real} {p.imag}\n" for p in s.points))
    assert load_spectrum(path).lattice_tail() == s.lattice_tail()


@pytest.mark.parametrize(
    "tag, params, n_points, match",
    [
        ("shifted_integers", {}, 3, "'delta'"),
        ("clustered_pairs", {"delta": 1.0}, 9, "'eps'"),
        ("kadec_perturbed", {"delta": "abc"}, 5, "'delta'"),
        ("shifted_integers", {"delta": np.nan}, 5, "'delta'"),
        ("clustered_pairs", {"delta": 1.0, "eps": 0.5}, 3, "3 points is too small"),
    ],
)
def test_lattice_tail_rejects_unusable_header(tag, params, n_points, match):
    pts = np.arange(n_points) + 1j
    with pytest.raises(SpectrumError, match=match):
        Spectrum(pts, family_tag=tag, family_params=params).lattice_tail()


@pytest.mark.parametrize(
    "tag, params, n_points",
    [
        ("shifted_integers", {"delta": 0.3}, 1),
        ("shifted_integers", {"delta": 0.3}, 2),
        ("kadec_perturbed", {"delta": 0.3, "eps": 0.2}, 1),
    ],
)
def test_lattice_tail_from_one_or_two_point_header(tag, params, n_points):
    # the inferred count is 0: the tail is every family site beyond the origin
    pts = np.arange(n_points) + 0.3j
    tail = Spectrum(pts, family_tag=tag, family_params=params).lattice_tail()
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


def test_truncation_small():
    s = Spectrum(np.array([1j, 3j]))
    assert len(truncation_at(s, 2.0)) == 1
    assert len(truncation_at(s, 10.0)) == 2


def test_truncation_lattice_brute_force():
    s = make_family("shifted_integers", {"delta": 0.3}, 50)
    t = truncation_at(s, 10.5)
    brute = {k for k, p in enumerate(s.points) if abs(p) < 10.5}
    assert set(t.included.tolist()) == brute
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
    small = set(truncation_at(s, lo_n).included.tolist())
    big = set(truncation_at(s, hi_n).included.tolist())
    assert small <= big
    up, lo = split_halfplanes(s)
    assert len(up) + len(lo) == len(s)
    if len(s):
        assert s.delta_floor == pytest.approx(min(abs(p.imag) for p in pts))
        assert s.delta_floor > 0


def test_serialization_roundtrip(tmp_path):
    s = make_family("kadec_perturbed", {"delta": 0.3, "eps": 0.1}, 4)
    path = tmp_path / "spec.txt"
    save_spectrum(s, path)
    s2 = load_spectrum(path)
    assert np.allclose(s.points, s2.points)
    assert s2.family_tag == "kadec_perturbed"
    assert s2.family_params["delta"] == pytest.approx(0.3)


def test_serialization_custom_no_header(tmp_path):
    s = Spectrum(np.array([0.5 + 0.25j, -2j]))
    path = tmp_path / "pts.txt"
    save_spectrum(s, path)
    s2 = load_spectrum(path)
    assert np.allclose(s.points, s2.points)
    assert s2.family_tag is None
