"""Spectra of complex frequencies: construction, validation, indexing.

A spectrum is a finite window of a (conceptually infinite) set of
non-real frequencies.  Built-in families describe the points beyond the
window through `Spectrum.lattice_tail`, from which the product, Blaschke
and Carleson evaluators derive their analytic tails; custom point lists
have no descriptor and get an uncontrolled-tail flag instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Points closer to the real axis than this are rejected: Blaschke
# factors and the 1 - z/lambda products degenerate there.
MIN_IMAG = 1e-12

# families with a formula for the points beyond the window
LATTICE_FAMILIES = ("shifted_integers", "kadec_perturbed", "clustered_pairs")
FAMILY_NAMES = LATTICE_FAMILIES + ("custom_list",)


class SpectrumError(ValueError):
    """A point set violates the spectrum invariants."""


@dataclass(frozen=True)
class Sublattice:
    """The points c + q_m and c - q_m, q_m = spacing*m + offset, m >= start,
    each counted `weight` times."""

    c: complex
    spacing: int
    offset: int
    start: int
    weight: int = 1


@dataclass(frozen=True)
class LatticeTail:
    """Family points beyond the stored window, as symmetric sublattices.

    slope_slack u bounds the error of the description itself:
    |tail log error| <= u |z| (the clustered family's second copy is
    folded into its base lattice).
    """

    sublattices: tuple[Sublattice, ...]
    slope_slack: float = 0.0

    @property
    def delta(self) -> float:
        """Common height Im c of the tail sites."""
        return self.sublattices[0].c.imag

    @property
    def first_site(self) -> int:
        """Smallest |Re| offset q_m of a tail site from Re c."""
        return min(sl.spacing * sl.start + sl.offset for sl in self.sublattices)

    @property
    def density(self) -> float:
        """Tail sites per unit length on each side."""
        return sum(sl.weight / sl.spacing for sl in self.sublattices)


def _sort_points(pts: np.ndarray) -> np.ndarray:
    # |lambda| ascending, ties broken by argument ascending
    order = np.lexsort((np.angle(pts), np.abs(pts)))
    return pts[order]


@dataclass
class Spectrum:
    """Finite window of frequencies, sorted by (|lambda|, arg lambda).

    Immutable after construction; safe to share across workers.
    """

    points: np.ndarray
    family_tag: str | None = None
    family_params: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        pts = _sort_points(pts)
        if not np.all(np.isfinite(pts)):
            raise SpectrumError("non-finite spectrum point")
        if pts.size and np.min(np.abs(pts.imag)) < MIN_IMAG:
            raise SpectrumError("spectrum touching the real axis: |Im lambda| < 1e-12")
        if pts.size > 1:
            # sorted order puts exact duplicates next to each other
            if np.any(pts[1:] == pts[:-1]):
                raise SpectrumError("duplicate spectrum points")
        pts.flags.writeable = False
        self.points = pts

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.points)

    @property
    def delta_floor(self) -> float:
        """min_k |Im lambda_k|; 0.0 for an empty window."""
        if not len(self):
            return 0.0
        return float(np.min(np.abs(self.points.imag)))

    @property
    def radius(self) -> float:
        """Largest |lambda| stored in the window."""
        if not len(self):
            return 0.0
        return float(np.abs(self.points[-1]))

    def lattice_tail(self) -> LatticeTail | None:
        """The family points beyond the stored window; None without a family
        formula.  When the params do not record `count` (a spectrum loaded
        from a file header), it is inferred from the number of stored points."""
        tag, p = self.family_tag, self.family_params
        if tag not in LATTICE_FAMILIES:
            return None

        def param(key: str, default: float | None = None) -> float:
            val = p.get(key, default)
            if val is None or isinstance(val, str) or not np.isfinite(val):
                raise SpectrumError(f"{tag} tail needs a finite parameter {key!r}, got {val!r}")
            return float(val)

        sites_per_k = 4 if tag == "clustered_pairs" else 2
        n = int(round(param("count", (len(self) - 1) // sites_per_k)))
        if n < (1 if tag == "clustered_pairs" else 0):  # its slack divides by n**2
            raise SpectrumError(f"{tag} window of {len(self)} points is too small for a tail")
        if tag == "shifted_integers":
            return LatticeTail((Sublattice(1j * param("delta"), 1, 0, n + 1),))
        if tag == "kadec_perturbed":
            delta, eps = param("delta"), param("eps", 0.0)
            even = Sublattice(eps + 1j * delta, 2, 0, (n + 2) // 2)
            odd = Sublattice(-eps + 1j * delta, 2, 1, (n + 1) // 2)
            return LatticeTail((even, odd))
        # clustered_pairs
        base = Sublattice(1j * param("delta"), 1, 0, n + 1, weight=2)
        return LatticeTail((base,), slope_slack=2.0 * abs(param("eps")) / n**2)


@dataclass(frozen=True)
class TruncationIndex:
    """Indices of the points with |lambda| < n (a prefix of the sorted order)."""

    n: float
    included: np.ndarray

    def __len__(self) -> int:
        return int(self.included.size)


def make_family(name: str, params: dict, count: int) -> Spectrum:
    """Build one of the test families.

    shifted_integers: {k + i*delta : |k| <= count}
    kadec_perturbed:  {k + eps*(-1)^k + i*delta : |k| <= count}
    clustered_pairs:  i*delta plus pairs {k + i*delta, k + i*delta + eps/|k|}
                      for 1 <= |k| <= count (a Carleson-violating family)
    custom_list:      params["points"], count must match
    """
    if count < 1:
        raise SpectrumError("count must be >= 1")
    if name == "shifted_integers":
        delta = float(params["delta"])
        if delta <= 0:
            raise SpectrumError("shifted_integers needs delta > 0")
        ks = np.arange(-count, count + 1)
        pts = ks + 1j * delta
    elif name == "kadec_perturbed":
        delta = float(params["delta"])
        eps = float(params.get("eps", 0.0))
        if delta <= 0:
            raise SpectrumError("kadec_perturbed needs delta > 0")
        ks = np.arange(-count, count + 1)
        pts = ks + eps * np.where(ks % 2 == 0, 1.0, -1.0) + 1j * delta
    elif name == "clustered_pairs":
        delta = float(params["delta"])
        eps = float(params["eps"])
        if delta <= 0:
            raise SpectrumError("clustered_pairs needs delta > 0")
        if eps == 0:
            raise SpectrumError("clustered_pairs needs eps != 0")
        ks = np.arange(1, count + 1)
        base = np.concatenate([-ks, ks]) + 1j * delta
        shifted = base + eps / np.abs(base.real)
        pts = np.concatenate([[1j * delta], base, shifted])
    elif name == "custom_list":
        pts = np.asarray(params["points"], dtype=complex)
        if pts.size != count:
            raise SpectrumError("custom_list: count must equal len(points)")
    else:
        raise SpectrumError(f"unknown family name: {name!r}")
    stored = dict(params)
    if name != "custom_list":
        stored["count"] = count
        stored.pop("points", None)
    return Spectrum(pts, family_tag=name, family_params=stored)


def split_halfplanes(s: Spectrum) -> tuple[Spectrum, Spectrum]:
    """(Lambda+, Lambda-) by the sign of Im lambda; both keep sort order."""
    up = s.points[s.points.imag > 0]
    lo = s.points[s.points.imag < 0]
    return (
        Spectrum(up, family_tag=s.family_tag, family_params=dict(s.family_params)),
        Spectrum(lo, family_tag=s.family_tag, family_params=dict(s.family_params)),
    )


def truncation_at(s: Spectrum, n: float) -> TruncationIndex:
    """Index set {k : |lambda_k| < n}; monotone in n."""
    if n <= 0:
        raise SpectrumError("truncation radius must be > 0")
    stop = int(np.searchsorted(s.moduli, n, side="left"))
    idx = np.arange(stop)
    idx.flags.writeable = False
    return TruncationIndex(n=float(n), included=idx)


def save_spectrum(s: Spectrum, path) -> None:
    """Text format: optional '# family=...' header, then 're im' per line."""
    with open(path, "w") as fh:
        if s.family_tag is not None:
            items = " ".join(
                f"{k}={v!r}" for k, v in sorted(s.family_params.items()) if k != "points"
            )
            fh.write(f"# family={s.family_tag} {items}".rstrip() + "\n")
        for p in s.points:
            fh.write(f"{p.real:.17g} {p.imag:.17g}\n")


def load_spectrum(path) -> Spectrum:
    tag = None
    params: dict = {}
    pts = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                for tok in body.split():
                    if "=" not in tok:
                        continue
                    key, val = tok.split("=", 1)
                    if key == "family":
                        tag = val
                    else:
                        try:
                            params[key] = float(val)
                        except ValueError:
                            params[key] = val
                continue
            try:
                re_s, im_s = line.split()
                pts.append(complex(float(re_s), float(im_s)))
            except ValueError as e:
                raise SpectrumError(f"{path}, line {ln}: expected 're im', got {line!r}") from e
    return Spectrum(np.array(pts, dtype=complex), family_tag=tag, family_params=params)
