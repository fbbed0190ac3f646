"""Spectra of complex frequencies: construction, validation, indexing.

A spectrum is a finite window of a (conceptually infinite) set of
non-real frequencies.  A built-in family's spectrum carries the points
beyond its window as `Spectrum.tail`, from which the product, Blaschke and
Carleson evaluators take their analytic tails; a custom point list has no
tail and is taken as the whole zero set.

The pair kernels over (points x spectrum) live here too.  Points in the
plane take a direct kernel, walked in blocks by row_blocks: log_products
(G, G', B, B', beta), collisions, inverse_square_sums and cauchy_sums (the
Cauchy sums of a coefficient matrix's columns: on the disk K, and for the
outer factor).  Real points take the near and far field of one panel
walker, _panels, under three reductions: line_log_abs (log|G| on a line),
line_arg (arg G on the real line) and line_cauchy (the Cauchy sums on the
grid: the partial sums, the projector's interpolation sum and, per column
of a weight matrix, the operator of norm_lower_bounds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Points closer to the real axis than this are rejected: Blaschke
# factors and the (lambda - z)/lambda products degenerate there.
MIN_IMAG = 1e-12

# families with a formula for the points beyond the window
LATTICE_FAMILIES = ("shifted_integers", "kadec_perturbed", "clustered_pairs")
FAMILY_NAMES = LATTICE_FAMILIES + ("custom_list",)

# Elements per block of a (points x spectrum) pair kernel: a float64 block
# is 128 KiB, so a block's temporaries stay in a core's L2 cache.
BLOCK_BUDGET = 2**14


def block_rows(n_cols: int) -> int:
    """Rows per block of a pair kernel with n_cols columns (at least one).

    Every pair kernel but one reduces along its columns, one row at a time,
    so the block size cannot change a single bit of its output.  The BLAS
    Cauchy sums (line_cauchy, which engine.sample_sums, the projector check
    and engine.norm_lower_bounds call) multiply whole blocks, whose rounding depends
    on the block shape: they move by ~1e-15 relative."""
    return max(1, BLOCK_BUDGET // max(n_cols, 1))


def row_blocks(n_rows: int, n_cols: int, *dtypes):
    """Yields (rows, *bufs) per block of a pair kernel over n_rows points:
    rows slices range(n_rows) into blocks of block_rows(n_cols) rows, with
    one (block x n_cols) buffer per dtype, made once per call; the kernel
    fills them with ufunc out= writes, so no block allocates.  A block (128
    KiB float, 256 KiB complex) is at or above glibc's default mmap
    threshold, so a buffer made per block was mmapped, and page-faulted, per
    block.  Only a ragged last block gets views of the buffers' first rows:
    per-block work in Python costs as much as a small block's arithmetic."""
    step = block_rows(n_cols)
    bufs = tuple(np.empty((min(step, n_rows), n_cols), dtype) for dtype in dtypes)
    last = n_rows - n_rows % step  # where the whole blocks end
    for i in range(0, last, step):
        yield (slice(i, i + step),) + bufs
    if last < n_rows:
        yield (slice(last, n_rows),) + tuple(b[: n_rows - last] for b in bufs)


def squared_distances(z: np.ndarray, lam: np.ndarray, d2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|z_i - lam_j|^2 = (Re z_i - Re lam_j)^2 + (Im z_i - Im lam_j)^2 in real
    arithmetic, written into d2 (t is scratch) and returned."""
    np.subtract(z.real[:, None], lam.real, out=d2)
    d2 *= d2
    np.subtract(z.imag[:, None], lam.imag, out=t)
    t *= t
    d2 += t
    return d2


def collisions(z: np.ndarray, lam: np.ndarray, tol2, skip: np.ndarray | None = None) -> np.ndarray:
    """Per point z_i: is there a j != skip[i] with |z_i - lam_j|^2 <= tol2_j
    (tol2 a scalar or one per lam)?  Exact in floating point, and only the
    columns that can collide are tested: fl(fl(dx^2) + fl(dy^2)) >= fl(dy^2),
    and fl(dy^2) is smallest at the Im z nearest to Im lam_j."""
    hit = np.zeros(z.shape, dtype=bool)
    if not z.size:
        return hit
    tol2 = np.broadcast_to(tol2, lam.shape)
    dy = np.clip(lam.imag, z.imag.min(), z.imag.max()) - lam.imag
    cols = np.flatnonzero(dy * dy <= tol2)
    if not cols.size:
        return hit
    near, tol2 = lam[cols], tol2[cols]
    for rows, d2, t, bad in row_blocks(z.size, cols.size, float, float, bool):
        np.less_equal(squared_distances(z[rows], near, d2, t), tol2, out=bad)
        if skip is not None:  # a point's own column, where it is tested
            j = np.minimum(np.searchsorted(cols, skip[rows]), cols.size - 1)
            own = np.flatnonzero(cols[j] == skip[rows])
            bad[own, j[own]] = False
        np.any(bad, axis=1, out=hit[rows])
    return hit


def inverse_square_sums(z: np.ndarray, lam: np.ndarray, w: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """sum_j w_j/|z_i - lam_j|^2 per point z_i in real arithmetic; with skip,
    point i leaves out column skip[i] (w/inf = 0)."""
    out = np.empty(z.shape)
    for rows, d2, t in row_blocks(z.size, lam.size, float, float):
        squared_distances(z[rows], lam, d2, t)
        if skip is not None:
            d2[np.arange(d2.shape[0]), skip[rows]] = np.inf
        np.divide(w, d2, out=d2)
        np.sum(d2, axis=1, out=out[rows])
    return out


def cauchy_sums(z: np.ndarray, lam: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k A[k, s]/(z_i - lambda_k) per point z_i and column s of the
    (lam.size, S) matrix A: the (z.size, S) Cauchy sums of its columns.

    1/d, d = z - lambda, is formed once per block, in real arithmetic, as
    log_products' products are: 1/d = conj(d) |d|^-2, so no bit rests on
    whether numpy takes a fused (FMA) loop for a complex multiply of some
    length or layout.  Each column is then reduced row by row, so no bit
    depends on the block size or on the other columns.  |d|^2 is formed as
    is: finite and nonzero for 1e-154 < |d| < 1e154."""
    out = np.empty((z.size, A.shape[1]), dtype=complex)
    cr, ci = A.real.T.copy(), A.imag.T.copy()  # one contiguous row per column
    lr, li = lam.real.copy(), lam.imag.copy()
    for rows, dr, di, m, p in row_blocks(z.size, lam.size, float, float, float, float):
        np.subtract(z.real[rows, None], lr, out=dr)
        np.subtract(z.imag[rows, None], li, out=di)
        np.multiply(dr, dr, out=m)
        m += np.multiply(di, di, out=p)
        np.divide(1.0, m, out=m)
        dr *= m  # Re 1/d
        di *= m  # -Im 1/d
        for s in range(A.shape[1]):
            np.multiply(dr, cr[s], out=p)
            p += np.multiply(di, ci[s], out=m)
            np.add.reduce(p, axis=1, out=out.real[rows, s])
            np.multiply(dr, ci[s], out=p)
            p -= np.multiply(di, cr[s], out=m)
            np.add.reduce(p, axis=1, out=out.imag[rows, s])
    return out


# The panels of the line kernels (line_log_abs, line_arg, line_cauchy): width,
# near radius and Chebyshev points.  Fixed, and independent of BLOCK_BUDGET: a
# node's value depends on the node and the spectrum alone.
PANEL_WIDTH = 4.0
PANEL_RADIUS = 8.0
PANEL_POINTS = 16
_THETA = (2 * np.arange(PANEL_POINTS) + 1) * np.pi / (2 * PANEL_POINTS)
_CHEB = 0.5 * PANEL_WIDTH * np.cos(_THETA)  # offsets from a panel's centre
_BARY = np.where(np.arange(PANEL_POINTS) % 2, -1.0, 1.0) * np.sin(_THETA)


def _panels(x: np.ndarray, lre: np.ndarray):
    """The panel walk of the line kernels: near and far field (Dutt, Gu and
    Rokhlin, SIAM J. Numer. Anal. 33, 1996) for real nodes x against columns
    whose real parts lre are sorted ascending.

    Yields (nodes, t, lo, hi) per panel [k W, (k + 1) W], W = PANEL_WIDTH,
    that holds a node: nodes indexes its nodes, t is its PANEL_POINTS
    first-kind Chebyshev points, lre[lo:hi] are its near columns, those with
    |lre - centre| <= W/2 + PANEL_RADIUS, and lre[:lo] and lre[hi:] its far
    columns."""
    if not x.size:
        return
    panel = np.floor(x / PANEL_WIDTH)
    by_panel = np.argsort(panel, kind="stable")
    ends = np.flatnonzero(np.diff(panel[by_panel])) + 1
    for nodes in np.split(by_panel, ends):
        left = panel[nodes[0]] * PANEL_WIDTH
        lo = np.searchsorted(lre, left - PANEL_RADIUS, "left")
        hi = np.searchsorted(lre, left + PANEL_WIDTH + PANEL_RADIUS, "right")
        yield nodes, (left + 0.5 * PANEL_WIDTH) + _CHEB, lo, hi


def _line_sums(x: np.ndarray, lre: np.ndarray, sums, interpolate, out: np.ndarray) -> np.ndarray:
    """Writes into out[i] a sum over every column at node x_i, with
    sums(t, cols) the sum over the columns cols (a slice of lre's order) at
    each point t: the near columns at the node itself, the far ones summed at
    the panel's Chebyshev points and interpolated (_interpolate or
    _interpolate_columns).  Returns out, as it came when there are no
    columns."""
    if lre.size:
        for nodes, t, lo, hi in _panels(x, lre):
            far = sums(t, slice(None, lo))
            far += sums(t, slice(hi, None))
            xs = x[nodes]
            out[nodes] = sums(xs, slice(lo, hi)) + interpolate(xs, t, far)
    return out


def _log_d2_sums(t: np.ndarray, lre: np.ndarray, dy2: np.ndarray, log_l2: np.ndarray) -> np.ndarray:
    """sum_j log((t_i - lre_j)^2 + dy2_j) - log_l2_j per point t_i, in column order."""
    out = np.empty(t.shape)
    for rows, d2 in row_blocks(t.size, lre.size, float):
        np.subtract(t[rows, None], lre, out=d2)
        d2 *= d2
        d2 += dy2
        np.log(d2, out=d2)
        d2 -= log_l2
        np.add.reduce(d2, axis=1, out=out[rows])
    return out


def _arg_sums(t: np.ndarray, lre: np.ndarray, dim: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """sum_j arctan2(dim_j, lre_j - t_i) - arg_j per point t_i, in column order."""
    out = np.empty(t.shape)
    for rows, d in row_blocks(t.size, lre.size, float):
        np.subtract(lre, t[rows, None], out=d)
        np.arctan2(dim, d, out=d)
        d -= arg
        np.add.reduce(d, axis=1, out=out[rows])
    return out


def _cauchy_products(z: np.ndarray, lam: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k A[k, s]/(z_i - lam_k) per point z_i and column s, by BLAS per
    block: the one complex form of 1/(z - lambda)."""
    out = np.empty((z.size, A.shape[1]), dtype=complex)
    for rows, c in row_blocks(z.size, lam.size, complex):
        np.subtract(z[rows, None], lam, out=c)
        np.matmul(np.divide(1.0, c, out=c), A, out=out[rows])
    return out


def _bary_weights(x: np.ndarray, t: np.ndarray, q: np.ndarray) -> tuple:
    """Fills q with the barycentric weights b_k/(x_i - t_k) of the first-kind
    Chebyshev points t of one panel (inf at x_i = t_k), and returns the
    (i, k) pairs where x_i = t_k."""
    np.subtract(x[:, None], t, out=q)
    hit = np.nonzero(q == 0.0)
    with np.errstate(divide="ignore"):  # an x_i on t_k: taken by the caller
        np.divide(_BARY, q, out=q)
    return hit


def _interpolate(x: np.ndarray, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The polynomial through (t_k, f_k) at the first-kind Chebyshev points t
    of one panel, at every x_i, by the barycentric formula
    sum_k (b_k f_k/(x - t_k)) / sum_k (b_k/(x - t_k)), row by row; f_k itself
    at x_i = t_k.  The middle value c is taken out of f and added back, so
    the rounding of the quotient scales with the variation of f, not its
    size."""
    c = f[PANEL_POINTS // 2]
    g = f - c
    out = np.empty(x.shape)
    for rows, q, p in row_blocks(x.size, PANEL_POINTS, float, float):
        hit = _bary_weights(x[rows], t, q)
        with np.errstate(invalid="ignore"):  # inf/inf on a hit row, replaced below
            np.divide(np.add.reduce(np.multiply(q, g, out=p), axis=1), np.add.reduce(q, axis=1), out=out[rows])
        out[rows][hit[0]] = g[hit[1]]
    out += c
    return out


def _interpolate_columns(x: np.ndarray, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """_interpolate for complex f with one row of S columns per Chebyshev
    point: the numerators of all columns are one real matrix product, on the
    real and imaginary parts side by side."""
    c = f[PANEL_POINTS // 2]
    g = f - c
    q = np.empty((x.size, PANEL_POINTS))
    hit = _bary_weights(x, t, q)
    with np.errstate(invalid="ignore"):  # inf/inf on a hit row, replaced below
        out = (q @ g.view(float)).view(complex)
        out /= np.add.reduce(q, axis=1)[:, None]
    out[hit[0]] = g[hit[1]]
    out += c
    return out


def line_log_abs(x: np.ndarray, a: float, lam: np.ndarray) -> np.ndarray:
    """sum_j log|1 - (x_i + ia)/lam_j| per real x_i, in real arithmetic: half
    of sum_j log(((x_i - Re lam_j)^2 + (a - Im lam_j)^2)/|lam_j|^2).

    Near and far field on the panels of _panels: a node in the panel
    [k W, (k + 1) W] sums its near points, those with
    |Re lam - centre| <= W/2 + R, directly, one row per node; the far sum f(t)
    is interpolated from its values at the panel's n = PANEL_POINTS
    first-kind Chebyshev points.  W = PANEL_WIDTH, R = PANEL_RADIUS, and
    every sum runs in a fixed order, so no bit depends on the block size or
    on the other nodes of the call.

    Error bound (Trefethen, Approximation Theory and Approximation Practice,
    Thm 8.2).  In the panel's variable s = (t - centre)/(W/2), f is analytic
    off the points s = (lam_j - ia - centre)/(W/2) and their conjugates,
    whose real parts exceed 1 + 2R/W = 5 in modulus: so inside the Bernstein
    ellipse E_rho for every rho < 5 + sqrt(24) = 9.90.  There, with semi-axis
    A_rho = (rho + 1/rho)/2 and d_j = |Re lam_j - centre|/(W/2),
    |f(s) - f(0)| <= M = sum_far -log(1 - A_rho/d_j).  The interpolant in n
    first-kind points reproduces constants and aliases each T_m (m >= n)
    onto +-T_k (k < n) or 0, so Thm 8.2's argument gives
    |error| <= 4 M rho^-(n-1)/(rho - 1).  At rho = 9.5 (A_rho = 4.80) that is
    1.0e-15 M, and a far point adds at most -log(1 - 4.80/5) = 3.2 to M.
    M is 60-410 on the built-in families and on 599 points 0.05 apart, so
    n = 16 is the least count whose bound (4e-13 at most there) stays below
    1e-12: n = 15 gives 4e-12."""
    order = np.argsort(lam.real, kind="stable")
    lre, lim = lam.real[order], lam.imag[order]
    log_l2 = np.log(lre * lre + lim * lim)
    dy2 = (a - lim) ** 2
    out = _line_sums(x, lre, lambda t, c: _log_d2_sums(t, lre[c], dy2[c], log_l2[c]),
                     _interpolate, np.zeros(x.shape))
    out *= 0.5
    return out


def line_arg(x: np.ndarray, a: float, lam: np.ndarray) -> np.ndarray:
    """sum_j [arctan2(Im lam_j - a, Re lam_j - x_i) - arg lam_j] per real x_i, in
    real arithmetic: the argument of prod_j (1 - (x_i + ia)/lam_j), modulo 2 pi.

    Near and far field on the panels of line_log_abs, with its bound.  For
    real x the term is arg(mu_j - x) - arg lam_j with mu_j = lam_j - ia, that
    is (log(mu_j - x) - log(conj mu_j - x))/(2i) up to a constant, while
    line_log_abs's term is half the sum of the same two logs.  So the far sum
    is analytic off the same points mu_j and conj mu_j, inside the same
    Bernstein ellipse E_rho, and since |log(1 - u)| <= -log(1 - |u|), it
    obeys the same |f(s) - f(0)| <= M = sum_far -log(1 - A_rho/d_j) and the
    same |error| <= 4 M rho^-15/(rho - 1) = 1.0e-15 M at rho = 9.5.  Each
    term is continuous along the line, except at x = Re lam_j where
    Im lam_j = a: a zero of the product, which only a near point can be."""
    order = np.argsort(lam.real, kind="stable")
    lre, lim = lam.real[order], lam.imag[order]
    dim, arg = lim - a, np.arctan2(lim, lre)
    return _line_sums(x, lre, lambda t, c: _arg_sums(t, lre[c], dim[c], arg[c]),
                      _interpolate, np.zeros(x.shape))


def line_cauchy(x: np.ndarray, lam: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k A[k, s]/(x_i - lam_k) per real x_i and column s of the
    (lam.size, S) matrix A: the (x.size, S) Cauchy sums of its columns.

    Near and far field on the panels of line_log_abs; the near sums and the
    far sums at the Chebyshev points are BLAS products, so their last bits
    depend on the block shape.  Error bound (ATAP Thm 8.2, as in
    line_log_abs): in the panel's variable s, a far term A_k/(x - lam_k) is
    A_k/((W/2)(s - sigma_k)), sigma_k = (lam_k - centre)/(W/2), |sigma_k| >=
    |Re sigma_k| > 5.  E_rho lies in |s| <= A_rho, so on it
    |s - sigma_k| >= |sigma_k| (1 - A_rho/5), while at a node
    |s - sigma_k| <= |sigma_k| (1 + 1/5): the far sum is bounded on E_rho by
    M = 1.2/(1 - A_rho/5) sum_far |A_k|/|x_i - lam_k|, and the error by
    4 M rho^-15/(rho - 1).  At rho = 9.25 (A_rho = 4.68) that is
    2.9e-14 sum_far |A_k|/|x_i - lam_k|."""
    out = np.zeros((x.size, A.shape[1]), dtype=complex)
    order = np.argsort(lam.real, kind="stable")
    lam, A = lam[order], A[order]
    return _line_sums(x, lam.real, lambda t, c: _cauchy_products(t, lam[c], A[c]),
                      _interpolate_columns, out)


def unique_sorted(a) -> np.ndarray:
    """The distinct values of a, sorted: np.unique without its lazy import of
    numpy.ma."""
    s = np.sort(np.ravel(a))
    keep = np.ones(s.shape, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


# Factors per block product of a log-sum.  A product of b factors has a
# relative rounding error of about b*u (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3), so one log per block keeps the digits that
# exp(log) needs.  Fixed, and independent of BLOCK_BUDGET: the row blocking
# still changes no bit.
LOG_BLOCK = 16
_LOG_TINY = float(np.log(np.finfo(float).tiny))


def log_products(z: np.ndarray, zeros: np.ndarray, poles: np.ndarray | None = None,
                 skip: np.ndarray | None = None) -> np.ndarray:
    """Sum over j of log f_j(z_i) per point z_i (1-d): f_j = (zeros_j - z)/zeros_j,
    with the reciprocals formed once per call, or, with poles,
    f_j = (z - zeros_j)/(z - poles_j).  The only block log-product of G, G', B,
    B' and beta: with skip, point i leaves out factor skip[i] (an exact 1).

    One log (modulus and argument) per product of a block of LOG_BLOCK
    consecutive factors, in the given order (the last block is padded with
    ones); Im is defined modulo 2 pi.  A row with a block product that is 0,
    inf, NaN or subnormal falls back to one log per factor (log 0 = -inf,
    exact).  A block multiplies pairwise (member j with j + 8, then j + 4,
    ...), in real arithmetic: numpy's complex multiply may take a fused (FMA)
    path that depends on the memory layout, and so on the row blocking, while
    separate real multiplies and adds round the same way on every path."""
    out = np.empty(z.shape, dtype=complex)
    n, nb = zeros.size, -(-zeros.size // LOG_BLOCK)
    rows = min(block_rows(n), z.size)
    pad = np.ones((rows, nb * LOG_BLOCK), dtype=complex)  # the last block's padding stays 1
    members = pad.reshape(rows, nb, LOG_BLOCK).transpose(2, 0, 1)  # (member, row, block)
    re, im = np.empty((2, LOG_BLOCK, rows, nb))
    t, mod = np.empty((LOG_BLOCK // 2, rows, nb)), np.empty((rows, nb))
    inv = 1.0 / zeros if poles is None else None
    den = None if poles is None else np.empty((rows, n), dtype=complex)
    for (blk,) in row_blocks(z.size, n):
        zc, r = z[blk, None], blk.stop - blk.start
        f = pad[:r, :n]
        if poles is None:
            np.subtract(zeros, zc, out=f)
            f *= inv
        else:
            np.subtract(zc, poles, out=den[:r])
            np.subtract(zc, zeros, out=f)
            f /= den[:r]
        if skip is not None:
            f[np.arange(r), skip[blk]] = 1.0
        br, bi, bm = re[:, :r], im[:, :r], mod[:r]
        np.copyto(br, members[:, :r].real)
        np.copyto(bi, members[:, :r].imag)
        h = LOG_BLOCK
        with np.errstate(all="ignore"):  # an overflow or a zero sends its row to the fallback
            while h > 1:
                h //= 2
                ar, ai, cr, ci, th = br[:h], bi[:h], br[h : 2 * h], bi[h : 2 * h], t[:h, :r]
                np.multiply(ai, ci, out=th)
                ai *= cr
                np.multiply(ar, ci, out=ci)  # ci is not read again
                ai += ci
                ar *= cr
                ar -= th
            np.hypot(br[0], bi[0], out=bm)
            np.log(bm, out=bm)
        out[blk] = bm.sum(axis=1) + 1j * np.arctan2(bi[0], br[0]).sum(axis=1)
        bad = ~((bm >= _LOG_TINY) & (bm < np.inf)).all(axis=1)
        if np.any(bad):
            with np.errstate(divide="ignore"):  # log 0 = -inf, exact
                out[blk][bad] = np.log(f[bad]).sum(axis=1)
    return out


def touching(z: np.ndarray, pts: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """collisions at |z_i - pts_j| <= 1e-12 max(1, |pts_j|): the one rule by
    which G refuses a zero and B a pole."""
    return collisions(z, pts, (1e-12 * np.maximum(1.0, np.abs(pts))) ** 2, skip)


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
    """Finite window of frequencies, sorted by (|lambda|, arg lambda), and the
    family points beyond it (None: the window is the whole zero set).

    Immutable after construction; safe to share across workers.
    """

    points: np.ndarray
    tail: LatticeTail | None = None

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
    def radius(self) -> float:
        """Largest |lambda| stored in the window."""
        if not len(self):
            return 0.0
        return float(np.abs(self.points[-1]))


def _lattice(name: str, params: dict, count) -> tuple[np.ndarray, LatticeTail]:
    """The window |k| <= count of a lattice family and the family points
    beyond it, side by side: the one place each family's formula lives.

    shifted_integers: k + i*delta
    kadec_perturbed:  k + eps*(-1)^k + i*delta (eps defaults to 0)
    clustered_pairs:  i*delta, and k + i*delta, k + i*delta + eps/|k| for
                      k != 0 (a Carleson-violating family); beyond the
                      window its second copy is folded into the base lattice

    Every parameter read (a number, or the text of one) must be finite, with
    delta > 0 and count a whole number >= 0; clustered_pairs needs eps != 0
    and count >= 1 (its slope_slack divides by count**2).
    """
    if name not in LATTICE_FAMILIES:
        raise SpectrumError(f"unknown family name: {name!r}")

    def finite(key: str, val) -> float:
        try:
            out = float(val)
        except (TypeError, ValueError):
            out = np.nan
        if not np.isfinite(out):
            raise SpectrumError(f"{name} needs a finite parameter {key!r}, got {val!r}")
        return out

    n = finite("count", count)
    if n != round(n):
        raise SpectrumError(f"{name} needs a whole number 'count', got {count!r}")
    n = int(n)
    delta = finite("delta", params.get("delta"))
    if delta <= 0:
        raise SpectrumError(f"{name} needs delta > 0")
    least = 1 if name == "clustered_pairs" else 0
    if n < least:
        raise SpectrumError(f"{name} needs 'count' >= {least}, got {n}")
    ks = np.arange(-n, n + 1)
    if name == "shifted_integers":
        return ks + 1j * delta, LatticeTail((Sublattice(1j * delta, 1, 0, n + 1),))
    if name == "kadec_perturbed":
        eps = finite("eps", params.get("eps", 0.0))
        pts = ks + eps * np.where(ks % 2 == 0, 1.0, -1.0) + 1j * delta
        even = Sublattice(eps + 1j * delta, 2, 0, (n + 2) // 2)
        odd = Sublattice(-eps + 1j * delta, 2, 1, (n + 1) // 2)
        return pts, LatticeTail((even, odd))
    eps = finite("eps", params.get("eps"))
    if eps == 0:
        raise SpectrumError("clustered_pairs needs eps != 0")
    base = np.concatenate([-ks[n + 1 :], ks[n + 1 :]]) + 1j * delta
    pts = np.concatenate([[1j * delta], base, base + eps / np.abs(base.real)])
    return pts, LatticeTail((Sublattice(1j * delta, 1, 0, n + 1, weight=2),), slope_slack=2.0 * abs(eps) / n**2)


def make_family(name: str, params: dict, count: int) -> Spectrum:
    """The window |k| <= count of a lattice family (see _lattice) with its
    tail.  A custom point list is a Spectrum(points), or a file read by
    load_spectrum."""
    return Spectrum(*_lattice(name, params, count))


def split_halfplanes(s: Spectrum) -> tuple[Spectrum, Spectrum]:
    """(Lambda+, Lambda-) by the sign of Im lambda; both keep sort order.  The
    tail goes with Lambda+: its sites sit at height delta > 0."""
    return Spectrum(s.points[s.points.imag > 0], s.tail), Spectrum(s.points[s.points.imag < 0])


def load_spectrum(path) -> Spectrum:
    """Text format: 're im' per line, after an optional header
    '# family=<name> key=value ...', with keys among family, count, delta and
    eps, each at most once.  The name is custom_list (no tail) or a lattice
    family, whose tail the header's keys give through _lattice, by
    make_family's rules.  The tail continues the window of the file's upper
    half-plane points (2 count + 1 of them, 4 count + 1 for clustered_pairs):
    a header without count takes it from them, and a count, given or
    inferred, whose window is not those points is an error.  A file without
    a point is an error."""
    header: dict = {}
    pts = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                for key, val in (tok.split("=", 1) for tok in line[1:].split() if "=" in tok):
                    if key not in ("family", "count", "delta", "eps") or key in header:
                        why = "repeated" if key in header else "unknown"
                        raise SpectrumError(f"{path}, line {ln}: {why} header key {key!r}")
                    header[key] = val
            elif line:
                try:
                    re_s, im_s = line.split()
                    pts.append(complex(float(re_s), float(im_s)))
                except ValueError as e:
                    raise SpectrumError(f"{path}, line {ln}: expected 're im', got {line!r}") from e
    if not pts:
        raise SpectrumError(f"{path}: no points")
    pts, tag, tail = np.array(pts, dtype=complex), header.get("family", "custom_list"), None
    if tag != "custom_list":
        upper = int(np.count_nonzero(pts.imag > 0))  # the tail sites sit at +delta
        count = header.get("count", (upper - 1) // (4 if tag == "clustered_pairs" else 2))  # 4 or 2 points per k
        window, tail = _lattice(tag, header, count)
        if window.size != upper:
            raise SpectrumError(f"{path}: count={count} is a window of {window.size} points, "
                                f"the file has {upper} in the upper half-plane")
    return Spectrum(pts, tail)
