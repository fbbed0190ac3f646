"""Spectra of complex frequencies: construction, validation, indexing.

A spectrum is a finite window of a (conceptually infinite) set of
non-real frequencies.  A built-in family's spectrum carries the points
beyond its window as `Spectrum.tail`, from which the product, Blaschke and
Carleson evaluators take their analytic tails; a custom point list has no
tail and is taken as the whole zero set.

The pair kernels over (points x spectrum) live here too.  Points in the
plane take a direct kernel, walked in blocks by row_blocks: log_products
(G, and G' off one height), blaschke_logs (B, B', beta and log|B| of every
zero set in C+, in real arithmetic), collisions, inverse_square_sums,
cauchy_sums (the one complex Cauchy kernel: the disk K and line_cauchy's
panels) and real_cauchy_sums (real nodes and weights: the outer factor).
A window whose points share one height delta (Spectrum.height: every
lattice family's) has real differences lam_j - lam_k, and G' at its nodes
runs in the one dimension Re lam_j - Re lam_k: one_height_self_logs, with
one_height_touching as its collision rule.  Real points take the near and
far field of one panel tree, _line_sums, whose one walk gives every sum its
caller asks for: line_log_abs (log|G| on a line), line_log_products (log G
and the Cauchy sums on the real line: G and the partial sums on converge's
grid) and line_cauchy (the Cauchy sums alone: the projector's
interpolation sum and, per column of a weight matrix, the operator of
norm_lower_bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    Cauchy sums (cauchy_sums, on the disk K of engine.compactwise_errors and
    in the line walk on the grid, for engine.sample_sums, the projector
    check and engine.norm_lower_bounds) multiply whole blocks, whose
    rounding depends on the block shape: they move by ~1e-15 relative."""
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
    columns that can collide are tested: those whose distance to the box
    [min Re z, max Re z] x [min Im z, max Im z] can reach tol2_j.

    The pair kernel forms fl(fl(u^2) + fl(v^2)), u = fl(Re z_i - Re lam_j)
    and v = fl(Im z_i - Im lam_j).  With dy = clip(Im lam_j, min Im z,
    max Im z) - Im lam_j, exact or rounded the same way, |v| >= |dy|:
    subtraction rounds monotonically, and Im z_i lies on the far side of the
    clip value from Im lam_j, or dy = 0.  So fl(v^2) >= fl(dy^2), and by the
    same argument for dx = clip(Re lam_j, min Re z, max Re z) - Re lam_j,
    fl(u^2) >= fl(dx^2); rounded addition is monotone in each argument, so
    no point collides with a column where fl(fl(dx^2) + fl(dy^2)) > tol2_j.
    The dy test runs on every column, the dx test on its survivors only.
    The box bounds skip NaN points, which collide with nothing."""
    hit = np.zeros(z.shape, dtype=bool)
    if not z.size:
        return hit
    tol2 = np.broadcast_to(tol2, lam.shape)
    dy = np.clip(lam.imag, np.fmin.reduce(z.imag), np.fmax.reduce(z.imag)) - lam.imag
    dy *= dy
    cols = np.flatnonzero(dy <= tol2)
    if not cols.size:
        return hit
    dx = np.clip(lam.real[cols], np.fmin.reduce(z.real), np.fmax.reduce(z.real)) - lam.real[cols]
    dx *= dx
    dx += dy[cols]
    cols = cols[dx <= tol2[cols]]
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


# The panel tree of the line walk (line_log_abs, line_log_products, line_cauchy).
# Level j has the panels [p W, (p + 1) W], W = PANEL_WIDTH 2^j, with near
# radius PANEL_RADIUS 2^j and PANEL_POINTS first-kind Chebyshev points; the
# parent of panel p is panel p // 2 of level j + 1, and the nodes sit in the
# leaves, level 0.  A panel takes its far sums from its parent only where the
# parent's far set holds at least TREE_MIN_FAR columns, and sums its far
# columns directly otherwise.  All fixed, and independent of BLOCK_BUDGET: a
# node's value depends on the node and the spectrum alone.
PANEL_WIDTH = 4.0
PANEL_RADIUS = 8.0
PANEL_POINTS = 16
TREE_MIN_FAR = 256
_THETA = (2 * np.arange(PANEL_POINTS) + 1) * np.pi / (2 * PANEL_POINTS)
_CHEB = 0.5 * PANEL_WIDTH * np.cos(_THETA)  # offsets from a leaf's centre
_BARY = np.where(np.arange(PANEL_POINTS) % 2, -1.0, 1.0) * np.sin(_THETA)


def _child_basis(side: float) -> np.ndarray:
    """The Lagrange basis of a panel's Chebyshev points at the points of its
    left (side -1) or right (side 1) child: row i holds l_k(s_i), s_i the
    child's i-th point in the parent's variable, by the barycentric formula."""
    s = 0.5 * (side + np.cos(_THETA))
    q = _BARY / (s[:, None] - np.cos(_THETA))
    return q / q.sum(axis=1, keepdims=True)


# carry a panel's far sums to its even (left) and odd (right) child's points
_TRANSFER = (_child_basis(-1.0), _child_basis(1.0))


def _near(level: int, p: float, lre: np.ndarray) -> tuple:
    """(left, lo, hi) of panel p of level: its left end, and its near columns
    lre[lo:hi], those with |lre - centre| <= W/2 + R."""
    scale = 2.0**level
    left = p * (PANEL_WIDTH * scale)
    lo = lre.searchsorted(left - PANEL_RADIUS * scale, "left")
    hi = lre.searchsorted(left + PANEL_WIDTH * scale + PANEL_RADIUS * scale, "right")
    return left, lo, hi


def _line_sums(x: np.ndarray, lam: np.ndarray, a: float = 0.0, log: bool = False, arg: bool = False,
               A: np.ndarray | None = None) -> list:
    """The one walk of the panel tree: at every real node x_i, the sums over
    the points lam that the caller asks for, one array each, in this order:
        log: sum_j log(((x_i - Re lam_j)^2 + (a - Im lam_j)^2)/|lam_j|^2);
        arg: sum_j [arctan2(Im lam_j - a, Re lam_j - x_i) - arg lam_j];
        A, a (lam.size, S) matrix: the (x.size, S) sums
             sum_k A[k, s]/(x_i - lam_k) (cauchy_sums; no pair where S = 0).
    Each output is 0 where lam is empty.  A leaf's path, its Chebyshev
    points, the differences x - Re lam (_pair_sums) and the barycentric
    weights (_interpolate) are formed once for every output, and each
    output keeps its own transfers and row reductions, so its bits do not
    depend on the other outputs of the walk.

    The points are sorted by Re lam.  A node sums its near columns, the
    points with |Re lam - centre| <= W/2 + R of its leaf, directly, at the
    node itself; the far ones at its leaf's Chebyshev points, interpolated.
    The far sums come down the panel tree (Dutt, Gu and Rokhlin, SIAM J.
    Numer. Anal. 33, 1996; Chebyshev transfers as in Fong and Darve, J.
    Comput. Phys. 228, 2009).  A panel whose parent's far set holds at least
    TREE_MIN_FAR columns takes its parent's far sums at its own points
    (_TRANSFER) plus the sums over its interaction columns, those near the
    parent but not near the panel: two slices of the sorted points, summed
    as one.  Any other panel sums its far columns directly, as two slices,
    as the single-level walk did; one whose near range holds every column
    has far sums 0, and no panel descends from it.  A node that is not
    finite sums directly at its leaf, which is not finite either.  The
    leaves are walked in ascending order, so each level keeps only the last
    panel it met."""
    order = np.argsort(lam.real, kind="stable")
    lre, lim = lam.real[order], lam.imag[order]
    log_terms = ((a - lim) ** 2, np.log(lre * lre + lim * lim)) if log else None
    arg_terms = (lim - a, np.arctan2(lim, lre)) if arg else None
    lam_s, A_s = (lam[order], A[order]) if A is not None and A.shape[1] else (None, None)  # no column, no pair
    out = [np.zeros(x.shape) for _ in range(log + arg)]
    if A is not None:
        out.append(np.zeros((x.size, A.shape[1]), dtype=complex))  # no column: sums gives no array, the zips skip it

    def sums(t: np.ndarray, cols) -> list:
        """The sums over the columns cols (a slice or an index array of the
        sorted points) at each point t, one array per output."""
        got = []
        if log or arg:
            got = _pair_sums(t, lre[cols], log_terms and (log_terms[0][cols], log_terms[1][cols]),
                             arg_terms and (arg_terms[0][cols], arg_terms[1][cols]))
        if A_s is not None:
            got.append(cauchy_sums(t, lam_s[cols], A_s[cols]))
        return got

    if not (x.size and lre.size):
        return out
    n = lre.size
    known = {}  # level: (p, far sums) of the last panel of that level
    panel = np.floor(x / PANEL_WIDTH)
    by_panel = np.argsort(panel, kind="stable")
    ends = np.flatnonzero(np.diff(panel[by_panel])) + 1
    for nodes in np.split(by_panel, ends):
        level, p = 0, float(panel[nodes[0]])
        span, path = _near(0, p, lre), []  # path: the panels to sum, leaf first
        while not (level in known and known[level][0] == p):
            left, lo, hi = span
            up = None  # the parent's far set lies in the panel's, so the panel's is tested first
            if lo + n - hi >= TREE_MIN_FAR and math.isfinite(left):
                up = _near(level + 1, p // 2, lre)
                if up[1] + n - up[2] < TREE_MIN_FAR:
                    up = None
            path.append((level, p, span, up))
            if up is None:
                break
            level, p, span = level + 1, p // 2, up
        for level, p, (left, lo, hi), up in reversed(path):  # the leaf comes last
            scale = 2.0**level
            t = (left + 0.5 * PANEL_WIDTH * scale) + scale * _CHEB
            if up is None:
                far = list(map(np.add, sums(t, slice(None, lo)), sums(t, slice(hi, None))))
            else:
                far = []
                for f in known[level + 1][1]:
                    c = f[PANEL_POINTS // 2]  # centred on the middle value, as _interpolate is
                    far.append(_TRANSFER[int(p % 2)] @ (f - c))
                    far[-1] += c
                for f, g in zip(far, sums(t, np.concatenate((np.arange(up[1], lo), np.arange(hi, up[2]))))):
                    f += g
            known[level] = (p, far)
        xs = x[nodes]
        for o, near, interpolated in zip(out, sums(xs, slice(lo, hi)), _interpolate(xs, t, far)):
            o[nodes] = near + interpolated
    return out


def _pair_sums(t: np.ndarray, lre: np.ndarray, log_terms, arg_terms) -> list:
    """The real sums per point t_i whose terms are given, in this order:
    with log_terms = (dy2, log_l2), sum_j log((t_i - lre_j)^2 + dy2_j) - log_l2_j;
    with arg_terms = (dim, arg), sum_j arctan2(dim_j, lre_j - t_i) - arg_j.
    One difference t_i - lre_j per pair serves both (lre_j - t_i is its
    exact negative), and each row is reduced on its own, in column order."""
    mod = None if log_terms is None else np.empty(t.shape)
    ang = None if arg_terms is None else np.empty(t.shape)
    both = mod is not None and ang is not None
    for rows, d, *e in row_blocks(t.size, lre.size, *(float,) * (1 + both)):
        np.subtract(t[rows, None], lre, out=d)
        if mod is not None:
            e = e[0] if both else d  # the log's buffer: d itself where the arg does not read d after it
            np.multiply(d, d, out=e)
            e += log_terms[0]
            np.log(e, out=e)
            e -= log_terms[1]
            np.add.reduce(e, axis=1, out=mod[rows])
        if ang is not None:
            np.negative(d, out=d)
            np.arctan2(arg_terms[0], d, out=d)
            d -= arg_terms[1]
            np.add.reduce(d, axis=1, out=ang[rows])
    return [v for v in (mod, ang) if v is not None]


def real_cauchy_sums(z: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k/(z_i - t_k) per point z_i, for real nodes t and real weights
    c: sum c (x - t)/|z - t|^2 - i y sum c/|z - t|^2, z = x + iy, in four
    passes over a block and two row reductions, so no bit depends on the
    block size or on the other points of the call."""
    out = np.empty(z.shape, dtype=complex)
    x, y2 = z.real, z.imag * z.imag
    for rows, u, q in row_blocks(z.size, t.size, float, float):
        np.subtract(x[rows, None], t, out=u)
        np.multiply(u, u, out=q)
        q += y2[rows, None]
        np.divide(c, q, out=q)
        np.add.reduce(q, axis=1, out=out.imag[rows])
        np.add.reduce(np.multiply(q, u, out=u), axis=1, out=out.real[rows])
    out.imag *= -z.imag
    return out


def cauchy_sums(z: np.ndarray, lam: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k A[k, s]/(z_i - lam_k) per point z_i and column s of the
    (lam.size, S) matrix A: the (z.size, S) Cauchy sums of its columns, by
    BLAS per block, so their last bits depend on the block shape.  The one
    complex form of 1/(z - lambda): the near and far sums of the line walk
    and the disk K of engine.compactwise_errors."""
    out = np.empty((z.size, A.shape[1]), dtype=complex)
    for rows, c in row_blocks(z.size, lam.size, complex):
        np.subtract(z[rows, None], lam, out=c)
        np.matmul(np.divide(1.0, c, out=c), A, out=out[rows])
    return out


def _interpolate(x: np.ndarray, t: np.ndarray, fars: list) -> list:
    """For each f of fars, the polynomial through (t_k, f_k) at the
    first-kind Chebyshev points t of one panel, at every x_i, by the
    barycentric formula sum_k (b_k f_k/(x - t_k)) / sum_k (b_k/(x - t_k));
    f_k itself at x_i = t_k.  The weights b_k/(x_i - t_k), their row sums
    and the rows with x_i = t_k are formed once for all of fars.  A real f
    (one value per point) reduces each row on its own; a complex f (a row
    of S columns per point) takes the numerators of all its columns as one
    real matrix product, on the real and imaginary parts side by side.  The
    middle value c is taken out of f and added back, so the rounding of the
    quotient scales with the variation of f, not its size.

    x_i = t_k is the only way to an infinite weight: |b_k| <= 1,
    |t_k| >= (W/2)(1 - cos(pi/32)) > 0.009, and x_i != t_k differ by at
    least half an ulp of t_k.  So the rows with an infinite sum (one
    infinite term) are those rows; a node that is not finite gives weights
    0 or NaN, and a sum that is not infinite."""
    q = np.subtract(x[:, None], t)
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):  # inf weights and inf/inf on the rows x_i = t_k
        np.divide(_BARY, q, out=q)
        den = np.add.reduce(q, axis=1)
        on = np.flatnonzero(np.isinf(den))
        at = np.argmax(np.isinf(q[on]), axis=1) if on.size else None  # the t_k of each such row
        for f in fars:
            c = f[PANEL_POINTS // 2]
            g = f - c
            if np.iscomplexobj(g):
                v = (q @ g.view(float)).view(complex)
                v /= den[:, None]
            else:
                v = np.add.reduce(q * g, axis=1)
                v /= den
            if on.size:
                v[on] = g[at]
            v += c
            out.append(v)
    return out


def line_log_abs(x: np.ndarray, a: float, lam: np.ndarray) -> np.ndarray:
    """sum_j log|1 - (x_i + ia)/lam_j| per real x_i, in real arithmetic: half
    of sum_j log(((x_i - Re lam_j)^2 + (a - Im lam_j)^2)/|lam_j|^2), the
    log output of the walk _line_sums.

    Near and far field on the panel tree of _line_sums: a node in the leaf
    [k W, (k + 1) W] sums its near points, those with
    |Re lam - centre| <= W/2 + R, directly, one row per node; the far sum
    is interpolated from its values at the leaf's n = PANEL_POINTS
    first-kind Chebyshev points, which come down the tree.  W = PANEL_WIDTH,
    R = PANEL_RADIUS, and every sum runs in a fixed order, so no bit depends
    on the block size or on the other nodes of the call.

    Error bound (Trefethen, Approximation Theory and Approximation Practice,
    Thm 8.2), per level.  Let P_0 (the leaf), P_1, ..., P_J be a node's
    panel and its ancestors, P_J the one that sums its far points directly,
    and f_j the sum over P_j's interaction points (P_J: its far points), so
    the node's far sum is sum_j f_j.  In P_j's variable
    s = (t - centre)/(W_j/2), f_j is analytic off the points
    s = (lam_k - ia - centre)/(W_j/2) and their conjugates, whose real parts
    exceed 1 + 2R/W = 5 in modulus: so inside the Bernstein ellipse E_rho
    for every rho < 5 + sqrt(24) = 9.90.  There, with semi-axis
    A_rho = (rho + 1/rho)/2 and d_k = |Re lam_k - centre|/(W_j/2),
    |f_j(s) - f_j(0)| <= M_j = sum -log(1 - A_rho/d_k) over f_j's points.
    The interpolant in n first-kind points reproduces constants and aliases
    each T_m (m >= n) onto +-T_k (k < n) or 0, so Thm 8.2's argument bounds
    its error on P_j by 4 M_j rho^-(n-1)/(rho - 1).  A transfer evaluates
    the parent's interpolant at the child's points, and the child's
    interpolant reproduces that polynomial (degree <= 15), so the node
    takes sum_j (P_j's interpolant of f_j)(x), and
        |error| <= sum_j 4 M_j rho^-15/(rho - 1) + the transfers' rounding.
    At rho = 9.5 (A_rho = 4.80) that is 1.0e-15 sum_j M_j.  An interaction
    point lies in the parent's near range, at d_k in (5, 11], so it adds
    0.57 to 3.2 to M_j (a far point of P_J at most 3.2), and the bound grows
    about linearly with the number of far points.  At
    rho = 9.5, sum_j M_j is 49-60 on kadec_perturbed count 100 (201 points:
    no tree, as with a single level), 830 on shifted_integers count 400,
    2 900 on diagnose-clustered's line (2 401 points: bound 3.0e-12,
    measured 1.7e-13 against the direct sum) and 31 400 at count 6 000
    (3.2e-11, measured 2.0e-12)."""
    (out,) = _line_sums(x, lam, a, log=True)
    out *= 0.5
    return out


def line_log_products(x: np.ndarray, lam: np.ndarray, A: np.ndarray) -> tuple:
    """(sum_j log(1 - x_i/lam_j) per real x_i, Im defined modulo 2 pi, and
    the (x.size, S) Cauchy sums sum_k A[k, s]/(x_i - lam_k) of the
    (lam.size, S) matrix A), from one walk of _line_sums: the log is
    line_log_abs at a = 0 plus i times the arg output, bit for bit as each
    would come from a walk of its own, and the Cauchy sums are line_cauchy's.

    The arg term is arg(lam_j - x) - arg lam_j, that is
    (log(lam_j - x) - log(conj lam_j - x))/(2i) up to a constant, while the
    log's term is half the sum of the same two logs.  So each level's sum
    f_j is analytic off the same points lam_j and conj lam_j, inside the
    same Bernstein ellipse E_rho, and since |log(1 - u)| <= -log(1 - |u|),
    it obeys line_log_abs's |f_j(s) - f_j(0)| <= M_j and
    |error| <= 1.0e-15 sum_j M_j at rho = 9.5, plus the transfers' rounding.
    Each arg term is continuous along the real line, whose points no lam_j
    can be (Spectrum: |Im lam| >= MIN_IMAG)."""
    mod, arg, sums = _line_sums(x, lam, 0.0, log=True, arg=True, A=A)
    mod *= 0.5
    return mod + 1j * arg, sums


def line_cauchy(x: np.ndarray, lam: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k A[k, s]/(x_i - lam_k) per real x_i and column s of the
    (lam.size, S) matrix A: the (x.size, S) Cauchy sums of its columns, the
    Cauchy output of the walk _line_sums alone.

    Near and far field on the panel tree of line_log_abs; the near sums and
    the far sums at the Chebyshev points are BLAS products, so their last
    bits depend on the block shape.  Error bound (ATAP Thm 8.2, per level as
    in line_log_abs): in P_j's variable s, a term A_k/(x - lam_k) of f_j is
    A_k/((W_j/2)(s - sigma_k)), sigma_k = (lam_k - centre)/(W_j/2),
    |sigma_k| >= |Re sigma_k| > 5.  E_rho lies in |s| <= A_rho, so on it
    |s - sigma_k| >= |sigma_k| (1 - A_rho/5), while at a node
    |s - sigma_k| <= |sigma_k| (1 + 1/5): f_j is bounded on E_rho by
    M_j = 1.2/(1 - A_rho/5) sum |A_k|/|x_i - lam_k| over f_j's points, and
    the error by sum_j 4 M_j rho^-15/(rho - 1) plus the transfers' rounding.
    The levels' points split the far set, so at rho = 9.25 (A_rho = 4.68)
    that is 2.9e-14 sum_far |A_k|/|x_i - lam_k|, as for a single level."""
    return _line_sums(x, lam, A=A)[0]


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


def log_products(z: np.ndarray, zeros: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """Sum over j of log f_j(z_i) per point z_i (1-d), f_j = (zeros_j - z)/zeros_j,
    with the reciprocals formed once per call.  The only block log-product
    of G and G': with skip, point i leaves out factor skip[i] (an exact 1).

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
    inv = 1.0 / zeros
    for (blk,) in row_blocks(z.size, n):
        zc, r = z[blk, None], blk.stop - blk.start
        f = pad[:r, :n]
        np.subtract(zeros, zc, out=f)
        f *= inv
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


def _touch2(pts: np.ndarray) -> np.ndarray:
    """(1e-12 max(1, |pts_j|))^2 per point: the squared reach of touching."""
    return (1e-12 * np.maximum(1.0, np.abs(pts))) ** 2


def touching(z: np.ndarray, pts: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """collisions at |z_i - pts_j| <= 1e-12 max(1, |pts_j|): the one rule by
    which G refuses a zero and B a pole."""
    return collisions(z, pts, _touch2(pts), skip)


def one_height_touching(lam: np.ndarray) -> np.ndarray:
    """touching(lam, lam, skip=arange(lam.size)) for points that share one
    height: each point against its sorted neighbours in Re lam only.  On one
    height |lam_k - lam_j|^2 is fl(dx^2), which is monotone in |dx|, and a
    point j beyond the neighbour j' on the same side is farther by
    |x_j - x_j'| while its reach is larger by at most 1e-12 |x_j - x_j'|:
    if j touches lam_k, so does j'."""
    order = np.argsort(lam.real, kind="stable")
    reach = _touch2(lam[order])
    d2 = np.diff(lam.real[order]) ** 2
    hit = np.zeros(lam.shape, dtype=bool)
    hit[order[:-1]] |= d2 <= reach[1:]
    hit[order[1:]] |= d2 <= reach[:-1]
    return hit


def one_height_self_logs(x: np.ndarray, delta: float, k: np.ndarray) -> np.ndarray:
    """sum_{j != k} log(1 - lam_k/lam_j) at the nodes lam_k = x_k + i delta
    of a window on one height (distinct x_j), for an index array k, Im
    defined modulo 2 pi: the window's part of log G'(lam_k) + log(-lam_k).

    1 - lam_k/lam_j = (x_j - x_k)/lam_j, so the modulus is
    1/2 sum_{j != k} log((x_j - x_k)^2/|lam_j|^2), one log per pair in real
    arithmetic, each row reduced on its own, and the phase is exact:
    pi #{j : x_j < x_k} - sum_{j != k} arg lam_j.  With s = sign(delta),
    arg lam_j = s pi/2 + a_j, a_j = arctan2(-s x_j, |delta|), so the phase
    is (pi/2) q_k - (S - a_k), q_k = (2 #{x_j < x_k} - s (N - 1)) mod 4 and
    S = fsum(a): a symmetric window keeps S near 0, and the phase near
    [0, 2 pi), where a float sum of N args near pi/2 lost ~N ulp."""
    inv = 1.0 / (x * x + delta * delta)
    out = np.empty(k.shape, dtype=complex)
    mod = out.real
    for rows, d in row_blocks(k.size, x.size, float):
        np.subtract(x[k[rows], None], x, out=d)
        d *= d
        d *= inv
        d[np.arange(d.shape[0]), k[rows]] = 1.0  # its own factor
        np.add.reduce(np.log(d, out=d), axis=1, out=mod[rows])
    mod *= 0.5
    s = 1 if delta > 0 else -1
    a = np.arctan2(-s * x, abs(delta))
    q = (2 * np.searchsorted(np.sort(x), x[k]) - s * (x.size - 1)) % 4
    out.imag = 0.5 * np.pi * q - (math.fsum(a) - a[k])
    return out


def blaschke_logs(z: np.ndarray, x: np.ndarray, delta: float | np.ndarray, skip: np.ndarray | None = None,
                  phase: bool = True) -> np.ndarray:
    """sum_j log[(conj mu_j/mu_j)(z - mu_j)/(z - conj mu_j)] per point z_i,
    for zeros mu_j = x_j + i delta_j in C+, delta a scalar (one height) or
    one per zero; with skip, point i leaves out factor skip[i]; with phase
    False, the real part alone, log|B|.  Im is defined modulo 2 pi.  The one
    Blaschke kernel: B, B', beta and log|B| for every zero set.

    With u = Re z - x_j and y = Im z, y a per-row scalar:
    log|f_j| = 1/2 log(near/far), near = u^2 + (y - delta_j)^2 and
    far = u^2 + (y + delta_j)^2, in real arithmetic; and
    arg f_j = arctan2(-2 delta_j u, u^2 + (y - delta_j)(y + delta_j)) - 2 arg mu_j.
    On one height y -/+ delta is a column per block; on several it is
    written into the block's buffers, in the same arithmetic, so a scalar
    delta and the same heights one per zero give the same bits.  A z on a
    zero gives near = 0 and log|B| = -inf, exactly.  The normalizations sum
    to -2 sum_j arg mu_j = N pi - 2 sum_j arctan2(-x_j, delta_j) modulo
    2 pi, with an fsum, as in one_height_self_logs.  Each row is reduced on
    its own, so a point's value is the same bits whichever other points
    share its call."""
    out = np.empty(z.shape, dtype=complex if phase else float)
    mod, y = out.real, z.imag
    two = -2.0 * delta
    each = np.size(delta) > 1  # a height per zero: y -/+ delta_j go into the block's buffers
    own = None
    with np.errstate(divide="ignore"):  # z on a zero: log 0 = -inf, exact
        for rows, u, n, f, *t in row_blocks(z.size, x.size, *(float,) * (4 if phase and each else 3)):
            yr = y[rows, None]
            np.subtract(z.real[rows, None], x, out=u)
            np.multiply(u, u, out=n)
            if skip is not None:
                own = (np.arange(u.shape[0]), skip[rows])
            if phase:  # f holds the argument's real part until the modulus needs it
                if each:
                    np.multiply(np.subtract(yr, delta, out=f), np.add(yr, delta, out=t[0]), out=f)
                    f += n
                else:
                    np.add(n, (yr - delta) * (yr + delta), out=f)
                u *= two
                np.arctan2(u, f, out=u)
                if own is not None:
                    u[own] = 0.0
                np.add.reduce(u, axis=1, out=out.imag[rows])
            p = np.add(yr, delta, out=f if each else None)  # u and f are free now
            np.add(n, np.square(p, out=p), out=f)
            m = np.subtract(yr, delta, out=u if each else None)
            n += np.square(m, out=m)
            n /= f
            if own is not None:
                n[own] = 1.0
            np.add.reduce(np.log(n, out=n), axis=1, out=mod[rows])
    mod *= 0.5
    if phase:
        a = np.arctan2(-x, delta)
        if skip is None:
            out.imag += np.pi * (x.size % 2) - 2.0 * math.fsum(a)
        else:
            out.imag += np.pi * ((x.size - 1) % 2) - 2.0 * (math.fsum(a) - a[skip])
    return out


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
    height is the points' common Im when every one is bit-equal (each
    lattice family's window), else None: decided once, from the points
    alone, it selects G's one-height kernel and passes blaschke_logs a
    scalar height.

    Immutable after construction; safe to share across workers.
    """

    points: np.ndarray
    tail: LatticeTail | None = None
    height: float | None = field(init=False, default=None)

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
        if pts.size and np.all(pts.imag == pts.imag[0]):
            self.height = float(pts.imag[0])

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
