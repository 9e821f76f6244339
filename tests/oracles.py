"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own code paths: exact integer /
rational arithmetic and per-pixel loops only, or the plain first version of
a loop the library has since made fast.  `GRID_SYMMETRIES` holds the grid
maps that the symmetry guards of several modules share.
"""

from __future__ import annotations

import math
from fractions import Fraction


def exact_binomial_tail(n: int, k: int, q: float) -> Fraction:
    """Exact rational binomial tail sum_{i>=k} C(n,i) q^i (1-q)^(n-i).

    `q` is converted with Fraction(float), i.e. the exact binary value the
    float carries, so the oracle evaluates the same mathematical quantity
    as the float implementation.
    """
    qf = Fraction(q)
    total = Fraction(0)
    for i in range(k, n + 1):
        total += math.comb(n, i) * qf**i * (1 - qf) ** (n - i)
    return total


def exact_log2_binomial_tail(n: int, k: int, q: float) -> float:
    value = exact_binomial_tail(n, k, q)
    if value == 0:
        return -math.inf
    # math.log2 on big ints is exact to float precision; split the fraction.
    return math.log2(value.numerator) - math.log2(value.denominator)


def log_binomial_numpy(n, k):
    """Reference log2 C(n, k): the array path of `numeric.log_binomial` as
    first written, a numpy gather from a numpy table below n = 10^4 and an
    element-wise `math.lgamma` difference above.  The library now takes
    scalar counts only; its bits must not change.
    """
    import numpy as np

    from mdlnfa.numeric import DomainError

    _TABLE_SIZE = 10_000
    _LN2 = math.log(2.0)
    _LOG2_FACT = np.zeros(_TABLE_SIZE + 1)
    _LOG2_FACT[1:] = np.cumsum(np.log2(np.arange(1, _TABLE_SIZE + 1,
                                                 dtype=np.float64)))
    _lgamma = np.frompyfunc(math.lgamma, 1, 1)

    n_arr, k_arr = np.asarray(n), np.asarray(k)
    if n_arr.dtype.kind not in "iu" or k_arr.dtype.kind not in "iu":
        raise DomainError(f"need integer arrays, got n={n!r}, k={k!r}")
    n_arr, k_arr = n_arr.astype(np.int64), k_arr.astype(np.int64)
    if np.any(n_arr < 0) or np.any(k_arr < 0) or np.any(k_arr > n_arr):
        raise DomainError(f"need 0 <= k <= n, got n={n!r}, k={k!r}")
    scalar = n_arr.ndim == 0 and k_arr.ndim == 0
    n_arr, k_arr = np.broadcast_arrays(*np.atleast_1d(n_arr, k_arr))
    out = np.empty(n_arr.shape)
    small = n_arr < _TABLE_SIZE
    if np.any(small):
        ns, ks = n_arr[small], k_arr[small]
        out[small] = _LOG2_FACT[ns] - _LOG2_FACT[ks] - _LOG2_FACT[ns - ks]
    if not np.all(small):
        nl = n_arr[~small].astype(np.float64)
        kl = k_arr[~small].astype(np.float64)
        raw = _lgamma(nl + 1.0) - _lgamma(kl + 1.0) - _lgamma(nl - kl + 1.0)
        out[~small] = raw.astype(np.float64) / _LN2
    return float(out[0]) if scalar else out


def point_in_polygon(px: float, py: float, vertices) -> bool:
    """Even-odd crossing test with inclusive boundary, one point at a time."""
    c = len(vertices)
    # Boundary first: point on any closed edge counts as inside.
    for i in range(c):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % c]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if abs(cross) < 1e-9:
            if min(x1, x2) - 1e-9 <= px <= max(x1, x2) + 1e-9 and \
               min(y1, y2) - 1e-9 <= py <= max(y1, y2) + 1e-9:
                return True
    inside = False
    for i in range(c):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % c]
        if (y1 > py) != (y2 > py):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_cross:
                inside = not inside
    return inside


def rasterize_polygon_bruteforce(vertices, width: int, height: int):
    """Per-pixel even-odd rasterization; returns a set of (row, col) pairs."""
    hits = set()
    for row in range(height):
        for col in range(width):
            if point_in_polygon(float(col), float(row), vertices):
                hits.add((row, col))
    return hits


def rasterize_polygon_two_pass(vertices, width: int, height: int):
    """Reference rasterizer: `imaging.rasterize_polygon` as first written,
    a numpy crossing pass for the interior and a second edge pass for the
    boundary.  The one-pass library version must return equal masks and
    raise the same errors.

    Boolean mask of pixels whose centers fall inside the closed polygon.

    Even-odd scanline rule with inclusive boundary: pixel centers lying
    exactly on an edge or vertex belong to the region.  Raises on polygons
    with fewer than 3 vertices or an empty pixel footprint.
    """
    import numpy as np

    verts = np.asarray(vertices, dtype=np.float64)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("polygon needs at least 3 (x, y) vertices")
    nxt = np.roll(verts, -1, axis=0)
    shoelace = float((verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]).sum())
    if abs(shoelace) < 1e-12:
        raise ValueError("polygon is degenerate (zero area)")
    mask = np.zeros((height, width), dtype=bool)

    xs1, ys1 = verts[:, 0], verts[:, 1]
    xs2, ys2 = np.roll(xs1, -1), np.roll(ys1, -1)

    # Interior: even-odd crossings per integer scanline (half-open in y).
    crossing_rows: list[np.ndarray] = []
    crossing_xs: list[np.ndarray] = []
    for x1, y1, x2, y2 in zip(xs1, ys1, xs2, ys2):
        if y1 == y2:
            continue
        lo, hi = min(y1, y2), max(y1, y2)
        rows = np.arange(max(0, math.ceil(lo)), min(height - 1, math.ceil(hi) - 1) + 1)
        if rows.size == 0:
            continue
        x_cross = x1 + (rows - y1) * (x2 - x1) / (y2 - y1)
        crossing_rows.append(rows)
        crossing_xs.append(x_cross)
    if crossing_rows:
        rows_all = np.concatenate(crossing_rows)
        xs_all = np.concatenate(crossing_xs)
        order = np.lexsort((xs_all, rows_all))
        rows_all, xs_all = rows_all[order], xs_all[order]
        start = 0
        while start < len(rows_all):
            row = rows_all[start]
            end = start
            while end < len(rows_all) and rows_all[end] == row:
                end += 1
            xs_row = xs_all[start:end]
            for j in range(0, len(xs_row) - 1, 2):
                left = max(0, math.floor(xs_row[j]) + 1)
                right = min(width - 1, math.ceil(xs_row[j + 1]) - 1)
                if right >= left:
                    mask[row, left:right + 1] = True
            start = end

    # Boundary: any pixel center on a closed edge (centers have integer y,
    # so walking integer scanlines catches every such pixel).
    eps = 1e-9
    for x1, y1, x2, y2 in zip(xs1, ys1, xs2, ys2):
        if y1 == y2:
            if abs(y1 - round(y1)) < eps:
                row = int(round(y1))
                if 0 <= row < height:
                    left = max(0, math.ceil(min(x1, x2) - eps))
                    right = min(width - 1, math.floor(max(x1, x2) + eps))
                    if right >= left:
                        mask[row, left:right + 1] = True
            continue
        lo, hi = min(y1, y2), max(y1, y2)
        for row in range(max(0, math.ceil(lo - eps)), min(height - 1, math.floor(hi + eps)) + 1):
            x_cross = x1 + (row - y1) * (x2 - x1) / (y2 - y1)
            if abs(x_cross - round(x_cross)) < 1e-7:
                col = int(round(x_cross))
                if 0 <= col < width:
                    mask[row, col] = True

    if not mask.any():
        raise ValueError("polygon has an empty pixel footprint (degenerate)")
    return mask


def split_term_extrema_table(n: int):
    """Exhaustive min/max of 0.5*(g(k0,n0) + g(k1,n1) - g(k,n)) over all
    integer splits k0+k1 = k, n0+n1 = n with 0 < ki < ni.

    Tabulates g once per n and gathers, so the full n <= 200 range runs in
    seconds.  Returns (min, max) over every feasible split and k.
    """
    import numpy as np

    m = np.arange(0, n + 1, dtype=np.float64)
    k = np.arange(0, n + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = (3 * np.log2(m[None, :]) - np.log2(k[:, None])
                 - np.log2(m[None, :] - k[:, None]))
    table[np.isinf(table)] = np.nan
    best_min, best_max = math.inf, -math.inf
    k0_full = np.arange(1, n)
    n0 = np.arange(2, n - 1)
    for kk in range(2, n - 1):
        k0 = k0_full[:kk - 1][:, None]
        a = table[k0, n0[None, :]]
        b = table[kk - k0, (n - n0)[None, :]]
        g_kn = 3 * math.log2(n) - math.log2(kk) - math.log2(n - kk)
        term = 0.5 * (a + b - g_kn)
        if np.all(np.isnan(term)):
            continue
        best_min = min(best_min, float(np.nanmin(term)))
        best_max = max(best_max, float(np.nanmax(term)))
    return best_min, best_max


def orientation_distance(a, b):
    """Distance between orientations modulo pi, in [0, pi/2], element by
    element: min(d, pi - d) with d = |a - b| mod pi, the same from either
    end.  The library forms d with `lsd._mod_pi`, and inline in its grower;
    within r is d <= r or pi - d <= r, which is this distance <= r."""
    import numpy as np

    d = abs(a - b) % math.pi
    if isinstance(d, np.ndarray):
        return np.minimum(d, math.pi - d)
    return min(d, math.pi - d)


_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1),
              (0, 1), (1, -1), (1, 0), (1, 1))


def region_grow_candidates_numpy(omap, cfg, min_region_size: int = 5):
    """Reference region grower: numpy arrays and numpy scalar distances per
    neighbor, as the library's grower was first written.

    Only the grow loop is the oracle here; rectangles are fitted with the
    library's `fit_rectangle`, so candidate lists compare with `==`.
    """
    from collections import deque

    import numpy as np

    from mdlnfa.lsd import fit_rectangle

    height, width = omap.height, omap.width
    defined = omap.defined
    angles = omap.angles
    if omap.magnitude is not None:
        flat_order = np.argsort(-omap.magnitude, axis=None, kind="stable")
    else:
        flat_order = np.arange(height * width)
    used = np.zeros((height, width), dtype=bool)
    candidates = []
    for flat in flat_order:
        r0, c0 = divmod(int(flat), width)
        if used[r0, c0] or not defined[r0, c0]:
            continue
        used[r0, c0] = True
        region = [(r0, c0)]
        sx = math.cos(2.0 * angles[r0, c0])
        sy = math.sin(2.0 * angles[r0, c0])
        mean_angle = angles[r0, c0]
        frontier = deque(region)
        while frontier:
            r, c = frontier.popleft()
            for dr, dc in _NEIGHBORS:
                rr, cc = r + dr, c + dc
                if not (0 <= rr < height and 0 <= cc < width):
                    continue
                if used[rr, cc] or not defined[rr, cc]:
                    continue
                if orientation_distance(angles[rr, cc], mean_angle) > cfg.rho:
                    continue
                used[rr, cc] = True
                region.append((rr, cc))
                frontier.append((rr, cc))
                sx += math.cos(2.0 * angles[rr, cc])
                sy += math.sin(2.0 * angles[rr, cc])
                mean_angle = 0.5 * math.atan2(sy, sx)
        if len(region) < max(2, min_region_size):
            continue
        coords = np.array([(c, r) for r, c in region], dtype=np.float64)
        if omap.magnitude is not None:
            weights = np.array([omap.magnitude[r, c] for r, c in region])
        else:
            weights = None
        try:
            candidates.append(fit_rectangle(coords, weights))
        except ValueError:
            continue
    return candidates


def lone_seeds_exact(omap, rho):
    """Reference for `lsd._lone_seeds`, without its border: a (height,
    width) bool array, True where a pixel is defined and the grower's own
    join test, `orientation_distance` against the pixel's angle b as the
    region mean, rejects every defined 8-neighbor a.  Python floats
    throughout, as in the grow loop."""
    import numpy as np

    height, width = omap.height, omap.width
    angles = omap.angles.tolist()
    defined = omap.defined.tolist()
    lone = np.zeros((height, width), dtype=bool)
    for r in range(height):
        for c in range(width):
            if not defined[r][c]:
                continue
            b = angles[r][c]
            lone[r, c] = True
            for dr, dc in _NEIGHBORS:
                rr, cc = r + dr, c + dc
                if not (0 <= rr < height and 0 <= cc < width and defined[rr][cc]):
                    continue
                if orientation_distance(angles[rr][cc], b) <= rho:
                    lone[r, c] = False
                    break
    return lone


def near_neighbours_exact(omap, rho):
    """Reference for the `near` mask of `lsd._lone_seeds`, without its
    border: a (height, width) uint8 array whose bit j is set where a pixel
    and its neighbor j (in `_NEIGHBORS` order) are defined and
    `orientation_distance` puts the neighbor's angle a within 2 rho of the
    pixel's angle b.  Python floats throughout."""
    import numpy as np

    height, width = omap.height, omap.width
    angles = omap.angles.tolist()
    defined = omap.defined.tolist()
    near = np.zeros((height, width), dtype=np.uint8)
    for r in range(height):
        for c in range(width):
            if not defined[r][c]:
                continue
            b = angles[r][c]
            for j, (dr, dc) in enumerate(_NEIGHBORS):
                rr, cc = r + dr, c + dc
                if not (0 <= rr < height and 0 <= cc < width and defined[rr][cc]):
                    continue
                if orientation_distance(angles[rr][cc], b) <= 2.0 * rho:
                    near[r, c] |= 1 << j
    return near


def count_aligned_numpy(rect, omap, rho):
    """Reference alignment count: `lsd.count_aligned` as first written, a
    numpy meshgrid over the rectangle's 2*reach bounding box.  The scalar
    row walk must give the same counts and raise the same errors.

    Count pixels whose centers fall inside the rectangle and whose
    orientation lies within rho of the rectangle normal (modulo pi).
    """
    import numpy as np

    from mdlnfa.lsd import AlignmentCounts

    height, width = omap.height, omap.width
    cx = 0.5 * (rect.ax + rect.bx)
    cy = 0.5 * (rect.ay + rect.by)
    ux, uy = math.cos(rect.angle), math.sin(rect.angle)
    half_len = rect.length / 2.0
    half_wid = rect.width / 2.0
    reach = half_len + half_wid + 1.0
    col_lo = max(0, math.floor(cx - reach))
    col_hi = min(width - 1, math.ceil(cx + reach))
    row_lo = max(0, math.floor(cy - reach))
    row_hi = min(height - 1, math.ceil(cy + reach))
    if col_hi < col_lo or row_hi < row_lo:
        raise ValueError("rectangle lies fully outside the image")
    cols, rows = np.meshgrid(np.arange(col_lo, col_hi + 1),
                             np.arange(row_lo, row_hi + 1))
    dx = cols - cx
    dy = rows - cy
    along = dx * ux + dy * uy
    across = -dx * uy + dy * ux
    inside = (np.abs(along) <= half_len + 1e-9) & (np.abs(across) <= half_wid + 1e-9)
    if not inside.any():
        raise ValueError("rectangle covers no pixel centers inside the image")
    sub_defined = omap.defined[rows[inside], cols[inside]]
    sub_angles = omap.angles[rows[inside], cols[inside]]
    n_r = int(inside.sum())
    u_r = int((~sub_defined).sum())
    aligned = sub_defined & (orientation_distance(sub_angles, rect.normal_angle)
                             <= rho + 1e-12)
    return AlignmentCounts(n_r=n_r, k_r=int(aligned.sum()), u_r=u_r)


def _walk(lo, hi, first, last):
    """The integers of first..last within one of [lo, hi], and perhaps one
    more on each side; lo and hi may be infinite."""
    if lo > last + 1 or hi < first - 1:
        return range(0)
    return range(first if lo < first + 1 else math.floor(lo) - 1,
                 (last if hi > last - 1 else math.ceil(hi) + 1) + 1)


def count_aligned_rows(rect, omap, rho):
    """Reference alignment count: `lsd.count_aligned` as a scalar row walk,
    one rectangle at a time.  The batched numpy kernel must give the same
    counts and raise the same errors.

    Count pixels whose centers fall inside the rectangle and whose
    orientation lies within rho of the rectangle normal (modulo pi).

    A pixel center (c, r) is inside when |dx*ux + dy*uy| <= len/2 + 1e-9
    and |-dx*uy + dy*ux| <= width/2 + 1e-9, with dx = c - cx, dy = r - cy;
    that float test alone decides membership.  The loop runs on Python
    scalars and visits only the rectangle's rows, and in each row only the
    columns between its two slab limits.  Each limit is widened by a bound
    on the rounding of the test and of the limit, and then by one pixel.
    """
    from mdlnfa.lsd import AlignmentCounts

    height, width = omap.height, omap.width
    cx = 0.5 * (rect.ax + rect.bx)
    cy = 0.5 * (rect.ay + rect.by)
    ux, uy = math.cos(rect.angle), math.sin(rect.angle)
    half_len = rect.length / 2.0
    half_wid = rect.width / 2.0
    reach = half_len + half_wid + 1.0
    col_lo = max(0, math.floor(cx - reach))
    col_hi = min(width - 1, math.ceil(cx + reach))
    row_lo = max(0, math.floor(cy - reach))
    row_hi = min(height - 1, math.ceil(cy + reach))
    if col_hi < col_lo or row_hi < row_lo:
        raise ValueError("rectangle lies fully outside the image")
    len_tol = half_len + 1e-9
    wid_tol = half_wid + 1e-9
    # The rounding of the test and of the limits stays within a few ulps
    # of the largest magnitude involved; pad bounds it generously.
    pad = 1e-13 * max(abs(cx), abs(cy), width, height, half_len, half_wid)
    len_lim, wid_lim = len_tol + pad, wid_tol + pad
    ext_y = len_lim * abs(uy) + wid_lim * abs(ux)
    # Signed so that (-len_lim - b) / ux <= (len_lim - b) / ux, and alike
    # for uy; cos of a float angle is never 0, but sin is 0 at angle 0.
    len_lim = math.copysign(len_lim, ux)
    wid_lim = math.copysign(wid_lim, uy)
    defined = memoryview(omap.defined.reshape(-1))
    angles = memoryview(omap.angles.reshape(-1))
    normal = rect.normal_angle
    tol = rho + 1e-12
    n_r = u_r = k_r = 0
    for r in _walk(cy - ext_y, cy + ext_y, row_lo, row_hi):
        dy = r - cy
        dy_uy, dy_ux = dy * uy, dy * ux
        lo = (-len_lim - dy_uy) / ux
        hi = (len_lim - dy_uy) / ux
        if uy:
            x = (dy_ux - wid_lim) / uy
            if x > lo:
                lo = x
            x = (dy_ux + wid_lim) / uy
            if x < hi:
                hi = x
        base = r * width
        for c in _walk(cx + lo, cx + hi, col_lo, col_hi):
            dx = c - cx
            if not (-len_tol <= dx * ux + dy_uy <= len_tol
                    and -wid_tol <= -dx * uy + dy_ux <= wid_tol):
                continue
            n_r += 1
            if not defined[base + c]:
                u_r += 1
                continue
            if orientation_distance(angles[base + c], normal) <= tol:
                k_r += 1
    if not n_r:
        raise ValueError("rectangle covers no pixel centers inside the image")
    return AlignmentCounts(n_r=n_r, k_r=k_r, u_r=u_r)


def fit_rectangle_numpy(coords, weights=None):
    """Reference rectangle fit: `lsd.fit_rectangle` as first written, every
    step a numpy operation.  The library keeps the sums, the scatter
    product, `eigh` and the projections in numpy and the rest on Python
    floats; the rectangles must compare equal.

    Fit a rectangle to region pixels: weighted centroid, principal axis of
    the weighted scatter, extents covering the pixel centers.
    """
    import numpy as np

    from mdlnfa.lsd import RectangleCandidate

    coords = np.asarray(coords, dtype=np.float64)  # (m, 2) as (col=x, row=y)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must be (m, 2) pixel centers")
    if len(coords) < 2:
        raise ValueError("cannot fit a rectangle to fewer than 2 pixels")
    if weights is None:
        w = np.ones(len(coords))
    else:
        w = np.asarray(weights, dtype=np.float64)
    w_sum = w.sum()
    center = (coords * w[:, None]).sum(axis=0) / w_sum
    centered = coords - center
    scatter = (centered * w[:, None]).T @ centered / w_sum
    eigvals, eigvecs = np.linalg.eigh(scatter)
    if eigvals[1] <= 0.0:
        raise ValueError("degenerate region: zero scatter")
    axis = eigvecs[:, 1]           # principal direction
    along = centered @ axis
    across = centered @ np.array([-axis[1], axis[0]])
    a = center + axis * along.min()
    b = center + axis * along.max()
    width = max(1.0, across.max() - across.min() + 1.0)
    if along.max() == along.min():
        b = center + axis * (along.max() + 0.5)  # guard zero-length line
    return RectangleCandidate(ax=float(a[0]), ay=float(a[1]),
                              bx=float(b[0]), by=float(b[1]), width=float(width))


def score_candidates_plain(omap, candidates, cfg):
    """Reference scorer: `lsd.score_candidates` as first written, both
    scores (by the scorers below) and both keep flags computed afresh for
    every candidate."""
    from mdlnfa.lsd import SegmentDetection, count_aligned
    from mdlnfa.numeric import Score

    n_image = omap.height * omap.width
    out = []
    for cand in candidates:
        try:
            counts = count_aligned(cand, omap, cfg.rho)
        except ValueError:
            continue
        score = Score(mdl_bits=mdl_rect(n_image, counts, cfg),
                      log2_nfa=nfa_rect(n_image, counts, cfg))
        out.append(SegmentDetection(
            candidate=cand,
            counts=counts,
            score=score,
            nfa_keep=score.nfa_detects(cfg.epsilon),
            mdl_keep=score.mdl_detects(),
        ))
    return out


def exact_lsd_decisions(log2_tests: int, n_r: int, k: int) -> tuple[bool, bool]:
    """(NFA keep, MDL keep) of a rectangle in integer arithmetic, for
    theta = 1/8, gamma = 1, epsilon = 1 and 2.5 log2 n = log2_tests.

    The tail is S / 8^n_r with S = sum_{i>=k} C(n_r, i) 7^(n_r - i), so
    log2 NFA <= 0 is 2^log2_tests * S <= 2^(3 n_r); the MDL delta
    log2_tests + log2 n_r + log2 C(n_r, k) - 3k < 0 is
    2^log2_tests * n_r * C(n_r, k) < 2^(3k).
    """
    tail = sum(math.comb(n_r, i) * 7 ** (n_r - i) for i in range(k, n_r + 1))
    return (2 ** log2_tests * tail <= 2 ** (3 * n_r),
            2 ** log2_tests * n_r * math.comb(n_r, k) < 2 ** (3 * k))


# ---------------------------------------------------------------------------
# Binary-image kernels as first written: noise through `np.where` and ones
# counted with `.sum()`.  The library flips by XOR and counts with
# `np.count_nonzero`; these copies pin every output byte and count.
# ---------------------------------------------------------------------------

def flip_noise_where(image, delta, seed):
    """`imaging.flip_noise` as first written, on its own PCG64 generator."""
    import numpy as np

    from mdlnfa.imaging import BinaryImage

    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    flips = np.random.Generator(np.random.PCG64(seed)).random(image.pixels.shape) < delta
    return BinaryImage(np.where(flips, 1 - image.pixels, image.pixels))


def count_ones_sum(pixels) -> int:
    """Number of ones among 0/1 pixels, as `.sum()` counted them."""
    return int(pixels.sum())


# ---------------------------------------------------------------------------
# MDL and NFA scores as first written: each spells out its enumerative code
# or its test count and tail by hand.  The library now routes them all
# through `numeric.HypothesisCounts`; these copies pin that every float
# stays bit-identical.
# ---------------------------------------------------------------------------

def _square_counts(image, sq):
    from mdlnfa.numeric import RegionCounts

    block = image.pixels[sq.row:sq.row + sq.side, sq.col:sq.col + sq.side]
    return RegionCounts(n=sq.n1, k=count_ones_sum(block))


def _l0_code_length(counts):
    from mdlnfa.numeric import log_binomial

    return math.log2(counts.n) + log_binomial(counts.n, counts.k)


def mdl_score_single(image, sq):
    from mdlnfa.numeric import DomainError, log_binomial

    inside = _square_counts(image, sq)
    total = image.counts
    n0 = total.n - inside.n
    if n0 == 0:
        raise DomainError("square covers the whole image; no background left")
    k0 = total.k - inside.k
    l1 = (1.5 * math.log2(total.n)
          + math.log2(n0) + log_binomial(n0, k0)
          + math.log2(inside.n) + log_binomial(inside.n, inside.k))
    return l1 - _l0_code_length(total)


def nfa_score_single(image, sq):
    from mdlnfa.numeric import binomial_tail_log

    inside = _square_counts(image, sq)
    total = image.counts
    return 1.5 * math.log2(total.n) + binomial_tail_log(inside.n, inside.k, total.q)


def mdl_score_multi(image, hyp):
    from mdlnfa.numeric import DomainError, log_binomial

    total = image.counts
    if hyp.c == 0:
        return 1.0
    if hyp.c == 1:
        return mdl_score_single(image, hyp.squares[0]) + 2.0
    insides = [_square_counts(image, sq) for sq in hyp.squares]
    n0 = total.n - sum(c.n for c in insides)
    k0 = total.k - sum(c.k for c in insides)
    if n0 == 0:
        raise DomainError("squares cover the whole image; no background left")
    l_h = math.log2(n0) + log_binomial(n0, k0) + hyp.c + 1.0
    for counts in insides:
        l_h += (1.5 * math.log2(total.n)
                + math.log2(counts.n) + log_binomial(counts.n, counts.k))
    return l_h - _l0_code_length(total)


def nfa_score_multi(image, hyp):
    from mdlnfa.numeric import DomainError, binomial_tail_log

    if hyp.c == 0:
        raise DomainError("no NFA test is defined for the empty hypothesis")
    total = image.counts
    insides = [_square_counts(image, sq) for sq in hyp.squares]
    pooled_n = sum(c.n for c in insides)
    pooled_k = sum(c.k for c in insides)
    return (hyp.c + 1.5 * hyp.c * math.log2(total.n)
            + binomial_tail_log(pooled_n, pooled_k, total.q))


def mdl_polygon_score(image, poly):
    from mdlnfa.imaging import count_region, rasterize_polygon
    from mdlnfa.numeric import DomainError, log_binomial

    mask = rasterize_polygon(poly.vertices, image.width, image.height)
    inside = count_region(image, mask)
    n0 = image.n - inside.n
    if n0 == 0:
        raise DomainError("polygon covers the whole image; no exterior left")
    k0 = image.count_ones - inside.k
    n = image.n
    return (1.0 + poly.c * (1.0 + math.log2(n))
            + math.log2(inside.n) + log_binomial(inside.n, inside.k)
            + math.log2(n0) + log_binomial(n0, k0))


def nfa_polygon_score(image, poly):
    from mdlnfa.imaging import count_region, rasterize_polygon
    from mdlnfa.numeric import DomainError, binomial_tail_log

    mask = rasterize_polygon(poly.vertices, image.width, image.height)
    inside = count_region(image, mask)
    if inside.n == image.n:
        raise DomainError("polygon covers the whole image; no exterior left")
    return (poly.c * (1.0 + math.log2(image.n))
            + binomial_tail_log(inside.n, inside.k, image.counts.q))


def mdl_rect(n_image, counts, cfg):
    from mdlnfa.numeric import log_binomial

    return (2.5 * math.log2(n_image)
            + math.log2(counts.n_r)
            + log_binomial(counts.n_r, counts.k_r)
            + counts.k_r * math.log2(cfg.theta))


def nfa_rect(n_image, counts, cfg):
    from mdlnfa.numeric import binomial_tail_log

    return (2.5 * math.log2(n_image) + math.log2(cfg.gamma)
            + binomial_tail_log(counts.n_r, counts.k_r, cfg.theta))


# ---------------------------------------------------------------------------
# The square approximations and the BSS NFA key as first written, in
# `square_detect` and `polygon`.  The library now evaluates them as methods
# of `numeric.HypothesisCounts`; these copies pin the same floats.
# ---------------------------------------------------------------------------

def approx_log_nfa(square, image):
    from mdlnfa.numeric import hoeffding_tail_bound

    return 1.5 * math.log2(image.n) + hoeffding_tail_bound(square.n, square.k, image.q)


def approx_mdl_score(square, background, image):
    from mdlnfa.numeric import bernoulli_kld, g_term

    n = image.n
    residual = 0.5 * (g_term(background.k, background.n)
                      + g_term(square.k, square.n)
                      - g_term(image.k, image.n))
    return (1.5 * math.log2(n)
            - background.n * bernoulli_kld(background.q, image.q)
            - square.n * bernoulli_kld(square.q, image.q)
            + residual - 0.5 * math.log2(2.0 * math.pi))


def bss_nfa_key(counts, tails):
    from mdlnfa.numeric import binomial_first_term_log

    tail = tails.get(counts.tail)
    if tail is None:
        tail = min(0.0, binomial_first_term_log(*counts.tail))
    return counts.log2_tests + tail


def bss_simplify_full(image, initial, criterion):
    """Reference BSS: `polygon.bss_simplify` as first written, every child
    built as a `PolygonHypothesis` with its full checks and scored through a
    full rasterization by the scorers above.  The incremental library
    version must visit the same polygons with the same scores.

    Backward stepwise selection under the MDL or NFA score.

    Each step evaluates every single-vertex removal and moves to the best
    child if it strictly improves the current score; stops otherwise, or at
    the 3-vertex floor.  Children that degenerate (self-intersect, empty
    footprint) are skipped.  Equal-scoring removals resolve to the lowest
    vertex index, which keeps trajectories deterministic.
    """
    import numpy as np

    from mdlnfa.imaging import count_region, rasterize_polygon
    from mdlnfa.polygon import BssStep, BssTrajectory, PolygonHypothesis

    score_fns = {"mdl": mdl_polygon_score, "nfa": nfa_polygon_score}
    if criterion not in score_fns:
        raise ValueError(f"criterion must be 'mdl' or 'nfa', got {criterion!r}")
    score_fn = score_fns[criterion]
    current = initial
    current_score = score_fn(image, current)

    def step(poly, score):
        mask = rasterize_polygon(poly.vertices, image.width, image.height)
        return BssStep(polygon=poly, score=score, inside=count_region(image, mask))

    steps = [step(current, current_score)]
    while current.c > 3:
        best_child = None
        best_score = math.inf
        for i in range(current.c):
            try:
                child = PolygonHypothesis(np.delete(current.vertices, i, axis=0))
                child_score = score_fn(image, child)
            except ValueError:   # DomainError is a ValueError
                continue
            if child_score < best_score:
                best_child, best_score = child, child_score
        if best_child is None or not best_score < current_score:
            break
        current, current_score = best_child, best_score
        steps.append(step(current, current_score))
    return BssTrajectory(criterion=criterion, steps=tuple(steps))


def shoelace_roll(verts):
    """`imaging._shoelace` as first written, its next vertices by `np.roll`."""
    import numpy as np

    nxt = np.roll(verts, -1, axis=-2)
    return (verts[..., 0] * nxt[..., 1] - verts[..., 1] * nxt[..., 0]).sum(axis=-1)


# The three maps that generate the 8 symmetries of a square grid, each as
# (vertex map, array map) on a height x width grid: pixel (row, col) has its
# center at (x, y) = (col, row).
GRID_SYMMETRIES = {
    "x-mirror": (lambda x, y, width, height: (width - 1 - x, y),
                 lambda a: a[:, ::-1]),
    "y-mirror": (lambda x, y, width, height: (x, height - 1 - y),
                 lambda a: a[::-1, :]),
    "transpose": (lambda x, y, width, height: (y, x), lambda a: a.T),
}


def bss_csv_bytes(image, traj):
    """The bytes of the `bss_<criterion>.csv` that `experiments.run_polygon`
    writes for `traj`, as first written: both columns of every step from
    `polygon_counts(..., relative=True).score()`."""
    import csv
    import io

    from mdlnfa.numeric import LOG10_2
    from mdlnfa.polygon import polygon_counts

    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["step", "vertex_count", "mdl_bits", "log10_nfa"])
    for i, step in enumerate(traj.steps):
        both = polygon_counts(image, step.vertex_count, step.inside,
                              relative=True).score()
        writer.writerow([i, step.vertex_count, f"{both.mdl_bits:.6f}",
                         f"{both.log2_nfa * LOG10_2:.6f}"])
    return out.getvalue().encode()


def removable_all(verts):
    """Reference removability: which one-vertex removals BSS may take, at
    every vertex at once, with one c x c chord-against-edge matrix.

    Per vertex i of a simple polygon: does removing it pass the checks of
    PolygonHypothesis and the zero-area check of rasterize_polygon?  Only
    the new chord v[i-1]v[i+1] is tested, against the edges it is not
    adjacent to, and the child's area is checked.
    """
    import numpy as np

    from mdlnfa.imaging import _shoelace
    from mdlnfa.polygon import _segments_touch

    c = len(verts)
    prv, nxt = np.roll(verts, 1, axis=0), np.roll(verts, -1, axis=0)
    i = np.arange(c)
    gap = (i[None, :] - i[:, None]) % c   # edge k = v[k]v[k+1] seen from vertex i
    far = (gap >= 2) & (gap <= c - 3)
    touch = _segments_touch(prv[:, None], nxt[:, None], verts[None], nxt[None])
    keep = i[:-1]
    children = verts[keep[None, :] + (keep[None, :] >= i[:, None])]
    return ~(touch & far).any(axis=1) & (np.abs(_shoelace(children)) >= 1e-12)


def component_labels(pixels):
    """The 4-connected components of ones, labelled 1, 2, ... in scan order
    by a 2-D breadth-first walk: the label array and {label: size}."""
    from collections import deque

    import numpy as np

    height, width = pixels.shape
    labels = np.zeros_like(pixels, dtype=np.int32)
    sizes = {}
    next_label = 0
    for r0 in range(height):
        for c0 in range(width):
            if pixels[r0, c0] and not labels[r0, c0]:
                next_label += 1
                queue = deque([(r0, c0)])
                labels[r0, c0] = next_label
                size = 0
                while queue:
                    r, c = queue.popleft()
                    size += 1
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                        if 0 <= rr < height and 0 <= cc < width and \
                                pixels[rr, cc] and not labels[rr, cc]:
                            labels[rr, cc] = next_label
                            queue.append((rr, cc))
                sizes[next_label] = size
    return labels, sizes


def trace_contour_grid(image, every: int = 1):
    """Reference tracer: `imaging.trace_contour` as first written, with a 2-D
    breadth-first labelling and a bounds-checked Moore walk on the pixel
    grid.

    Labels the 4-connected components of ones in scan order, keeps the first
    largest, and walks its Moore neighbourhood clockwise from its topmost,
    then leftmost pixel; returns every `every`-th boundary pixel as (x, y).
    """
    import numpy as np

    if (isinstance(every, bool) or not isinstance(every, (int, np.integer))
            or every < 1):
        raise ValueError(f"every must be an integer >= 1, got {every!r}")
    pixels = image.pixels
    height, width = pixels.shape
    labels, sizes = component_labels(pixels)
    if not sizes:
        raise ValueError("image has no foreground pixels to trace")
    target = max(sizes, key=sizes.get)
    inside = labels == target

    rows, cols = np.nonzero(inside)
    start = (int(rows[0]), int(cols[0]))  # topmost, then leftmost

    # Moore neighbourhood in clockwise order starting from west.
    moore = [(0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1)]

    def is_fg(r, c):
        return 0 <= r < height and 0 <= c < width and inside[r, c]

    boundary = [start]
    prev_dir = 0
    current = start
    while True:
        found = False
        for step in range(8):
            d = (prev_dir + step) % 8
            dr, dc = moore[d]
            candidate = (current[0] + dr, current[1] + dc)
            if is_fg(*candidate):
                boundary.append(candidate)
                current = candidate
                prev_dir = (d + 5) % 8   # back up two steps of the scan
                found = True
                break
        if not found:      # isolated pixel
            break
        if current == start and len(boundary) > 2:
            boundary.pop()
            break
        if len(boundary) > 4 * inside.sum() + 8:
            break          # safety net against pathological loops
    verts = np.array([(c, r) for r, c in boundary], dtype=np.float64)
    verts = verts[::every]
    if len(verts) < 3:
        raise ValueError("traced contour has fewer than 3 vertices")
    return verts


def pgm_bytes(magic, samples, maxval):
    """A PGM file (P2 or P5) of the given integer samples, written out by
    hand so that maxval and out-of-range samples can be chosen freely."""
    import numpy as np

    samples = np.asarray(samples)
    header = f"{magic}\n{samples.shape[1]} {samples.shape[0]}\n{maxval}\n".encode()
    if magic == "P5":
        return header + samples.astype(np.uint8).tobytes()
    rows = (" ".join(map(str, row)) for row in samples.tolist())
    return header + "\n".join(rows).encode() + b"\n"


def check_equivalence_per_config(alphabet_size, parts):
    """Reference checker: `equivalence.check_equivalence` as first written,
    enumerating with `itertools.product`, and making and counting both
    decisions once per configuration.  Each part's configurations form one
    matrix, scored by one `spec.xi` call (the library's xi families give a
    row the same value in any batch, as `TestXiAgainstPlainVersions` and
    `TestRandomXiAgainstPerRow` check).  The library version, which scores
    digit-matrix blocks and decides each distinct value once, must give
    equal reports.
    """
    from itertools import product

    import numpy as np

    from mdlnfa.equivalence import (
        EnumerationRefused,
        EquivalenceReport,
        PartReport,
        _mdl_detects,
        _nfa_detects,
        kraft_sum,
    )

    if alphabet_size < 2:
        raise ValueError(f"alphabet size must be >= 2, got {alphabet_size}")
    parts = list(parts)
    if not parts:
        raise ValueError("at least one part is required")
    budget = kraft_sum(parts)
    if budget > 1:
        raise EnumerationRefused(f"risk weights violate sum(1/eta) <= 1: "
                                 f"sum is {budget}")
    reports = []
    for spec in parts:
        states = spec.states(alphabet_size)
        configs = np.array(list(product(range(alphabet_size),
                                        repeat=spec.length)), dtype=np.int64)
        values = np.asarray(spec.xi(configs), dtype=np.float64)
        order = np.sort(values)
        tails = states - np.searchsorted(order, values, side="left")
        detections = mismatches = boundary = 0
        eta = spec.eta
        for tail in tails:
            tail = int(tail)
            nfa_detect = _nfa_detects(eta, tail, states)
            mdl_detect = _mdl_detects(eta, tail, states)
            if eta.numerator * tail == eta.denominator * states:
                boundary += 1
            detections += nfa_detect
            mismatches += nfa_detect != mdl_detect
        reports.append(PartReport(name=spec.name, length=spec.length,
                                  eta=eta, n_configs=states,
                                  detections=detections,
                                  mismatches=mismatches,
                                  boundary_exact=boundary))
    return EquivalenceReport(alphabet_size=alphabet_size, parts=tuple(reports),
                             kraft=budget)


def decide_per_tail(eta, states, weights):
    """`equivalence.decide` as the per-tail loop it replaced: both rules on
    every distinct tail, each outcome weighted by the configurations that
    share the tail.  `weights` are the counts of a part's distinct values in
    increasing order; an object array keeps their sums exact past int64.
    """
    import numpy as np

    from mdlnfa.equivalence import _mdl_detects, _nfa_detects

    weights = np.array(weights, dtype=object)
    tails = np.cumsum(weights[::-1])[::-1]
    detections = mismatches = boundary = 0
    for tail, weight in zip(tails.tolist(), weights.tolist()):
        nfa_detect = _nfa_detects(eta, tail, states)
        mdl_detect = _mdl_detects(eta, tail, states)
        if eta.numerator * tail == eta.denominator * states:
            boundary += weight
        detections += weight * nfa_detect
        mismatches += weight * (nfa_detect != mdl_detect)
    return detections, mismatches, boundary


def xi_count_ones(v) -> float:
    """`equivalence.xi_count_ones` as first written."""
    return float(sum(1 for s in v if s == 1))


def xi_longest_run(v) -> float:
    """`equivalence.xi_longest_run` as first written."""
    best = run = 1
    for a, b in zip(v, v[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return float(best)


def xi_weighted_sum(v) -> float:
    """`equivalence.xi_weighted_sum` as first written."""
    return float(sum((j + 1) * s for j, s in enumerate(v)))


def make_random_xi(seed: int, low: int = 0, high: int = 100):
    """`equivalence.make_random_xi` as first written, one scalar draw per
    row not seen before."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    table: dict[tuple, float] = {}

    def xi(v: np.ndarray) -> np.ndarray:
        out = np.empty(len(v))
        for i, row in enumerate(map(tuple, v.tolist())):
            if row not in table:
                table[row] = float(rng.integers(low, high + 1))
            out[i] = table[row]
        return out

    return xi
