"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own code paths: exact integer /
rational arithmetic and per-pixel loops only, or the plain first version of
a loop the library has since made fast.
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
    element-wise `math.lgamma` difference above.  The library now maps
    arrays over its integer code; the bits must not change.
    """
    import numpy as np

    from mdlnfa.numeric import DomainError, _as_count_array

    _TABLE_SIZE = 10_000
    _LN2 = math.log(2.0)
    _LOG2_FACT = np.zeros(_TABLE_SIZE + 1)
    _LOG2_FACT[1:] = np.cumsum(np.log2(np.arange(1, _TABLE_SIZE + 1,
                                                 dtype=np.float64)))
    _lgamma = np.frompyfunc(math.lgamma, 1, 1)

    n_arr = _as_count_array(n, "n")
    k_arr = _as_count_array(k, "k")
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

    def orientation_distance(a, b):
        d = np.mod(np.asarray(a) - np.asarray(b), math.pi)
        return np.minimum(d, math.pi - d)

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


# ---------------------------------------------------------------------------
# MDL scores as first written: each spells out its enumerative code by hand.
# The library now routes them all through `numeric.code_length`; these
# copies pin that every float stays bit-identical.
# ---------------------------------------------------------------------------

def _square_counts(image, sq):
    from mdlnfa.numeric import RegionCounts

    block = image.pixels[sq.row:sq.row + sq.side, sq.col:sq.col + sq.side]
    return RegionCounts(n=sq.n1, k=int(block.sum()))


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


def mdl_rect(n_image, counts, cfg):
    from mdlnfa.numeric import log_binomial

    return (2.5 * math.log2(n_image)
            + math.log2(counts.n_r)
            + log_binomial(counts.n_r, counts.k_r)
            + counts.k_r * math.log2(cfg.theta))
