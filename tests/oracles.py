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
