"""Line-segment candidates on orientation maps, validated by NFA and MDL.

Angles are compared as orientations, within r when d <= r or pi - d <= r
for d = |a - b| mod pi (`_mod_pi`); fl(a - b) = -fl(b - a), so the
comparison is symmetric and invariant to flipping every angle by pi.  Both
the binomial-tail NFA and the per-pixel code-length saving read the
alignment probability theta, so the config stores theta; under an isotropic
map a pixel aligns with a fixed direction with probability theta when the
angle tolerance is rho = theta pi / 2.  The default theta = 0.125 (rho =
pi/16) is the usual line-segment operating point.

Candidate generation is a deliberately plain greedy region grower: it exists
to hand an identical candidate set to both criteria, which is where the
comparison lives.  Candidates can also be supplied from a file and scored
directly.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import (DEFAULT_GRADIENT_THRESHOLD, OrientationMap, _rng, _rows,
                      gradient_orientation)
from .numeric import EPSILON, LOG10_2, Fields, HypothesisCounts, Score, rule


@dataclass(frozen=True)
class LsdConfig:
    """Tolerance and test-count bookkeeping for rectangle validation.

    theta is the isotropic alignment probability; theta < 1 is where aligned
    angles are cheaper to code.  The angle tolerance rho = theta*pi/2 is
    derived from it for the modulo-pi angle metric.  gamma counts how many
    tolerance values are tested (each one multiplies the test family).
    """

    theta: float = 0.125
    gamma: int = 1
    epsilon: float = 1.0
    tau: float = DEFAULT_GRADIENT_THRESHOLD

    FIELDS = Fields(ValueError, theta=rule("real", gt=0, lt=1),
                    gamma=rule("whole", ge=1), epsilon=EPSILON,
                    tau=rule("finite", ge=0))
    __post_init__ = FIELDS.check

    @property
    def rho(self) -> float:
        return self.theta * math.pi / 2.0


@dataclass(frozen=True)
class RectangleCandidate:
    """Rectangle given by the endpoints of its center line and its width."""

    ax: float
    ay: float
    bx: float
    by: float
    width: float

    FIELDS = Fields(ValueError, ax=rule("float"), ay=rule("float"), bx=rule("float"),
                    by=rule("float"), width=rule("float", ge=1))

    def __post_init__(self):
        RectangleCandidate.FIELDS.check(self)
        if self.ax == self.bx and self.ay == self.by:
            raise ValueError("rectangle endpoints must differ")

    @property
    def length(self) -> float:
        return math.hypot(self.bx - self.ax, self.by - self.ay)

    @property
    def angle(self) -> float:
        """Direction of the center line."""
        return math.atan2(self.by - self.ay, self.bx - self.ax)

    @property
    def normal_angle(self) -> float:
        """Normal direction lambda of the center line, in [-pi, pi)."""
        lam = self.angle + math.pi / 2.0
        return (lam + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class AlignmentCounts:
    """Points in a rectangle: total, aligned, and undefined-gradient."""

    n_r: int
    k_r: int
    u_r: int = 0

    FIELDS = Fields(ValueError, n_r=rule("count", ge=0), k_r=rule("count", ge=0),
                    u_r=rule("count", ge=0))

    def __post_init__(self):
        AlignmentCounts.FIELDS.check(self)
        if self.k_r > self.n_r - self.u_r:
            raise ValueError(f"need 0 <= k_r <= n_r - u_r, got {self}")


# Candidates per `_count_batch` call in `score_candidates`, and pixels
# tested per numpy pass of the kernel (plus at most one row): together they
# bound its memory, whatever the size of the rectangles.
_CHUNK = 256
_PIXELS = 1 << 15
# Slacks of the count's float tests: a pixel center on a side is inside, and
# an angle on the tolerance is aligned, up to rounding.  The grower's join
# test min(d, pi - d) <= rho has none: it only proposes what the count decides.
_SLAB_SLACK = 1e-9    # |along| <= len/2 + slack and |across| <= width/2 + slack
_PAD = 1e-13          # relative bound on the rounding of those tests and limits
_ALIGN_SLACK = 1e-12  # min(d, pi - d) <= rho + slack


def _mod_pi(x: np.ndarray) -> np.ndarray:
    """d = |x| mod pi, in place, for differences x of angles in [-pi, pi):
    the float of the grower's scalar `abs(x) % pi`, as fmod is exact and so
    is |x| - pi for pi <= |x| < 2 pi (Sterbenz), at far less cost than
    np.remainder.  Two angles lie within r when d <= r or pi - d <= r."""
    np.abs(x, out=x)
    return np.subtract(x, math.pi * (x >= math.pi), out=x)    # x - 0.0 is x


def _ranges(lo, hi, first, last):
    """Element by element, the start and stop of the integers of
    first..last within one of [lo, hi], and perhaps one more on each side;
    lo and hi may be infinite.  An empty range has stop <= start."""
    empty = (lo > last + 1) | (hi < first - 1)
    start = np.where(lo < first + 1, first, np.floor(lo) - 1)
    stop = np.where(hi > last - 1, last, np.ceil(hi) + 1) + 1
    return (np.where(empty, 0, start).astype(np.int64),
            np.where(empty, 0, stop).astype(np.int64))


def _expand(start, stop):
    """The owner index and the value of every integer of the ranges."""
    count = np.maximum(stop - start, 0)
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) - (np.cumsum(count) - count - start)[owner]


def _count_batch(rects, omap: OrientationMap, rho: float):
    """Four parallel int lists, one entry per rectangle: a refusal code (0
    for counted, else `count_aligned` raises `_REFUSALS[code - 1]`), n_r,
    k_r and u_r (all 0 when refused).

    A pixel center (c, r) is inside when |dx*ux + dy*uy| <= len/2 + s and
    |-dx*uy + dy*ux| <= width/2 + s, with dx = c - cx, dy = r - cy and
    s = `_SLAB_SLACK`; that float test alone decides membership.  Only the
    rectangle's rows are tested, and in each row only the columns between
    its two slab limits.  Each limit is widened by a bound on the rounding
    of the test and of the limit (`_PAD`), and then by one pixel.  `_mod_pi`
    measures each defined pixel's angle against the normal.

    Every rectangle, row and pixel is an element of a numpy array, and each
    element gets the float operations of a scalar walk over its rectangle
    alone (`tests/oracles.py::count_aligned_rows`), so a rectangle's counts
    do not depend on the batch.  The angle, its cosine and sine, the normal
    and the length stay on `math`, one rectangle at a time.  Floats overflow
    to infinity as Python floats do, and the ranges take infinite limits; a
    rectangle whose bounding box does not fit in a float is refused.
    """
    height, width = omap.height, omap.width
    geometry = []
    for rect in rects:
        angle = rect.angle
        geometry.append((rect.ax, rect.ay, rect.bx, rect.by, rect.width, rect.length,
                         math.cos(angle), math.sin(angle), rect.normal_angle))
    ax, ay, bx, by, wd, length, ux, uy, normal = np.array(
        geometry, dtype=np.float64).reshape(-1, 9).T
    n_rects = len(geometry)
    with np.errstate(over="ignore"):
        cx = 0.5 * (ax + bx)
        cy = 0.5 * (ay + by)
        half_len = length / 2.0
        half_wid = wd / 2.0
        reach = half_len + half_wid + 1.0
        with np.errstate(invalid="ignore"):      # inf - inf: refused below
            box = np.stack([cx - reach, cx + reach, cy - reach, cy + reach])
        finite = np.isfinite(box).all(axis=0)
        cx, cy, half_len, box = (np.where(finite, v, 0.0)
                                 for v in (cx, cy, half_len, box))
        col_lo = np.maximum(0.0, np.floor(box[0]))
        col_hi = np.minimum(width - 1.0, np.ceil(box[1]))
        row_lo = np.maximum(0.0, np.floor(box[2]))
        row_hi = np.minimum(height - 1.0, np.ceil(box[3]))
        len_tol = half_len + _SLAB_SLACK
        wid_tol = half_wid + _SLAB_SLACK
        # The rounding of the test and of the limits stays within a few ulps
        # of the largest magnitude involved; pad bounds it generously.
        pad = _PAD * np.max([np.abs(cx), np.abs(cy), np.full(n_rects, width),
                             np.full(n_rects, height), half_len, half_wid],
                            axis=0)
        len_lim, wid_lim = len_tol + pad, wid_tol + pad
        ext_y = len_lim * np.abs(uy) + wid_lim * np.abs(ux)
        # Signed so that (-len_lim - b) / ux <= (len_lim - b) / ux, and alike
        # for uy; cos of a float angle is never 0, but sin is 0 at angle 0.
        len_lim = np.copysign(len_lim, ux)
        wid_lim = np.copysign(wid_lim, uy)

        inside_image = finite & (col_lo <= col_hi) & (row_lo <= row_hi)
        keep = np.flatnonzero(inside_image)
        rect_of, r = _expand(*_ranges((cy - ext_y)[keep], (cy + ext_y)[keep],
                                      row_lo[keep], row_hi[keep]))  # per row
        rect_of = keep[rect_of]
        dy = r - cy[rect_of]
        dy_uy, dy_ux = dy * uy[rect_of], dy * ux[rect_of]
        lo = (-len_lim[rect_of] - dy_uy) / ux[rect_of]
        hi = (len_lim[rect_of] - dy_uy) / ux[rect_of]
        row_uy = uy[rect_of]
        slanted = row_uy != 0.0
        x = np.divide(dy_ux - wid_lim[rect_of], row_uy,
                      out=np.full_like(lo, -np.inf), where=slanted)
        lo = np.where(x > lo, x, lo)
        x = np.divide(dy_ux + wid_lim[rect_of], row_uy,
                      out=np.full_like(hi, np.inf), where=slanted)
        hi = np.where(x < hi, x, hi)
        row_cx = cx[rect_of]
        start, stop = _ranges(row_cx + lo, row_cx + hi,
                              col_lo[rect_of], col_hi[rect_of])

        tested = np.cumsum(np.maximum(stop - start, 0))
        total = int(tested[-1]) if len(tested) else 0
        cuts = np.searchsorted(tested, np.arange(_PIXELS, total, _PIXELS)).tolist()
        n_r = np.zeros(n_rects, dtype=np.int64)
        u_r = n_r.copy()
        k_r = n_r.copy()
        tol = rho + _ALIGN_SLACK
        for a, b in zip([0, *cuts], [*cuts, len(tested)]):
            row, c = _expand(start[a:b], stop[a:b])     # per pixel
            row += a
            rect = rect_of[row]
            dx = c - row_cx[row]
            along = dx * ux[rect] + dy_uy[row]
            across = -dx * uy[rect] + dy_ux[row]
            inside = ((-len_tol[rect] <= along) & (along <= len_tol[rect])
                      & (-wid_tol[rect] <= across) & (across <= wid_tol[rect]))
            flat = r[row[inside]] * width + c[inside]
            rect = rect[inside]
            defined = omap.defined.reshape(-1)[flat]
            n_r += np.bincount(rect, minlength=n_rects)
            u_r += np.bincount(rect[~defined], minlength=n_rects)
            rect = rect[defined]
            d = _mod_pi(omap.angles.reshape(-1)[flat[defined]] - normal[rect])
            k_r += np.bincount(rect[(d <= tol) | (math.pi - d <= tol)],
                               minlength=n_rects)
    # 1: past the float range, 2: outside the image, 3: no pixel center.
    code = np.where(n_r == 0, 1 + finite.astype(np.int64) + inside_image, 0)
    return code.tolist(), n_r.tolist(), k_r.tolist(), u_r.tolist()


# Why `count_aligned` refuses a rectangle, by `_count_batch`'s code less one.
_REFUSALS = ("rectangle extends past the float range",
             "rectangle lies fully outside the image",
             "rectangle covers no pixel centers inside the image")


def count_aligned(rect: RectangleCandidate, omap: OrientationMap,
                  rho: float) -> AlignmentCounts:
    """Count pixels whose centers fall inside the rectangle and whose
    orientation lies within rho of the rectangle normal (modulo pi).

    A batch of one for `_count_batch`, which `score_candidates` runs on
    chunks of candidates; both give the same counts.  Raises ValueError
    when the rectangle lies fully outside the image, covers no pixel center
    in it, or has a bounding box that does not fit in a float.
    """
    (code,), (n_r,), (k_r,), (u_r,) = _count_batch([rect], omap, rho)
    if code:
        raise ValueError(_REFUSALS[code - 1])
    return AlignmentCounts(n_r=n_r, k_r=k_r, u_r=u_r)


def rect_counts(n_image: int, counts: AlignmentCounts,
                cfg: LsdConfig) -> HypothesisCounts:
    """Counts of a rectangle against the isotropic background.

    MDL: the code-length delta of describing the rectangle's aligned points
    apart: 5/2 log2 n for the geometry, an enumerative code selecting which
    points align, and k_r log2 theta of savings because aligned angles live
    in a fraction theta of the angle alphabet.  The per-pixel background
    cost (24 bits under the 2^24-value gradient alphabet) cancels and never
    appears.  Negative means the rectangle pays for itself.  NFA:
    log2 NFA = 5/2 log2 n + log2 gamma + log2 B(n_r, k_r, theta).
    """
    header = 2.5 * math.log2(n_image)
    return HypothesisCounts(((header, ((counts.n_r, counts.k_r),)),),
                            header + math.log2(cfg.gamma),
                            (counts.n_r, counts.k_r, cfg.theta),
                            extra=counts.k_r * math.log2(cfg.theta))


def nfa_rect(n_image: int, counts: AlignmentCounts, cfg: LsdConfig) -> float:
    """`rect_counts(n_image, counts, cfg).log2_nfa()`, a perfbench span until ROADMAP item 1."""
    return rect_counts(n_image, counts, cfg).log2_nfa()


def mdl_rect(n_image: int, counts: AlignmentCounts, cfg: LsdConfig) -> float:
    """`rect_counts(n_image, counts, cfg).mdl_bits()`, a perfbench span until ROADMAP item 1."""
    return rect_counts(n_image, counts, cfg).mdl_bits()


def _fit_batch(coords: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """Fit B regions of m pixels each: `coords` is (B, m, 2) as (col=x,
    row=y), `weights` None or (B, m).  Returns the (B, 5) rows
    (ax, ay, bx, by, width) and the (B,) mask of regions with zero scatter,
    whose rows are meaningless.

    Weighted centroid, principal axis of the weighted scatter, extents
    covering the pixel centers.  Each region gets the same numpy, BLAS and
    LAPACK calls as it would alone (a sequential sum over its m rows, one
    gemm, one `eigh`, two gemv), so its row does not depend on the batch.
    """
    if weights is None:     # x * 1.0 and a sum of m ones are exact
        weights = np.ones(coords.shape[:2])
    w_col, w_sum = weights[:, :, None], weights.sum(axis=1)[:, None, None]
    center = (coords * w_col).sum(axis=1, keepdims=True) / w_sum
    centered = coords - center
    # `centered * w_col` is a new buffer even for unit weights: an array
    # times its own transpose takes the syrk path, with other bytes.
    scatter = (centered * w_col).swapaxes(1, 2) @ centered / w_sum
    eigvals, eigvecs = np.linalg.eigh(scatter)
    degenerate = eigvals[:, 1] <= 0.0
    vx, vy = eigvecs[:, 0, 1], eigvecs[:, 1, 1]   # principal direction
    along = (centered @ eigvecs[:, :, 1:])[:, :, 0]
    across = (centered @ np.stack([-vy, vx], axis=1)[:, :, None])[:, :, 0]
    cx, cy = center[:, 0, 0], center[:, 0, 1]
    lo, hi = along.min(axis=1), along.max(axis=1)
    hi = np.where(hi == lo, hi + 0.5, hi)     # guard zero-length line
    width = np.maximum(1.0, across.max(axis=1) - across.min(axis=1) + 1.0)
    rows = np.stack([cx + vx * lo, cy + vy * lo, cx + vx * hi, cy + vy * hi,
                     width], axis=1)
    return rows, degenerate


def fit_rectangle(coords: np.ndarray, weights=None) -> RectangleCandidate:
    """Fit a rectangle to region pixels: weighted centroid, principal axis of
    the weighted scatter, extents covering the pixel centers.

    A batch of one for the fitter that `region_grow_candidates` runs on
    every region of a given size at once, so both give the same bytes.
    """
    coords = np.asarray(coords, dtype=np.float64)  # (m, 2) as (col=x, row=y)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must be (m, 2) pixel centers")
    if len(coords) < 2:
        raise ValueError("cannot fit a rectangle to fewer than 2 pixels")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)[None]
    rows, degenerate = _fit_batch(coords[None], weights)
    if degenerate[0]:
        raise ValueError("degenerate region: zero scatter")
    return RectangleCandidate(*rows[0].tolist())


def _fit_regions(pixels: np.ndarray, starts: np.ndarray, width: int,
                 magnitude) -> list[RectangleCandidate]:
    """Fit the regions `pixels[starts[i]:starts[i + 1]]` (flat indices on a
    grid `width` wide with a one-pixel border), one `_fit_batch` per
    distinct size, and return their rectangles in region order.  Regions
    with zero scatter or an invalid rectangle are dropped."""
    sizes = np.diff(starts)
    rows = np.empty((len(sizes), 5))
    keep = np.empty(len(sizes), dtype=bool)
    for m in np.flatnonzero(np.bincount(sizes)).tolist():
        batch = np.flatnonzero(sizes == m)
        flat = pixels[starts[batch, None] + np.arange(m)]         # (B, m)
        coords = np.stack([flat % width - 1, flat // width - 1],
                          axis=2).astype(np.float64)
        rows[batch], degenerate = _fit_batch(
            coords, None if magnitude is None else magnitude[flat])
        keep[batch] = ~degenerate
    candidates = []
    for row in zip(*rows[keep].T.tolist()):
        try:
            candidates.append(RectangleCandidate(*row))
        except ValueError:
            continue
    return candidates


_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1),
              (0, 1), (1, -1), (1, 0), (1, 1))
# Widening of rho in the grower's check of a pixel against the running mean
# before it walks the neighbor band of `_lone_seeds`, and of the band's
# 2 rho (by twice this): far above the ~1e-15 by which the float distances
# may differ from the true one, so the band's triangle inequality holds.
# It only skips neighbors that would be rejected; it decides no join.
_LONE_MARGIN = 1e-9


def _lone_seeds(omap: OrientationMap, rho: float) -> tuple[bytearray, bytearray]:
    """Two masks, one byte per pixel of the grower's bordered flat grid:
    `lone`, 1 where the pixel is defined and no defined 8-neighbor lies
    within rho of its angle, modulo pi; and `near`, whose bit j is set
    where neighbor j (in `_NEIGHBORS` order) is defined and lies within
    2 rho of the pixel's angle.

    A lone seed grows no further than itself: until its first join the
    grower tests neighbors against the seed's own angle, by the float test
    that `lone` makes with `_mod_pi`, with no margin.

    `near` bounds the neighbors that can join through a pixel p while p
    lies within rho + `_LONE_MARGIN` of the region mean m: a joining q
    lies within rho of m, so by the triangle inequality for the distance
    modulo pi it lies within 2 rho + `_LONE_MARGIN` + ~1e-15 of p, inside
    the band's 2 (rho + `_LONE_MARGIN`).  fl(a - b) = -fl(b - a), so one
    difference per pair, over the E, SW, S and SE neighbors, serves both
    ends of both masks.  Undefined angles may be anything: their pairs are
    masked out, and what they compute does not warn.
    """
    height, width = omap.height, omap.width
    angles, defined = omap.angles, omap.defined
    band = 2.0 * (rho + _LONE_MARGIN)
    aligned = np.zeros((height, width), dtype=bool)
    near = np.zeros((height + 2, width + 2), dtype=np.uint8)
    buf = np.empty(height * width)
    hit = np.empty(height * width, dtype=bool)
    bits = np.empty(height * width, dtype=np.uint8)
    with np.errstate(invalid="ignore", over="ignore"):
        for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):   # q = p + (dr, dc)
            p = (slice(0, height - dr), slice(max(0, -dc), width - max(0, dc)))
            q = (slice(dr, height), slice(max(0, dc), width + min(0, dc)))
            shape = (height - dr, width - abs(dc))
            x = buf[:shape[0] * shape[1]].reshape(shape)
            h = hit[:x.size].reshape(shape)
            b = bits[:x.size].reshape(shape)
            np.subtract(angles[q], angles[p], out=x)
            _mod_pi(x)
            np.minimum(x, math.pi - x, out=x)
            np.less_equal(x, band, out=h)
            h &= defined[p]
            h &= defined[q]
            for end, j in ((p, _NEIGHBORS.index((dr, dc))),
                           (q, _NEIGHBORS.index((-dr, -dc)))):
                np.left_shift(h.view(np.uint8), j, out=b)
                near[1:-1, 1:-1][end] |= b
            np.less_equal(x, rho, out=h)
            h &= defined[p]
            h &= defined[q]
            aligned[p] |= h
            aligned[q] |= h
    return bytearray(np.pad(defined & ~aligned, 1)), bytearray(near)


def region_grow_candidates(omap: OrientationMap, cfg: LsdConfig,
                           min_region_size: int = 5) -> list[RectangleCandidate]:
    """Group mutually aligned neighbor pixels and fit rectangles to them.

    Seeds are visited in decreasing gradient-magnitude order (scan order when
    the map carries no magnitudes).  A pixel joins a region when its angle is
    within rho of the region's running mean orientation, modulo pi as in
    `_mod_pi`; every pixel belongs to at most one region, and regions grow
    breadth-first.

    The loop runs on Python scalars over flat memoryviews of the map's
    arrays, copied onto a grid with a one-pixel undefined border: every
    pixel reaches its 8 neighbors by fixed flat offsets, with no bounds
    check, and the seed order and regions are those of the unbordered map.
    One `blocked` byte per pixel marks it undefined or already in a region.
    The kept regions go into one flat index buffer, and are fitted after
    the loop in batches of equal size (`fit_rectangle` on each region gives
    the same rectangles).

    `_lone_seeds` makes two masks.  Regions below max(2, min_region_size)
    pixels are dropped, so a seed that `lone` marks, whose region is
    itself alone, is only blocked.  That mask is not folded into `blocked`:
    a lone pixel may still join an earlier seed's region, whose mean is not
    its angle.  When a pixel p starts its expansion within rho +
    `_LONE_MARGIN` of the mean, it tests only the neighbors that `near[p]`
    holds, in the usual order: no other one can join while the mean stays
    put, and a skipped neighbor is a reject, which changes neither
    `blocked` nor the mean.  The mean moves only at a join, so after each
    join p is checked again, and once it has left that band every later
    neighbor is tested.  Otherwise p tests all 8.  The margin only widens
    which pairs are tested, so the regions are those of testing every
    neighbor.  Raises ValueError unless min_region_size is an integer >= 1.
    """
    rule("count", ge=1).check("min_region_size", min_region_size)
    # Made first, so their float buffer is freed before the grid copies
    # below are made: the process peak stays as it was.
    lone, near = _lone_seeds(omap, cfg.rho)
    height, width = omap.height + 2, omap.width + 2     # bordered grid
    blocked = bytearray(np.pad(~omap.defined, 1, constant_values=True))
    angles = memoryview(np.pad(omap.angles, 1).ravel())
    if omap.magnitude is None:
        magnitude, order = None, range(height * width)
    else:
        magnitude = np.pad(omap.magnitude, 1).ravel()
        order = memoryview(np.argsort(-magnitude, kind="stable"))
    rho = cfg.rho
    lim = rho + _LONE_MARGIN
    pi = math.pi
    cos, sin, atan2 = math.cos, math.sin, math.atan2
    offsets = tuple(dr * width + dc for dr, dc in _NEIGHBORS)
    walks = [tuple(off for j, off in enumerate(offsets) if bits >> j & 1)
             for bits in range(256)]        # the offsets a `near` byte holds
    min_size = max(2, min_region_size)
    pixels = array("q")         # kept regions, back to back
    starts = [0]
    for seed in order:
        if blocked[seed]:
            continue
        blocked[seed] = 1
        if lone[seed]:
            continue
        region = [seed]
        mean_angle = angles[seed]
        sx = cos(2.0 * mean_angle)
        sy = sin(2.0 * mean_angle)
        for flat in region:        # breadth-first: appended pixels come later
            d = abs(angles[flat] - mean_angle) % pi     # `_mod_pi`, inline
            short = d <= lim or pi - d <= lim
            todo = walks[near[flat]] if short else offsets
            while todo:
                for off in todo:
                    nb = flat + off
                    if blocked[nb]:
                        continue
                    a = angles[nb]
                    d = abs(a - mean_angle) % pi
                    if d > rho and pi - d > rho:      # min(d, pi - d) > rho
                        continue
                    blocked[nb] = 1
                    region.append(nb)
                    sx += cos(2.0 * a)
                    sy += sin(2.0 * a)
                    mean_angle = 0.5 * atan2(sy, sx)
                    if short:
                        d = abs(angles[flat] - mean_angle) % pi
                        if d > lim and pi - d > lim:  # flat left the band
                            short = False
                            todo = offsets[offsets.index(off) + 1:]
                            break
                else:
                    break
        if len(region) >= min_size:
            pixels.extend(region)
            starts.append(len(pixels))
    del angles, blocked, lone, near, order  # lowers the peak: the fit needs none
    return _fit_regions(np.frombuffer(pixels, dtype=np.int64),
                        np.array(starts), width, magnitude)


@dataclass(frozen=True)
class SegmentDetection:
    candidate: RectangleCandidate
    counts: AlignmentCounts
    score: Score
    nfa_keep: bool
    mdl_keep: bool


def score_candidates(omap: OrientationMap, candidates,
                     cfg: LsdConfig) -> list[SegmentDetection]:
    """Score an identical candidate set under both criteria.

    The counts come from `_count_batch` on chunks of `_CHUNK` candidates,
    equal to `count_aligned` on each; a candidate that `count_aligned`
    refuses is skipped.  Both criteria read only (n_r, k_r), so each
    distinct pair is scored and decided once.
    """
    n_image = omap.height * omap.width
    rho = cfg.rho
    decisions = {}      # (n_r, k_r) -> (score, nfa_keep, mdl_keep)
    out = []
    candidates = list(candidates)
    for at in range(0, len(candidates), _CHUNK):
        chunk = candidates[at:at + _CHUNK]
        counted = _count_batch(chunk, omap, rho)
        for cand, code, n_r, k_r, u_r in zip(chunk, *counted):
            if code:
                continue
            counts = AlignmentCounts(n_r=n_r, k_r=k_r, u_r=u_r)
            decision = decisions.get((n_r, k_r))
            if decision is None:
                score = rect_counts(n_image, counts, cfg).score()
                decision = decisions[n_r, k_r] = (
                    score, score.nfa_detects(cfg.epsilon), score.mdl_detects())
            out.append(SegmentDetection(cand, counts, *decision))
    return out


def detect_segments(gray: np.ndarray, cfg: LsdConfig, *,
                    candidates=None) -> list[SegmentDetection]:
    """Full pipeline: orientation map, candidate growth, dual validation.

    Returns every scored candidate with both keep flags.  Supplying
    `candidates` bypasses region growing for criterion-only comparisons.
    """
    omap = gradient_orientation(gray, tau=cfg.tau)
    if candidates is None:
        candidates = region_grow_candidates(omap, cfg)
    return score_candidates(omap, candidates, cfg)


def isotropic_orientation_map(width: int, height: int, seed) -> OrientationMap:
    """Uniform random orientations, all defined: the H0 background model.
    Raises ValueError unless width and height are integers >= 1 and seed
    follows NoiseConfig's rule."""
    for name, size in (("width", width), ("height", height)):
        rule("count", ge=1).check(name, size)
    rule("seed", ge=0).check("seed", seed)
    angles = _rng(seed).uniform(-math.pi, math.pi, size=(height, width))
    angles[angles >= math.pi] = -math.pi
    return OrientationMap(angles=angles, defined=np.ones((height, width), bool))


def write_candidates_file(path, candidates) -> None:
    """One 'ax ay bx by w' rectangle per line."""
    lines = [f"{c.ax:.4f} {c.ay:.4f} {c.bx:.4f} {c.by:.4f} {c.width:.4f}"
             for c in candidates]
    Path(path).write_text("\n".join(lines) + "\n")


def read_candidates_file(path) -> list[RectangleCandidate]:
    cands = []
    for where, line in _rows(path):
        try:
            ax, ay, bx, by, w = (float(v) for v in line.split()[:5])
            cands.append(RectangleCandidate(ax=ax, ay=ay, bx=bx, by=by, width=w))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return cands


def write_segments_file(path, detections) -> None:
    """Detections with scores and keep flags, one segment per line."""
    lines = ["# ax ay bx by w log10_nfa mdl_bits nfa_keep mdl_keep"]
    for d in detections:
        c = d.candidate
        log10_nfa = d.score.log2_nfa * LOG10_2
        lines.append(f"{c.ax:.4f} {c.ay:.4f} {c.bx:.4f} {c.by:.4f} "
                     f"{c.width:.4f} {log10_nfa:.4f} {d.score.mdl_bits:.4f} "
                     f"{int(d.nfa_keep)} {int(d.mdl_keep)}")
    Path(path).write_text("\n".join(lines) + "\n")
