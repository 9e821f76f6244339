"""Polygonal region scoring and backward-stepwise simplification (BSS).

A polygon hypothesis is scored like the square case, with the region header
replaced by the vertex list: each of the c vertices costs 1 + log2(n) bits
under MDL, and contributes a factor 2 * n to the test count under the
a-contrario criterion (closed polygon: sides = vertices).

BSS starts from the full vertex set and greedily removes the single vertex
whose removal improves the score most, stopping when no removal improves it
or only a triangle is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import (BinaryImage, _scanline_rows, count_region, rasterize_polygon,
                      row_span, zero_area)
from .numeric import DomainError, HypothesisCounts, RegionCounts, Score


@dataclass(frozen=True, eq=False)
class PolygonHypothesis:
    """Ordered vertices (x, y) of a simple closed polygon, c >= 3."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError("vertices must be an ordered list of (x, y) pairs")
        if len(verts) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(verts)}")
        if not np.isfinite(verts).all():
            raise ValueError("polygon vertices must be finite")
        if np.any(np.all(verts == np.roll(verts, -1, axis=0), axis=1)):
            raise ValueError("polygon has duplicate consecutive vertices")
        if not _is_simple(verts):
            raise ValueError("polygon is self-intersecting")
        verts = np.ascontiguousarray(verts)
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    @property
    def c(self) -> int:
        return len(self.vertices)

    def without_vertex(self, index: int) -> "PolygonHypothesis":
        return PolygonHypothesis(np.delete(self.vertices, index, axis=0))


def _segments_touch(p1, p2, p3, p4) -> np.ndarray:
    """Element-wise: does segment p1p2 intersect or touch segment p3p4?

    Points are (..., 2) arrays that broadcast against each other.
    """
    def cross(o, u, v):
        return ((u[..., 0] - o[..., 0]) * (v[..., 1] - o[..., 1])
                - (u[..., 1] - o[..., 1]) * (v[..., 0] - o[..., 0]))

    d1 = cross(p3, p4, p1)
    d2 = cross(p3, p4, p2)
    d3 = cross(p1, p2, p3)
    d4 = cross(p1, p2, p4)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)

    # Touching or collinear-overlap cases: a zero cross product with the
    # point inside the other segment's bounding box.
    def on_segment(o, e, p):
        return ((np.minimum(o[..., 0], e[..., 0]) - 1e-12 <= p[..., 0])
                & (p[..., 0] <= np.maximum(o[..., 0], e[..., 0]) + 1e-12)
                & (np.minimum(o[..., 1], e[..., 1]) - 1e-12 <= p[..., 1])
                & (p[..., 1] <= np.maximum(o[..., 1], e[..., 1]) + 1e-12))

    return (proper
            | ((d1 == 0) & on_segment(p3, p4, p1))
            | ((d2 == 0) & on_segment(p3, p4, p2))
            | ((d3 == 0) & on_segment(p1, p2, p3))
            | ((d4 == 0) & on_segment(p1, p2, p4)))


def _is_simple(verts: np.ndarray) -> bool:
    """No two non-adjacent edges intersect or touch."""
    c = len(verts)
    ii, jj = np.triu_indices(c, k=2)
    keep = ~((ii == 0) & (jj == c - 1))   # first and last edge are adjacent
    ii, jj = ii[keep], jj[keep]
    nxt = np.roll(verts, -1, axis=0)
    return not _segments_touch(verts[ii], nxt[ii], verts[jj], nxt[jj]).any()


def polygon_counts(image: BinaryImage, c: int, inside: tuple,
                   relative: bool = False) -> HypothesisCounts:
    """Counts of a c-vertex polygon whose interior has counts `inside` =
    (n, k): raw MDL code length (less L0 if `relative`) and c sides of 2n
    tests each (`mdl_polygon_score`, `nfa_polygon_score`)."""
    n, ones = image.n, image.count_ones
    if inside[0] == n:
        raise DomainError("polygon covers the whole image; no exterior left")
    unit = 1.0 + math.log2(n)
    return HypothesisCounts(1.0 + c * unit, (inside, (n - inside[0], ones - inside[1])),
                            c * unit, (*inside, ones / n),
                            whole=image.counts if relative else None)


def _counts(image: BinaryImage, poly: PolygonHypothesis,
            relative: bool = False) -> HypothesisCounts:
    mask = rasterize_polygon(poly.vertices, image.width, image.height)
    inside = count_region(image, mask)
    return polygon_counts(image, poly.c, (inside.n, inside.k), relative)


def mdl_polygon_score(image: BinaryImage, poly: PolygonHypothesis) -> float:
    """Raw code length L(x, P) of the image given the polygon, in bits.

    1 + c(1 + log2 n) for the vertex count and coordinates, plus enumerative
    codes for the interior and exterior pixel patterns.
    """
    return _counts(image, poly).mdl_bits()


def nfa_polygon_score(image: BinaryImage, poly: PolygonHypothesis) -> float:
    """log2 NFA = s (1 + log2 n) + log2 B(n1, k1, q), with s = c sides."""
    return _counts(image, poly).log2_nfa()


def polygon_scores(image: BinaryImage, poly: PolygonHypothesis) -> Score:
    return _counts(image, poly, relative=True).score()


def _removable(verts: np.ndarray, i: int) -> bool:
    """Does removing vertex i of a simple polygon pass the checks of
    PolygonHypothesis and the zero-area check of rasterize_polygon?

    Every edge pair of the child that does not hold its new chord
    v[i-1]v[i+1] is a pair of the parent, so only the chord is tested,
    against the edges v[k]v[k+1] it is not adjacent to (k = i+2 .. i-3).
    v[i-1] == v[i+1] needs no test: the parent's edges ending at v[i-1] and
    starting at v[i+1] would touch.
    """
    c = len(verts)
    far = np.arange(i + 2, i + c - 2) % c
    if _segments_touch(verts[i - 1], verts[(i + 1) % c],
                       verts[far], verts[(far + 1) % c]).any():
        return False
    return not zero_area(np.delete(verts, i, axis=0))


def _without_removable_vertex(poly: PolygonHypothesis, index: int) -> PolygonHypothesis:
    """`poly.without_vertex(index)` for an `index` that `_removable` has
    passed, which has already made the checks of `PolygonHypothesis` that
    the removal can break, so `_is_simple` is not run again."""
    verts = np.delete(poly.vertices, index, axis=0)
    verts.setflags(write=False)
    child = object.__new__(PolygonHypothesis)
    object.__setattr__(child, "vertices", verts)
    return child


def _triple(pts: list, i: int) -> tuple:
    """Key of removing vertex i: the coordinates of v[i-1], v[i], v[i+1]."""
    return (*pts[i - 1], *pts[i], *pts[(i + 1) % len(pts)])


def _child_counts(image: BinaryImage, poly: PolygonHypothesis,
                  mask: np.ndarray, inside: RegionCounts, bands: dict) -> list:
    """Interior (n, k) of each one-vertex removal from `poly`, or None where
    the child has no footprint or leaves no exterior; `mask` and `inside`
    are `poly`'s own.  Whether the child is a valid polygon is left to
    `_removable`, which the caller asks only of a child that could win.

    Removing vertex i changes only the edges v[i-1]v[i], v[i]v[i+1] and
    v[i-1]v[i+1], and no edge reaches a row outside its y-range, so the
    child differs from `poly` only on the rows r0..r1 of that triangle;
    those rows are rasterized from the child's own edges.

    `bands` maps `_triple(pts, i)` to (r0, r1, rows, dn, dk): the child's
    mask rows r0..r1 (None if r0 > r1) and its change of (n, k) on them.
    That entry depends only on the triple and on rows r0..r1 of `mask`, so
    it is reused as long as the caller drops it when those rows change
    (see `bss_simplify`); missing entries are computed and stored.
    """
    width, height, total = image.width, image.height, image.n
    ones = image.pixels.view(bool)
    row_n = row_k = None
    pts = poly.vertices.tolist()
    c = len(pts)
    out = [None] * c
    for i in range(c):
        key = _triple(pts, i)
        entry = bands.get(key)
        if entry is None:
            r0, r1 = row_span((pts[i - 1][1], pts[i][1], pts[(i + 1) % c][1]), height)
            rows, dn, dk = None, 0, 0
            if r0 <= r1:
                if row_n is None:
                    row_n = np.count_nonzero(mask, axis=1).tolist()
                    row_k = np.count_nonzero(mask & ones, axis=1).tolist()
                rows = _scanline_rows(pts[:i] + pts[i + 1:], width, r0, r1)
                dn = int(np.count_nonzero(rows)) - sum(row_n[r0:r1 + 1])
                dk = (int(np.count_nonzero(rows & ones[r0:r1 + 1]))
                      - sum(row_k[r0:r1 + 1]))
            entry = bands[key] = (r0, r1, rows, dn, dk)
        n = inside.n + entry[3]
        if 0 < n < total:   # a footprint and an exterior
            out[i] = n, inside.k + entry[4]
    return out


@dataclass(frozen=True)
class BssStep:
    polygon: PolygonHypothesis
    score: float
    inside: RegionCounts   # interior (n, k) of the polygon

    @property
    def vertex_count(self) -> int:
        return self.polygon.c


@dataclass(frozen=True)
class BssTrajectory:
    """Best-per-step polygons visited by BSS, scores strictly decreasing."""

    criterion: str
    steps: tuple[BssStep, ...]

    @property
    def chosen_index(self) -> int:
        scores = [s.score for s in self.steps]
        return int(np.argmin(scores))

    @property
    def chosen(self) -> BssStep:
        return self.steps[self.chosen_index]


def bss_simplify(image: BinaryImage, initial: PolygonHypothesis,
                 criterion: str) -> BssTrajectory:
    """Backward stepwise selection under the MDL or NFA score.

    Each step evaluates every single-vertex removal and moves to the best
    child if it strictly improves the current score; stops otherwise, or at
    the 3-vertex floor.  Children that degenerate (self-intersect, empty
    footprint) are skipped.  Equal-scoring removals resolve to the lowest
    vertex index, which keeps trajectories deterministic.  Children are
    counted from the current polygon's mask (see `_child_counts`), and a
    child's band count is kept from step to step until a removal changes
    its rows.  The initial polygon is the only one rasterized in full: each
    step splices the winner's band into the mask.

    Each child gets a key that is never above its score: its MDL bits, or
    `HypothesisCounts.log2_nfa_bound` with the run's tail memo.  The children
    are walked in (key, index) order, and the walk stops at the first key
    that cannot beat the current score or the best valid child found so far.
    Only a child the walk reaches gets its tail computed, and only one that
    would become the best is checked with `_removable`.  Interior counts
    recur from step to step, so each NFA tail is computed at most once per
    run.
    """
    if criterion not in ("mdl", "nfa"):
        raise ValueError(f"criterion must be 'mdl' or 'nfa', got {criterion!r}")
    nfa, tails = criterion == "nfa", {}
    current = initial
    mask = rasterize_polygon(current.vertices, image.width, image.height)
    inside = count_region(image, mask)
    counts = polygon_counts(image, current.c, (inside.n, inside.k))
    current_score = counts.log2_nfa(tails) if nfa else counts.mdl_bits()
    steps = [BssStep(polygon=current, score=current_score, inside=inside)]
    bands: dict = {}
    while current.c > 3:
        children = _child_counts(image, current, mask, inside, bands)
        keyed = []
        for i, child in enumerate(children):
            if child is not None:
                counts = polygon_counts(image, current.c - 1, child)
                keyed.append((counts.log2_nfa_bound(tails) if nfa else counts.mdl_bits(),
                              i, counts))
        # `bar` is the (score, index) a child must beat: the current score
        # with no index, then the best valid child so far.
        best, bar = None, (current_score, -1)
        for bound, i, counts in sorted(keyed):
            if (bound, i) >= bar:
                break
            score = counts.log2_nfa(tails) if nfa else counts.mdl_bits()
            if (score, i) < bar and _removable(current.vertices, i):
                best, bar = i, (score, i)
        if best is None:
            break
        r0, r1, rows, _, _ = bands[_triple(current.vertices.tolist(), best)]
        if rows is not None:
            mask[r0:r1 + 1] = rows
        # Only rows r0..r1 changed, for the mask and for every later child.
        bands = {triple: entry for triple, entry in bands.items()
                 if entry[1] < r0 or entry[0] > r1}
        current, current_score, inside = (_without_removable_vertex(current, best),
                                          bar[0], RegionCounts(*children[best]))
        steps.append(BssStep(polygon=current, score=current_score, inside=inside))
    return BssTrajectory(criterion=criterion, steps=tuple(steps))
