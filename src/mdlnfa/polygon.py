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

from .imaging import (BinaryImage, PolygonMarks, count_region, rasterize_polygon,
                      zero_area)
from .numeric import (CRITERION, DomainError, HypothesisCounts, RegionCounts, Score,
                      code_length, memo_tail, tail_bound)


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
        """This polygon less vertex `index`; raises where the checks of
        `PolygonHypothesis` on those vertices would.

        Every edge pair of the child that does not hold its new chord
        v[i-1]v[i+1] is a pair of this simple polygon, so only the chord is
        tested, against the edges v[k]v[k+1] it is not adjacent to
        (k = i+2 .. i-3).  v[i-1] == v[i+1] needs no test: the edges starting
        at v[i-1] and at v[i+1] would touch.

        The far edges form one run of vertices v[i+2] .. v[i-2], so the
        side of the chord that each run vertex lies on is formed once, and
        two edges that share a vertex share it.  An edge with no zero cross
        product touches the chord only by a proper crossing; the others go
        through `_segments_touch`, which forms the same floats.
        """
        verts, c = self.vertices, self.c
        child = np.delete(verts, index, axis=0)
        if c == 3:
            raise ValueError("polygon needs >= 3 vertices, got 2")
        i = index % c
        (ax, ay), (bx, by) = verts[i - 1].tolist(), verts[(i + 1) % c].tolist()
        run = verts[np.arange(i + 2, i + c - 1) % c]      # v[i+2] .. v[i-2]
        rx, ry = run[:, 0], run[:, 1]
        side = (bx - ax) * (ry - ay) - (by - ay) * (rx - ax)
        ex, ey = rx[1:] - rx[:-1], ry[1:] - ry[:-1]
        d1 = ex * (ay - ry[:-1]) - ey * (ax - rx[:-1])
        d2 = ex * (by - ry[:-1]) - ey * (bx - rx[:-1])
        if ((d1 * d2 < 0) & (side[:-1] * side[1:] < 0)).any():
            raise ValueError("polygon is self-intersecting")
        if not (side.all() and d1.all() and d2.all()):
            zero = side == 0
            edge = np.flatnonzero((d1 == 0) | (d2 == 0) | zero[:-1] | zero[1:])
            if _segments_touch(verts[i - 1], verts[(i + 1) % c],
                               run[edge], run[edge + 1]).any():
                raise ValueError("polygon is self-intersecting")
        child.setflags(write=False)
        poly = object.__new__(PolygonHypothesis)
        object.__setattr__(poly, "vertices", child)
        return poly


# Slack of the bounding-box test for a point on a segment's line.
_BOX_EPS = 1e-12


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
        return ((np.minimum(o[..., 0], e[..., 0]) - _BOX_EPS <= p[..., 0])
                & (p[..., 0] <= np.maximum(o[..., 0], e[..., 0]) + _BOX_EPS)
                & (np.minimum(o[..., 1], e[..., 1]) - _BOX_EPS <= p[..., 1])
                & (p[..., 1] <= np.maximum(o[..., 1], e[..., 1]) + _BOX_EPS))

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
    (n1, k1).

    MDL: the raw code length L(x, P) of the image given the polygon, less
    L0 if `relative`: 1 + c(1 + log2 n) bits for the vertex count and
    coordinates, plus enumerative codes for the interior and exterior pixel
    patterns.  NFA: log2 NFA = s(1 + log2 n) + log2 B(n1, k1, q), with
    s = c sides of 2n tests each and q the image density.
    """
    n, ones = image.n, image.count_ones
    if inside[0] == n:
        raise DomainError("polygon covers the whole image; no exterior left")
    header, tests = _terms(n, c)
    outside = (n - inside[0], ones - inside[1])
    return HypothesisCounts(((header, (inside, outside)),), tests, (*inside, ones / n),
                            whole=image.counts if relative else None)


def _terms(n: int, c: int) -> tuple[float, float]:
    """The MDL header and the log2 NFA test count of a c-vertex polygon on
    an n-pixel image: 1 + c(1 + log2 n) and c(1 + log2 n)."""
    tests = c * (1.0 + math.log2(n))
    return 1.0 + tests, tests


def _child_scores(image: BinaryImage, c: int, nfa: bool, tails: dict):
    """The key and the score of a c-vertex polygon from its interior counts
    (n, k) alone, as two functions of (n, k), for `bss_simplify`.

    MDL: both are `polygon_counts(image, c, (n, k)).mdl_bits()`.  NFA: the
    score is that record's `log2_nfa()`, its tail memoized in `tails` by
    `memo_tail`, and the key is the test count plus `tail_bound` of that
    tail.  Each is that float bit for bit, with no record built.
    """
    n, ones = image.n, image.count_ones
    header, tests = _terms(n, c)
    if not nfa:
        def mdl(inside):
            return code_length(header, (inside, (n - inside[0], ones - inside[1])))
        return mdl, mdl
    q = ones / n
    return (lambda inside: tests + tail_bound((*inside, q), tails),
            lambda inside: tests + memo_tail((*inside, q), tails))


def _counts(image: BinaryImage, poly: PolygonHypothesis,
            relative: bool = False) -> HypothesisCounts:
    mask = rasterize_polygon(poly.vertices, image.width, image.height)
    return polygon_counts(image, poly.c, count_region(image, mask), relative)


def mdl_polygon_score(image: BinaryImage, poly: PolygonHypothesis) -> float:
    """`_counts(image, poly).mdl_bits()`, a perfbench span until ROADMAP item 1."""
    return _counts(image, poly).mdl_bits()


def nfa_polygon_score(image: BinaryImage, poly: PolygonHypothesis) -> float:
    """`_counts(image, poly).log2_nfa()`, a perfbench span until ROADMAP item 1."""
    return _counts(image, poly).log2_nfa()


def polygon_scores(image: BinaryImage, poly: PolygonHypothesis) -> Score:
    """`_counts(image, poly, relative=True).score()`, a perfbench span until ROADMAP item 1."""
    return _counts(image, poly, relative=True).score()


def _child_counts(image: BinaryImage, poly: PolygonHypothesis,
                  marks: PolygonMarks, inside: RegionCounts, entries: list) -> list:
    """Interior counts (n, k), as plain tuples, of each one-vertex removal
    from `poly`, or None where the child has no footprint or leaves no
    exterior; `marks` are those of `poly`, and `inside` its counts.  Whether
    the child is a valid polygon is left to the caller, which asks only of a
    child that could win.

    `entries[i]` is None or the `marks.removal` of vertex i, whose counts
    read the marks of its pixels only, so the caller keeps it while no change
    to the marks meets those pixels (see `bss_simplify`); None entries are
    computed and stored.
    """
    pts = poly.vertices.tolist()
    out = [None] * len(pts)
    for i, entry in enumerate(entries):
        if entry is None:
            entry = entries[i] = marks.removal(pts, i, image)
        n = inside.n + entry[0]
        if 0 < n < image.n:   # a footprint and an exterior
            out[i] = (n, inside.k + entry[1])
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
        """The last step: BSS moves only to a strictly lower score."""
        return len(self.steps) - 1

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
    vertex index, which keeps trajectories deterministic.

    The initial polygon is the only one rasterized: BSS keeps the
    `PolygonMarks` of the current polygon and counts each child from the few
    pixels its removal changes (see `_child_counts`).  A child's count is
    kept from step to step until the winner's removal changes the marks of
    one of its pixels; the winner's removal is then applied to the marks.

    Children with equal interior counts share one key per step, formed
    from those counts alone by `_child_scores`; the header and the test
    count are formed once per step.  The key is never above the child's
    score: it is the score itself under MDL, and under NFA the test count
    plus `numeric.tail_bound` on the run's tail memo.  The children are
    walked in (key, index) order, and the walk stops at the first key that
    cannot beat the current score or the best valid child found so far.
    Only a child the walk reaches gets its NFA tail computed, and only one
    that would become the best is built, by `without_vertex`, and checked
    for zero area.  Interior counts recur from step to step, so each NFA
    tail is computed at most once per run.
    """
    CRITERION.check("criterion", criterion)
    nfa, tails = criterion == "nfa", {}
    current = initial
    marks = PolygonMarks(current.vertices, image.width, image.height)
    inside = count_region(image, marks.mask())
    current_score = _child_scores(image, current.c, nfa, tails)[1](inside)
    steps = [BssStep(polygon=current, score=current_score, inside=inside)]
    entries = [None] * current.c
    while current.c > 3:
        children = _child_counts(image, current, marks, inside, entries)
        key_of, score_of = _child_scores(image, current.c - 1, nfa, tails)
        keys, keyed = {}, []   # (n, k) -> key, once per step
        for i, child in enumerate(children):
            if child is not None:
                key = keys.get(child)
                if key is None:
                    key = keys[child] = key_of(child)
                keyed.append((key, i, child))
        # `bar` is the (score, index) a child must beat: the current score
        # with no index, then the best valid child so far.
        best, bar = None, (current_score, -1)
        for key, i, child in sorted(keyed):
            if (key, i) >= bar:
                break
            score = score_of(child) if nfa else key
            if (score, i) < bar:
                try:
                    poly = current.without_vertex(i)
                except ValueError:
                    continue
                if not zero_area(poly.vertices):
                    best, bar = poly, (score, i)
        if best is None:
            break
        current_score, i = bar
        _, _, changed, change = entries[i]
        marks.apply(change)
        # Only these pixels changed, for the marks and for every later child;
        # the two neighbours of the removed vertex get new removals.
        entries = [entry if entry is not None and changed.isdisjoint(entry[2])
                   else None for entry in entries]
        del entries[i]
        entries[i - 1] = entries[i % len(entries)] = None
        current, inside = best, RegionCounts(*children[i])
        steps.append(BssStep(polygon=current, score=current_score, inside=inside))
    return BssTrajectory(criterion=criterion, steps=tuple(steps))
