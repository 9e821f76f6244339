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

from .imaging import BinaryImage, count_region, rasterize_polygon
from .numeric import Score, binomial_tail_log, code_length, complement, l0_code_length


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


def _is_simple(verts: np.ndarray) -> bool:
    """No two non-adjacent edges intersect or touch."""
    c = len(verts)
    a = verts
    b = np.roll(verts, -1, axis=0)
    ii, jj = np.triu_indices(c, k=2)
    keep = ~((ii == 0) & (jj == c - 1))   # first and last edge are adjacent
    ii, jj = ii[keep], jj[keep]
    if ii.size == 0:
        return True
    p1, p2 = a[ii], b[ii]
    p3, p4 = a[jj], b[jj]

    def cross(o, u, v):
        return ((u[:, 0] - o[:, 0]) * (v[:, 1] - o[:, 1])
                - (u[:, 1] - o[:, 1]) * (v[:, 0] - o[:, 0]))

    d1 = cross(p3, p4, p1)
    d2 = cross(p3, p4, p2)
    d3 = cross(p1, p2, p3)
    d4 = cross(p1, p2, p4)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    if proper.any():
        return False

    # Touching or collinear-overlap cases: a zero cross product with the
    # point inside the other segment's bounding box.
    def on_segment(o, e, p):
        return ((np.minimum(o[:, 0], e[:, 0]) - 1e-12 <= p[:, 0])
                & (p[:, 0] <= np.maximum(o[:, 0], e[:, 0]) + 1e-12)
                & (np.minimum(o[:, 1], e[:, 1]) - 1e-12 <= p[:, 1])
                & (p[:, 1] <= np.maximum(o[:, 1], e[:, 1]) + 1e-12))

    touch = (((d1 == 0) & on_segment(p3, p4, p1))
             | ((d2 == 0) & on_segment(p3, p4, p2))
             | ((d3 == 0) & on_segment(p1, p2, p3))
             | ((d4 == 0) & on_segment(p1, p2, p4)))
    return not touch.any()


def _region_counts(image: BinaryImage, poly: PolygonHypothesis):
    mask = rasterize_polygon(poly.vertices, image.width, image.height)
    inside = count_region(image, mask)
    return inside, complement(image.counts, [inside])


def mdl_polygon_score(image: BinaryImage, poly: PolygonHypothesis) -> float:
    """Raw code length L(x, P) of the image given the polygon, in bits.

    1 + c(1 + log2 n) for the vertex count and coordinates, plus enumerative
    codes for the interior and exterior pixel patterns.
    """
    inside, exterior = _region_counts(image, poly)
    return code_length(1.0 + poly.c * (1.0 + math.log2(image.n)),
                       [(inside.n, inside.k), exterior])


def mdl_polygon_relative(image: BinaryImage, poly: PolygonHypothesis) -> float:
    """Polygon code length minus the background-only code length L0."""
    return mdl_polygon_score(image, poly) - l0_code_length(image.counts)


def nfa_polygon_score(image: BinaryImage, poly: PolygonHypothesis) -> float:
    """log2 NFA = s (1 + log2 n) + log2 B(n1, k1, q), with s = c sides."""
    inside, _ = _region_counts(image, poly)
    s = poly.c
    return (s * (1.0 + math.log2(image.n))
            + binomial_tail_log(inside.n, inside.k, image.counts.q))


def polygon_scores(image: BinaryImage, poly: PolygonHypothesis) -> Score:
    return Score(mdl_bits=mdl_polygon_relative(image, poly),
                 log2_nfa=nfa_polygon_score(image, poly))


@dataclass(frozen=True)
class BssStep:
    polygon: PolygonHypothesis
    score: float

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


_SCORE_FN = {"mdl": mdl_polygon_score, "nfa": nfa_polygon_score}


def bss_simplify(image: BinaryImage, initial: PolygonHypothesis,
                 criterion: str) -> BssTrajectory:
    """Backward stepwise selection under the MDL or NFA score.

    Each step evaluates every single-vertex removal and moves to the best
    child if it strictly improves the current score; stops otherwise, or at
    the 3-vertex floor.  Children that degenerate (self-intersect, empty
    footprint) are skipped.  Equal-scoring removals resolve to the lowest
    vertex index, which keeps trajectories deterministic.
    """
    if criterion not in _SCORE_FN:
        raise ValueError(f"criterion must be 'mdl' or 'nfa', got {criterion!r}")
    score_fn = _SCORE_FN[criterion]
    current = initial
    current_score = score_fn(image, current)
    steps = [BssStep(polygon=current, score=current_score)]
    while current.c > 3:
        best_child = None
        best_score = math.inf
        for i in range(current.c):
            try:
                child = current.without_vertex(i)
                child_score = score_fn(image, child)
            except ValueError:   # DomainError is a ValueError
                continue
            if child_score < best_score:
                best_child, best_score = child, child_score
        if best_child is None or not best_score < current_score:
            break
        current, current_score = best_child, best_score
        steps.append(BssStep(polygon=current, score=current_score))
    return BssTrajectory(criterion=criterion, steps=tuple(steps))
