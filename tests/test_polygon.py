"""Tests for polygon scoring and backward stepwise simplification."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlnfa.imaging import (
    BinaryImage,
    NoiseConfig,
    flip_noise,
    rasterize_polygon,
    synthesize_squares,
)
from mdlnfa.polygon import (
    PolygonHypothesis,
    bss_simplify,
    mdl_polygon_relative,
    mdl_polygon_score,
    nfa_polygon_score,
    polygon_scores,
)
from mdlnfa.square_detect import Square, l0_code_length, mdl_score_single

SQUARE_POLY = [(10, 10), (10, 49), (49, 49), (49, 10)]


def square_image(delta=0.0, seed=0, side=40, at=(10, 10), size=100):
    return synthesize_squares([(at[0], at[1], side)], size, size,
                              NoiseConfig(delta, seed=seed))


def star_polygon(center, radii, jitter_angles=None):
    cx, cy = center
    c = len(radii)
    angles = np.linspace(0.0, 2 * math.pi, c, endpoint=False)
    if jitter_angles is not None:
        angles = angles + np.asarray(jitter_angles)
    xs = cx + np.asarray(radii) * np.cos(angles)
    ys = cy + np.asarray(radii) * np.sin(angles)
    return np.column_stack([xs, ys])


class TestPolygonHypothesis:
    def test_simple_polygon_accepted(self):
        poly = PolygonHypothesis(np.asarray(SQUARE_POLY, dtype=float))
        assert poly.c == 4

    def test_self_intersecting_rejected(self):
        bowtie = [(0, 0), (10, 10), (10, 0), (0, 10)]
        with pytest.raises(ValueError):
            PolygonHypothesis(np.asarray(bowtie, dtype=float))

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            PolygonHypothesis(np.asarray([(0, 0), (1, 1)], dtype=float))

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            PolygonHypothesis(np.asarray([(0, 0), (0, 0), (5, 5), (0, 5)],
                                         dtype=float))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_vertices_rejected(self, value):
        verts = np.asarray(SQUARE_POLY, dtype=float)
        verts[2, 0] = value
        with pytest.raises(ValueError, match="finite"):
            PolygonHypothesis(verts)

    def test_collinear_vertex_allowed(self):
        verts = [(10, 10), (10, 49), (49, 49), (49, 10), (29, 10)]
        poly = PolygonHypothesis(np.asarray(verts, dtype=float))
        assert poly.c == 5


class TestPolygonScores:
    def test_square_polygon_matches_square_code_up_to_header(self):
        # Same region, different header: the polygon spends 1 + c(1 + log n)
        # bits on its vertices where the square spends (3/2) log n.
        for delta, seed in [(0.0, 0), (0.2, 3)]:
            img = square_image(delta=delta, seed=seed)
            poly = PolygonHypothesis(np.asarray(SQUARE_POLY, dtype=float))
            raw = mdl_polygon_score(img, poly)
            l1 = mdl_score_single(img, Square(10, 10, 40)) + l0_code_length(img.counts)
            assert raw - l1 == pytest.approx(5 + 2.5 * math.log2(img.n), abs=1e-9)

    def test_redundant_collinear_vertex_costs_exactly_one_vertex(self):
        img = square_image()
        base = PolygonHypothesis(np.asarray(SQUARE_POLY, dtype=float))
        extra = PolygonHypothesis(np.asarray(
            [(10, 10), (10, 49), (49, 49), (49, 10), (29, 10)], dtype=float))
        unit = 1 + math.log2(img.n)
        assert mdl_polygon_score(img, extra) - mdl_polygon_score(img, base) == \
            pytest.approx(unit, abs=1e-9)
        assert nfa_polygon_score(img, extra) - nfa_polygon_score(img, base) == \
            pytest.approx(unit, abs=1e-9)

    def test_nfa_positive_when_region_empty_of_ones(self):
        img = square_image(side=10, at=(70, 70))
        poly = PolygonHypothesis(np.asarray(SQUARE_POLY, dtype=float))  # k1 = 0
        assert nfa_polygon_score(img, poly) > 0

    def test_polygon_covering_whole_image_rejected(self):
        img = BinaryImage(np.ones((8, 8), dtype=np.uint8))
        poly = PolygonHypothesis(np.asarray(
            [(-1, -1), (-1, 8), (8, 8), (8, -1)], dtype=float))
        with pytest.raises(Exception):
            mdl_polygon_score(img, poly)

    def test_scores_record(self):
        img = square_image(delta=0.1, seed=1)
        poly = PolygonHypothesis(np.asarray(SQUARE_POLY, dtype=float))
        score = polygon_scores(img, poly)
        assert score.mdl_bits == pytest.approx(
            mdl_polygon_relative(img, poly))
        assert score.mdl_bits < 0 and score.log2_nfa < 0


class TestBss:
    def test_already_optimal_square_stops_immediately(self):
        img = square_image()
        poly = PolygonHypothesis(np.asarray(SQUARE_POLY, dtype=float))
        for criterion in ("mdl", "nfa"):
            traj = bss_simplify(img, poly, criterion)
            assert len(traj.steps) == 1
            assert traj.chosen.polygon is poly

    def test_removes_redundant_vertex_then_stops(self):
        img = square_image()
        extra = PolygonHypothesis(np.asarray(
            [(10, 10), (10, 49), (49, 49), (49, 10), (29, 10)], dtype=float))
        traj = bss_simplify(img, extra, "mdl")
        assert [s.vertex_count for s in traj.steps] == [5, 4]
        assert traj.chosen.vertex_count == 4

    def test_scores_strictly_decrease_and_counts_step_down(self):
        img = square_image(delta=0.15, seed=5)
        radii = np.full(30, 22.0) + np.random.default_rng(2).uniform(-1, 1, 30)
        poly = PolygonHypothesis(star_polygon((50, 50), radii))
        for criterion in ("mdl", "nfa"):
            traj = bss_simplify(img, poly, criterion)
            scores = [s.score for s in traj.steps]
            counts = [s.vertex_count for s in traj.steps]
            assert all(a > b for a, b in zip(scores, scores[1:]))
            assert all(a - 1 == b for a, b in zip(counts, counts[1:]))
            assert all(math.isfinite(s) for s in scores)
            assert traj.chosen_index == len(traj.steps) - 1

    def test_invalid_criterion(self):
        img = square_image()
        poly = PolygonHypothesis(np.asarray(SQUARE_POLY, dtype=float))
        with pytest.raises(ValueError):
            bss_simplify(img, poly, "aic")


def exhaustive_subset_scores(image, vertices, score_fn):
    """Scores of every ordered vertex subset of size >= 3 that forms a valid
    simple polygon with a non-degenerate footprint."""
    c = len(vertices)
    results = {}
    for size in range(3, c + 1):
        for subset in itertools.combinations(range(c), size):
            try:
                poly = PolygonHypothesis(vertices[list(subset)])
                results[subset] = score_fn(image, poly)
            except Exception:
                continue
    return results


class TestBssAgainstExhaustiveOracle:
    def make_instance(self, seed, c):
        rng = np.random.default_rng(seed)
        radii = rng.uniform(8.0, 15.0, size=c)
        verts = star_polygon((24, 24), radii,
                             jitter_angles=rng.uniform(-0.15, 0.15, size=c))
        truth = rasterize_polygon(verts, 48, 48)
        image = flip_noise(BinaryImage(truth.astype(np.uint8)), 0.2,
                           seed=seed + 1000)
        return image, verts

    @pytest.mark.parametrize("seed,c", [(0, 6), (1, 7), (2, 8), (3, 8)])
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_chosen_score_is_enumerated_and_not_worse_than_start(self, seed, c,
                                                                 criterion):
        from mdlnfa.polygon import _SCORE_FN
        image, verts = self.make_instance(seed, c)
        score_fn = _SCORE_FN[criterion]
        initial = PolygonHypothesis(verts)
        traj = bss_simplify(image, initial, criterion)
        all_scores = exhaustive_subset_scores(image, verts, score_fn)
        chosen = traj.chosen.score
        assert chosen <= traj.steps[0].score
        assert any(math.isclose(chosen, s, rel_tol=0, abs_tol=1e-9)
                   for s in all_scores.values())
        # Greedy never ends worse than collapsing all the way to the best
        # triangle in these instances.
        triangles = [s for subset, s in all_scores.items() if len(subset) == 3]
        if triangles:
            assert chosen <= min(triangles) + 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bss_property_small_instances(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(5, 9))
    radii = rng.uniform(7.0, 14.0, size=c)
    verts = star_polygon((20, 20), radii,
                         jitter_angles=rng.uniform(-0.1, 0.1, size=c))
    truth = rasterize_polygon(verts, 40, 40)
    image = flip_noise(BinaryImage(truth.astype(np.uint8)), 0.25, seed=seed)
    initial = PolygonHypothesis(verts)
    traj = bss_simplify(image, initial, "mdl")
    scores = [s.score for s in traj.steps]
    assert all(a > b for a, b in zip(scores, scores[1:]))
    assert traj.chosen.score <= scores[0]
    assert traj.steps[-1].vertex_count >= 3
