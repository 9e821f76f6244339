"""Tests for polygon scoring and backward stepwise simplification."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdlnfa.numeric as numeric_module
import mdlnfa.polygon as polygon_module
from mdlnfa.experiments import ShapeSpec, make_shape_instance, run_polygon
from mdlnfa.imaging import (
    BinaryImage,
    NoiseConfig,
    PolygonMarks,
    count_region,
    flip_noise,
    rasterize_polygon,
    synthesize_squares,
    zero_area,
)
from mdlnfa.numeric import Score, binomial_first_term_log, complement, l0_code_length
from mdlnfa.polygon import (
    PolygonHypothesis,
    _child_counts,
    bss_simplify,
    mdl_polygon_score,
    nfa_polygon_score,
    polygon_counts,
    polygon_scores,
)
from mdlnfa.square_detect import Square, mdl_score_single
from oracles import (GRID_SYMMETRIES, bss_csv_bytes, bss_nfa_key, bss_simplify_full,
                     rasterize_polygon_two_pass, removable_all)

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
            mdl_polygon_score(img, poly) - l0_code_length(img.counts))
        assert score.mdl_bits < 0 and score.log2_nfa < 0

    def test_scores_record_rasterizes_once(self, monkeypatch):
        img = square_image(delta=0.1, seed=1)
        poly = PolygonHypothesis(np.asarray(SQUARE_POLY, dtype=float))
        expected = Score(mdl_bits=mdl_polygon_score(img, poly) - l0_code_length(img.counts),
                         log2_nfa=nfa_polygon_score(img, poly))
        calls = []
        monkeypatch.setattr(polygon_module, "rasterize_polygon",
                            lambda *args: calls.append(args) or rasterize_polygon(*args))
        assert polygon_scores(img, poly) == expected
        assert len(calls) == 1


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
        image, verts = self.make_instance(seed, c)
        score_fn = {"mdl": mdl_polygon_score, "nfa": nfa_polygon_score}[criterion]
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


# ---------------------------------------------------------------------------
# Incremental BSS against the full path
# ---------------------------------------------------------------------------

def trajectory_record(traj):
    return [(s.polygon.vertices.tobytes(), s.score, type(s.score), s.inside)
            for s in traj.steps]


def full_child_counts(image, poly, i):
    """The interior (n, k) the full path gives child i, or None where it
    skips it."""
    try:
        child = PolygonHypothesis(np.delete(poly.vertices, i, axis=0))
        inside = count_region(image, rasterize_polygon(child.vertices,
                                                       image.width, image.height))
        complement(image.counts, [inside])
        return inside.n, inside.k
    except ValueError:   # DomainError is a ValueError
        return None


def without_vertex_or_none(poly, i):
    try:
        return poly.without_vertex(i)
    except ValueError:
        return None


def checked_without_vertex(poly, i):
    """`without_vertex_or_none`, checked to raise exactly where the full
    `PolygonHypothesis` checks of the same vertices do, with the same
    message, and otherwise to give the same vertex bytes."""
    outcomes = []
    for build in (lambda: PolygonHypothesis(np.delete(poly.vertices, i, axis=0)),
                  lambda: poly.without_vertex(i)):
        try:
            outcomes.append(build())
        except ValueError as exc:
            outcomes.append(str(exc))
    full, child = outcomes
    if isinstance(full, str):
        assert child == full
        return None
    assert child.vertices.tobytes() == full.vertices.tobytes()
    return child


def removable_per_vertex(poly, build=checked_without_vertex):
    """Which removals BSS may take: `without_vertex` succeeds and the child
    has area.  Checked at every vertex against the all-vertex oracle."""
    removable = []
    for i in range(poly.c):
        child = build(poly, i)
        removable.append(child is not None and not zero_area(child.vertices))
    assert removable == removable_all(poly.vertices).tolist()
    return removable


def valid_only(children, removable):
    return [counts if ok else None for counts, ok in zip(children, removable)]


def fresh_child_counts(image, poly, inside=None):
    """`_child_counts` of `poly` from fresh marks and no cached entries."""
    marks = PolygonMarks(poly.vertices, image.width, image.height)
    if inside is None:
        inside = count_region(image, rasterize_polygon(poly.vertices, image.width,
                                                       image.height))
    return _child_counts(image, poly, marks, inside, [None] * poly.c)


def assert_children_match_full_path(image, poly, build=checked_without_vertex):
    # `_child_counts` also counts children that BSS may not take; the full
    # path skips them.
    incremental = fresh_child_counts(image, poly)
    full = [full_child_counts(image, poly, i) for i in range(poly.c)]
    assert valid_only(incremental, removable_per_vertex(poly, build)) == full
    return full


def noise_image(size, seed=0, density=0.4):
    rng = np.random.default_rng(seed)
    return BinaryImage((rng.random((size, size)) < density).astype(np.uint8))


@pytest.fixture(scope="module")
def shape_instances():
    return {seed: make_shape_instance(ShapeSpec(seed=seed)) for seed in range(3)}


@pytest.fixture(scope="module")
def shape_trajectories(shape_instances):
    """(seed, criterion) -> the `bss_simplify` trajectory and the full-path
    oracle's, each computed once for the module."""
    return {(seed, criterion): (bss_simplify(image, initial, criterion),
                                bss_simplify_full(image, initial, criterion))
            for seed, (image, initial) in shape_instances.items()
            for criterion in ("mdl", "nfa")}


class TestIncrementalBss:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_shape_trajectory_matches_full_oracle(self, shape_trajectories, seed,
                                                  criterion):
        traj, full = shape_trajectories[seed, criterion]
        assert trajectory_record(traj) == trajectory_record(full)

    @pytest.mark.parametrize("seed,c", [(0, 6), (1, 7), (2, 8), (3, 8)])
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_star_trajectory_matches_full_oracle(self, seed, c, criterion):
        image, verts = TestBssAgainstExhaustiveOracle().make_instance(seed, c)
        initial = PolygonHypothesis(verts)
        assert (trajectory_record(bss_simplify(image, initial, criterion))
                == trajectory_record(bss_simplify_full(image, initial, criterion)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_child_along_shape_trajectories(self, shape_instances,
                                                  shape_trajectories, seed):
        image, _ = shape_instances[seed]
        polygons = {}
        for criterion in ("mdl", "nfa"):
            for step in shape_trajectories[seed, criterion][0].steps:
                polygons.setdefault(step.polygon.vertices.tobytes(), step.polygon)
        for poly in polygons.values():   # `without_vertex` is checked below
            assert_children_match_full_path(image, poly, without_vertex_or_none)
        assert len(polygons) > 40

    def test_removable_matches_all_vertex_oracle(self, shape_trajectories):
        # Every vertex of every polygon on the shape and star trajectories,
        # with `without_vertex` checked against the full constructor.
        trajectories = [traj for traj, _ in shape_trajectories.values()] + [
            bss_simplify(image, PolygonHypothesis(verts), criterion)
            for image, verts in (TestBssAgainstExhaustiveOracle().make_instance(seed, c)
                                 for seed, c in [(0, 6), (1, 7), (2, 8), (3, 8)])
            for criterion in ("mdl", "nfa")]
        checked = 0
        for traj in trajectories:
            for step in traj.steps:
                removable_per_vertex(step.polygon)
                checked += step.polygon.c
        assert checked > 5000

    @pytest.mark.parametrize("vertices,raising", [
        ([(2, 2), (2, 12), (12, 12), (12, 2), (7, 2)], []),      # collinear vertex
        ([(2, 2), (10, 2), (10, 10), (6, 6)], []),               # collinear child
        ([(2, 8), (8, 2), (14, 8), (8, 14), (0, 8)], [3]),       # chord through a far vertex
        ([(0.5, 4.5), (4.5, 0.5), (8.5, 4.5), (4.5, 8.5), (2.5, 4.5)], [1]),
        ([(0.5, 0.5), (6.5, 0.5), (6.5, 2.5), (2.5, 2.5), (4.5, 1.5), (0.5, 2.5)],
         [1, 2]),
        ([(0.5, 0.5), (4.5, 0.5), (4.5, 2.5), (2.5, 2.5), (2.5, 4.5), (4.5, 4.5),
          (4.5, 6.5), (0.5, 6.5)], [0, 7]),
        ([(0.5, 0.5), (5.5, 0.5), (0.5, 5.5)], [0, 1, 2]),      # a triangle
        # Dropping (4, -2) leaves the chord (0, 2) -> (8, 2) along the far
        # edge (5, 2) -> (3, 2): collinear, so no proper crossing.
        ([(0, 2), (4, -2), (8, 2), (8, 6), (5, 6), (5, 2), (3, 2), (3, 6), (0, 6)],
         [1]),
        # Dropping (4, -3) leaves the chord (0, 0) -> (8, 0) through the far
        # vertex (4, 0), where two far edges meet.
        ([(0, 0), (4, -3), (8, 0), (8, 5), (4, 0), (0, 5)], [1]),
        # Dropping (4, -3) leaves the chord (0, 0) -> (8, 0); the far
        # vertices (12, 0) and (16, 0) lie on its line, past its end.
        ([(0, 0), (4, -3), (8, 0), (8, 5), (12, 5), (12, 0), (16, 0), (16, 8),
          (0, 8)], [7, 8]),
    ])
    def test_without_vertex_matches_full_checks(self, vertices, raising):
        poly = PolygonHypothesis(np.array(vertices, dtype=float))
        children = [checked_without_vertex(poly, i) for i in range(poly.c)]
        assert [i for i, child in enumerate(children) if child is None] == raising

    def test_collinear_middle_vertex(self):
        poly = PolygonHypothesis(np.array(
            [(2, 2), (2, 12), (12, 12), (12, 2), (7, 2)], dtype=float))
        full = assert_children_match_full_path(noise_image(16), poly)
        assert full[4] is not None   # dropping the collinear vertex is valid

    def test_collinear_triangle_child(self):
        # (6, 6) sits on the edge (10, 10) -> (2, 2); dropping (10, 2)
        # leaves three collinear vertices, a zero-area triangle.
        poly = PolygonHypothesis(np.array(
            [(2, 2), (10, 2), (10, 10), (6, 6)], dtype=float))
        full = assert_children_match_full_path(noise_image(14), poly)
        assert full[1] is None and full[3] is not None

    def test_chord_touching_a_non_adjacent_vertex(self):
        # Dropping (8, 14) leaves the chord (14, 8) -> (0, 8) through (2, 8).
        poly = PolygonHypothesis(np.array(
            [(2, 8), (8, 2), (14, 8), (8, 14), (0, 8)], dtype=float))
        full = assert_children_match_full_path(noise_image(16), poly)
        assert full[3] is None

    def test_horizontal_chord_on_an_integer_row(self):
        poly = PolygonHypothesis(np.array(
            [(2, 10), (5, 4), (11, 4), (14, 10), (8, 15)], dtype=float))
        full = assert_children_match_full_path(noise_image(18, seed=1), poly)
        assert full[4] is not None

    @pytest.mark.parametrize("seed", range(5))
    def test_vertices_on_pixel_centres(self, seed):
        rng = np.random.default_rng(seed)
        radii = rng.integers(4, 9, size=9).astype(float)
        verts = np.round(star_polygon((10, 10), radii))
        poly = PolygonHypothesis(verts)
        assert_children_match_full_path(noise_image(20, seed=seed), poly)

    def test_triangle_inside_one_row(self):
        # The triangles at vertex 1 span row 10 only; at vertex 3 no row.
        poly = PolygonHypothesis(np.array(
            [(2, 10.2), (6, 9.7), (10, 10.3), (14, 10.4), (18, 10.7),
             (12, 16), (4, 16)], dtype=float))
        full = assert_children_match_full_path(noise_image(20, seed=2), poly)
        assert full[1] is not None and full[3] is not None

    def test_triangle_rows_outside_the_image(self):
        image = noise_image(20, seed=3)
        poly = PolygonHypothesis(np.array(
            [(5, -6), (9, -8), (13, -6), (13, 10), (5, 10)], dtype=float))
        full = assert_children_match_full_path(image, poly)
        inside = count_region(image, rasterize_polygon(poly.vertices, 20, 20))
        assert full[1] == (inside.n, inside.k)

    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_builds_once_per_step_and_rasterizes_once(self, monkeypatch, criterion):
        image, initial = TestBssAgainstExhaustiveOracle().make_instance(2, 8)
        initial = PolygonHypothesis(initial)
        calls = Counter()
        post_init = PolygonHypothesis.__post_init__

        def counting_marks(*args, **kwargs):
            calls["PolygonMarks"] += 1
            return PolygonMarks(*args, **kwargs)

        def counting_post_init(self):
            calls["PolygonHypothesis"] += 1
            post_init(self)

        def counting_counts(*args, **kwargs):
            calls["polygon_counts"] += 1
            return polygon_counts(*args, **kwargs)

        monkeypatch.setattr(polygon_module, "PolygonMarks", counting_marks)
        monkeypatch.setattr(PolygonHypothesis, "__post_init__", counting_post_init)
        monkeypatch.setattr(polygon_module, "polygon_counts", counting_counts)
        steps = bss_simplify(image, initial, criterion).steps
        assert len(steps) > 2
        assert calls["PolygonMarks"] == 1
        assert calls["PolygonHypothesis"] == 0
        # The start is scored from its counts like a child: no record built.
        assert calls["polygon_counts"] == 0


@pytest.mark.parametrize("criterion", ["mdl", "nfa"])
def test_step_polygons_pass_full_validation(shape_trajectories, criterion):
    # bss_simplify builds each step's polygon with `without_vertex`, which
    # tests only the new chord, not with the full PolygonHypothesis checks.
    stars = [TestBssAgainstExhaustiveOracle().make_instance(seed, c)
             for seed, c in [(0, 6), (1, 7), (2, 8), (3, 8)]]
    trajectories = [shape_trajectories[seed, criterion][0] for seed in range(3)] + [
        bss_simplify(image, PolygonHypothesis(verts), criterion) for image, verts in stars]
    checked = 0
    for traj in trajectories:
        for step in traj.steps[1:]:
            verts = step.polygon.vertices
            assert verts.dtype == np.float64 and verts.flags.c_contiguous
            assert not verts.flags.writeable
            assert np.array_equal(PolygonHypothesis(verts.copy()).vertices, verts)
            checked += 1
    assert checked > 120


class TestTailMemo:
    def test_one_tail_per_distinct_counts(self, monkeypatch, shape_instances,
                                          shape_trajectories):
        # Interior counts recur from step to step; each (n, k) gets its NFA
        # tail computed once per run.
        image, initial = shape_instances[0]
        calls = Counter()
        tail = numeric_module.binomial_tail_log

        def counting(n, k, q):
            calls[n, k] += 1
            return tail(n, k, q)

        monkeypatch.setattr(numeric_module, "binomial_tail_log", counting)
        traj = bss_simplify(image, initial, "nfa")
        assert calls and max(calls.values()) == 1
        assert trajectory_record(traj) == trajectory_record(shape_trajectories[0, "nfa"][1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_nfa_key_matches_oracle(self, shape_instances, shape_trajectories,
                                    seed, criterion):
        # The walk's key of every child of every step of the trajectory, its
        # tail first absent from the memo, then present for every other child
        # (as for a child the walk has scored), is the oracle's key.
        image, _ = shape_instances[seed]
        tails, keys, hits = {}, 0, 0
        for step in shape_trajectories[seed, criterion][0].steps:
            poly = step.polygon
            if poly.c == 3:
                continue
            key_of = polygon_module._child_scores(image, poly.c - 1, True, tails)[0]
            for i, child in enumerate(fresh_child_counts(image, poly, step.inside)):
                if child is None:
                    continue
                counts = polygon_counts(image, poly.c - 1, child)
                hits += counts.tail in tails
                assert key_of(child) == bss_nfa_key(counts, tails)
                if i % 2:
                    numeric_module.memo_tail(counts.tail, tails)
                    assert key_of(child) == bss_nfa_key(counts, tails)
                keys += 1
        assert keys > 1000 and 0 < hits < keys

    def test_at_most_one_tail_per_step(self, monkeypatch, shape_instances):
        # Only children that can still win get an exact tail; the others
        # are ruled out by the bound on their tail's first term.
        image, initial = shape_instances[0]
        calls = []
        tail = numeric_module.binomial_tail_log

        def counting(n, k, q):
            calls.append((n, k))
            return tail(n, k, q)

        monkeypatch.setattr(numeric_module, "binomial_tail_log", counting)
        steps = bss_simplify(image, initial, "nfa").steps
        assert 0 < len(calls) <= len(steps)


def checked_scores_bss(monkeypatch, image, initial, criterion):
    """bss_simplify, with every child key and every score it forms from
    counts (the start's and each walked child's) checked, bit for bit,
    against the counts record of that polygon: `mdl_bits()`, or `bss_nfa_key`
    on the run's memo and `log2_nfa()`.  Also returns how many of each it
    formed."""
    child_scores = polygon_module._child_scores
    formed = Counter()

    def checking_child_scores(image, c, nfa, tails):
        key_of, score_of = child_scores(image, c, nfa, tails)

        def key(inside):
            counts = polygon_counts(image, c, inside)
            expected = bss_nfa_key(counts, tails) if nfa else counts.mdl_bits()
            got = key_of(inside)
            assert type(got) is float and got.hex() == expected.hex()
            formed["keys"] += 1
            return got

        def score(inside):
            got = score_of(inside)
            counts = polygon_counts(image, c, inside)
            expected = counts.log2_nfa() if nfa else counts.mdl_bits()
            assert type(got) is float and got.hex() == expected.hex()
            formed["scores"] += 1
            return got

        return key, score

    monkeypatch.setattr(polygon_module, "_child_scores", checking_child_scores)
    return bss_simplify(image, initial, criterion), formed


class TestChildScores:
    """Each child's key and score come from its (n, k) alone, with no counts
    record built; they must be the floats that record gives."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_keys_and_walked_scores_along_shape_trajectories(
            self, monkeypatch, shape_instances, shape_trajectories, seed, criterion):
        image, initial = shape_instances[seed]
        traj, formed = checked_scores_bss(monkeypatch, image, initial, criterion)
        assert trajectory_record(traj) == trajectory_record(
            shape_trajectories[seed, criterion][1])
        # Both walks score the start as they score a child.  The MDL walk
        # takes each key as the child's score; the NFA walk scores each
        # child it reaches.
        assert formed["keys"] > 500
        assert (formed["scores"] > len(traj.steps) if criterion == "nfa"
                else formed["scores"] == 1)
        for step in traj.steps:
            counts = polygon_counts(image, step.vertex_count, step.inside)
            expected = counts.log2_nfa() if criterion == "nfa" else counts.mdl_bits()
            assert step.score.hex() == expected.hex()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csv_matches_the_counts_record_writer(self, shape_instances,
                                                  shape_trajectories, tmp_path, seed):
        # `run_polygon` takes the driving column from each step's score and
        # scores only the other column; the bytes are the writer's that
        # scores both from `polygon_counts(..., relative=True)`.
        image, initial = shape_instances[seed]
        trajectories = run_polygon(image, initial, tmp_path)
        for criterion, traj in trajectories.items():
            assert trajectory_record(traj) == trajectory_record(
                shape_trajectories[seed, criterion][1])
            assert ((tmp_path / f"bss_{criterion}.csv").read_bytes()
                    == bss_csv_bytes(image, traj))


@pytest.fixture(scope="module")
def symmetry_shapes():
    """The image, initial polygon and `bss_simplify` trajectories of
    `ShapeSpec(0..3)`, fixed before the guards below were first run."""
    out = {}
    for seed in range(4):
        image, initial = make_shape_instance(ShapeSpec(seed=seed))
        out[seed] = image, initial, {criterion: bss_simplify(image, initial, criterion)
                                     for criterion in ("mdl", "nfa")}
    return out


class TestBssSymmetry:
    """BSS trajectories commute with the grid's symmetries: the mirrored or
    transposed image and polygon give, step for step, the mapped polygon,
    its vertex count and its score.  The mapped vertices are not all exact
    floats (127 - x rounds), so this guards the rasterizer, the marks and
    the walk on general float input."""

    @pytest.mark.parametrize("symmetry", sorted(GRID_SYMMETRIES))
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_shape_trajectories(self, symmetry_shapes, symmetry, seed, criterion):
        image, initial, trajectories = symmetry_shapes[seed]
        move_vertex, move_array = GRID_SYMMETRIES[symmetry]
        height, width = image.pixels.shape

        def move(verts):
            return np.array([move_vertex(x, y, width, height) for x, y in verts.tolist()])

        moved = bss_simplify(BinaryImage(move_array(image.pixels)),
                             PolygonHypothesis(move(initial.vertices)), criterion)
        steps = trajectories[criterion].steps
        assert len(steps) > 20
        assert ([(s.vertex_count, s.score) for s in moved.steps]
                == [(s.vertex_count, s.score) for s in steps])
        for got, step in zip(moved.steps, steps):
            assert np.array_equal(got.polygon.vertices, move(step.polygon.vertices))


class TestLazyWalk:
    """bss_simplify walks the children in (key, index) order and checks only
    those that can still win; each case must still give the full path's
    trajectory."""

    @staticmethod
    def child_scores(image, poly, criterion):
        scores = []
        for child in fresh_child_counts(image, poly):
            counts = polygon_counts(image, poly.c - 1, child)
            scores.append(counts.mdl_bits() if criterion == "mdl"
                          else counts.log2_nfa())
        return scores

    @staticmethod
    def assert_matches_full_path(image, initial, criterion):
        traj = bss_simplify(image, initial, criterion)
        assert (trajectory_record(traj)
                == trajectory_record(bss_simplify_full(image, initial, criterion)))
        return traj

    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_best_scoring_child_self_intersects(self, criterion):
        # Dropping (18, 2) leaves the chord (2, 2) -> (18, 18), which crosses
        # the edge (10, 6) -> (2, 18); the image is that bow-tie's own
        # even-odd footprint, so it scores best of all children.
        verts = np.array([(2, 2), (18, 2), (18, 18), (10, 6), (2, 18)], dtype=float)
        bow_tie = np.delete(verts, 1, axis=0).tolist()
        image = BinaryImage(rasterize_polygon(bow_tie, 20, 20).astype(np.uint8))
        initial = PolygonHypothesis(verts)
        scores = self.child_scores(image, initial, criterion)
        assert int(np.argmin(scores)) == 1 and not removable_per_vertex(initial)[1]
        traj = self.assert_matches_full_path(image, initial, criterion)
        assert traj.steps[1].polygon.vertices.tolist() == np.delete(verts, 2, axis=0).tolist()

    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_exact_tie_goes_to_the_lower_index(self, criterion):
        # Hexagon and image are mirror images about x = 10, so dropping
        # vertex 1 or vertex 5 gives the same counts and the same score.
        verts = np.array([(10, 2), (17, 6), (17, 14), (10, 18), (3, 14), (3, 6)],
                         dtype=float)
        rng = np.random.default_rng(0)
        kite = rasterize_polygon(verts[[0, 2, 3, 4]], 21, 21)
        pixels = (rng.random((21, 21)) < 0.2) | kite
        image = BinaryImage((pixels | pixels[:, ::-1]).astype(np.uint8))
        initial = PolygonHypothesis(verts)
        scores = self.child_scores(image, initial, criterion)
        assert scores[1] == scores[5] == min(scores)
        traj = self.assert_matches_full_path(image, initial, criterion)
        assert traj.steps[1].polygon.vertices.tolist() == np.delete(verts, 1, axis=0).tolist()

    def test_lowest_bound_child_loses(self):
        # On this noise the NFA child with the lowest first-term bound
        # (vertex 4) has a heavier tail than vertex 0, which wins: the walk
        # must go on past the first child it scores.
        image = noise_image(20, seed=1, density=0.5)
        initial = PolygonHypothesis(np.array(
            [(19, 10), (11, 14), (4, 14), (3, 5), (11, 5)], dtype=float))
        bounds = [polygon_counts(image, 4, child) for child in
                  fresh_child_counts(image, initial)]
        bounds = [c.log2_tests + min(0.0, binomial_first_term_log(*c.tail))
                  for c in bounds]
        scores = self.child_scores(image, initial, "nfa")
        assert int(np.argmin(bounds)) == 4 and int(np.argmin(scores)) == 0
        traj = self.assert_matches_full_path(image, initial, "nfa")
        assert traj.steps[1].polygon.vertices.tolist() == initial.vertices[1:].tolist()

    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_constant_image(self, value, criterion):
        # q is 0 or 1, where every child's NFA key is -inf until its tail is
        # computed.
        image = BinaryImage(np.full((20, 20), value, dtype=np.uint8))
        radii = [8, 5, 7, 4, 8, 6, 7, 5]
        initial = PolygonHypothesis(star_polygon((10, 10), radii))
        q = image.count_ones / image.n
        assert q == value and binomial_first_term_log(50, 50 * value, q) == -math.inf
        traj = self.assert_matches_full_path(image, initial, criterion)
        assert len(traj.steps) > 1


def checked_bss(monkeypatch, image, initial, criterion):
    """bss_simplify, with the marks, counts and live entries of every step
    checked against fresh marks and freshly computed entries; also returns,
    for each step, whether each vertex's entry was kept from the step
    before."""
    child_counts = polygon_module._child_counts
    kept = []

    def checking_child_counts(image, poly, marks, inside, entries):
        fresh = PolygonMarks(poly.vertices, image.width, image.height)
        assert (marks.parity, marks.hits) == (fresh.parity, fresh.hits)
        assert inside == count_region(image, rasterize_polygon(
            poly.vertices, image.width, image.height))
        removable_per_vertex(poly, without_vertex_or_none)
        fresh_entries = [None] * poly.c
        expected = child_counts(image, poly, fresh, inside, fresh_entries)
        kept.append({tuple(v): entry is not None
                     for v, entry in zip(poly.vertices.tolist(), entries)})
        for entry, fresh_entry in zip(entries, fresh_entries):
            assert entry is None or entry == fresh_entry
        assert child_counts(image, poly, marks, inside, entries) == expected
        return expected

    monkeypatch.setattr(polygon_module, "_child_counts", checking_child_counts)
    return bss_simplify(image, initial, criterion), kept


class TestBandCache:
    """A child's entry is kept until the winner's removal changes the marks
    of a pixel it reads; kept entries must equal fresh ones."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_live_cache_along_shape_trajectories(self, monkeypatch,
                                                 shape_instances, seed, criterion):
        image, initial = shape_instances[seed]
        traj, kept = checked_bss(monkeypatch, image, initial, criterion)
        assert len(traj.steps) > 40 and min(sum(k.values()) for k in kept[1:]) > 0

    @pytest.mark.parametrize("seed,c", [(0, 6), (1, 7), (2, 8), (3, 8)])
    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_live_cache_along_star_trajectories(self, monkeypatch, seed, c,
                                                criterion):
        image, verts = TestBssAgainstExhaustiveOracle().make_instance(seed, c)
        checked_bss(monkeypatch, image, PolygonHypothesis(verts), criterion)

    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_successive_bands_sharing_one_row(self, monkeypatch, criterion):
        # BSS removes (2, 8), which changes rows 5..8, then (7, 10), whose
        # triangle spans rows 8..10 and shares row 8: the two triangles meet
        # in no pixel, so the entry of (7, 10) is kept, and exact.
        verts = np.array([(8, 10), (7, 10), (5, 8), (4, 8), (2, 8), (4, 5)],
                         dtype=float)
        target = rasterize_polygon(verts[[0, 2, 3, 5]], 12, 12)
        image = BinaryImage(target.astype(np.uint8))
        traj, kept = checked_bss(monkeypatch, image, PolygonHypothesis(verts),
                                 criterion)
        removed = [set(map(tuple, s.polygon.vertices.tolist())) for s in traj.steps]
        assert [a - b for a, b in zip(removed, removed[1:3])] == [{(2.0, 8.0)},
                                                                  {(7.0, 10.0)}]
        assert kept[1][7.0, 10.0]

    @pytest.mark.parametrize("criterion", ["mdl", "nfa"])
    def test_reuses_bands_across_steps(self, monkeypatch, shape_instances,
                                       criterion):
        # Re-counting every child at every step takes one removal per child;
        # keeping the entries leaves about two new ones per step.
        image, initial = shape_instances[0]
        calls = Counter()

        def counting(owner, name):
            f = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counting(polygon_module, "rasterize_polygon")
        counting(polygon_module, "PolygonMarks")
        counting(PolygonMarks, "removal")
        steps = bss_simplify(image, initial, criterion).steps
        assert calls["rasterize_polygon"] == 0 and calls["PolygonMarks"] == 1
        assert calls["removal"] < sum(s.vertex_count for s in steps) / 8


def random_polygon(seed, star, grid, nudge):
    """A noise image and a valid polygon on it drawn from `seed`, or None.

    4-8 random vertices on 12-40 px images, often past the borders; star
    polygons order them by angle around their mean, the others keep the
    draw order and are used when simple.  Grid 1 and 2 snap vertices to
    pixel centres and half pixels; a nudge then moves them by less than
    the rasterizer's 1e-9 row tolerance.
    """
    rng = np.random.default_rng(seed)
    size = int(rng.integers(12, 41))
    verts = rng.uniform(-0.2 * size, 1.2 * size, size=(int(rng.integers(4, 9)), 2))
    if star:
        d = verts - verts.mean(axis=0)
        verts = verts[np.argsort(np.arctan2(d[:, 1], d[:, 0]))]
    if grid:
        verts = np.round(verts * grid) / grid
        if nudge:
            verts += rng.uniform(-9e-10, 9e-10, size=verts.shape)
    image = noise_image(size, seed=seed % 1000)
    try:
        poly = PolygonHypothesis(verts)
        inside = count_region(image, rasterize_polygon(poly.vertices, size, size))
        complement(image.counts, [inside])
    except ValueError:
        return None   # the parent itself is no valid polygon
    return image, poly


random_polygons = given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
                        st.sampled_from([None, 1.0, 2.0]), st.booleans())


@settings(max_examples=150, deadline=None)
@random_polygons
def test_incremental_child_counts_match_full_path(seed, star, grid, nudge):
    drawn = random_polygon(seed, star, grid, nudge)
    if drawn is not None:
        assert_children_match_full_path(*drawn)


@settings(max_examples=100, deadline=None)
@random_polygons
def test_live_entries_along_random_trajectories(seed, star, grid, nudge):
    # Small random polygons have triangles that share pixels with the
    # winner's, so kept entries go stale unless they are dropped.
    drawn = random_polygon(seed, star, grid, nudge)
    if drawn is not None:
        for criterion in ("mdl", "nfa"):
            with pytest.MonkeyPatch.context() as monkeypatch:
                checked_bss(monkeypatch, *drawn, criterion)


@settings(max_examples=150, deadline=None)
@random_polygons
def test_triangle_changes_give_the_child_marks(seed, star, grid, nudge):
    # The marks' mask is the two-pass oracle's, and applying a child's
    # removal to the parent's marks gives the child's own marks.
    drawn = random_polygon(seed, star, grid, nudge)
    if drawn is None:
        return
    image, poly = drawn
    width, height = image.width, image.height
    assert np.array_equal(PolygonMarks(poly.vertices, width, height).mask(),
                          rasterize_polygon_two_pass(poly.vertices, width, height))
    pts = poly.vertices.tolist()
    for i in range(poly.c):
        child = np.delete(poly.vertices, i, axis=0)
        try:
            expected = PolygonMarks(child, width, height)
        except ValueError:
            continue   # no footprint: not a polygon `rasterize_polygon` takes
        marks = PolygonMarks(poly.vertices, width, height)
        marks.apply(marks.removal(pts, i, image)[3])
        assert (marks.parity, marks.hits) == (expected.parity, expected.hits)
        assert np.array_equal(expected.mask(),
                              rasterize_polygon_two_pass(child, width, height))
