"""Tests for single- and multi-square MDL/NFA scoring and selection."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdlnfa.imaging import (BinaryImage, NoiseConfig, count_region, rasterize_polygon,
                            synthesize_squares)
from mdlnfa.numeric import (
    DomainError,
    RegionCounts,
    bernoulli_kld,
    complement,
    l0_code_length,
    log_binomial,
)
from mdlnfa.polygon import polygon_counts
from mdlnfa.square_detect import (
    Score,
    Square,
    SquareHypothesis,
    _square_counts,
    four_square_layout,
    mdl_score_single,
    multi_counts,
    nfa_score_single,
    pick_hypothesis,
    select_hypothesis,
    single_counts,
    single_record,
)
import oracles
from oracles import _square_counts as square_counts_sum


def noiseless_square_image(side=40, at=(10, 20), size=100):
    return synthesize_squares([(at[0], at[1], side)], size, size, NoiseConfig(0.0))


class TestTypes:
    def test_square_validation(self):
        with pytest.raises(ValueError, match="side must be an integer >= 1, got 0"):
            Square(0, 0, 0)
        with pytest.raises(ValueError, match="row must be an integer >= 0, got -1"):
            Square(-1, 0, 5)
        with pytest.raises(ValueError, match="col must be an integer >= 0, got -4"):
            Square(0, -4, 5)
        assert Square(2, 3, 4).n1 == 16

    @pytest.mark.parametrize("fields,message", [
        ((2, 2, math.nan), "side must be an integer >= 1, got nan"),
        ((2, 2, 4.0), "side must be an integer >= 1, got 4.0"),
        ((2.5, 2, 4), "row must be an integer >= 0, got 2.5"),
        ((2, True, 4), "col must be an integer >= 0, got True"),
        (("2", 2, 4), "row must be an integer >= 0, got '2'")])
    def test_square_rejects_non_integer_fields(self, fields, message):
        with pytest.raises(ValueError) as info:
            Square(*fields)
        assert str(info.value) == message

    def test_square_accepts_numpy_integers(self):
        assert Square(np.int64(2), np.int32(3), np.uint8(4)).n1 == 16

    def test_square_is_a_validated_triple(self):
        sq = Square(2, 3, 4)
        assert sq == (2, 3, 4) and hash(sq) == hash((2, 3, 4))
        row, col, side = sq
        assert (row, col, side) == (sq.row, sq.col, sq.side) == (2, 3, 4)
        assert repr(sq) == "Square(row=2, col=3, side=4)"
        assert sq._replace(side=5).n1 == 25
        with pytest.raises(ValueError, match="side must be an integer >= 1, got 0"):
            sq._replace(side=0)

    def test_square_survives_pickle(self):
        sq = Square(2, 3, 4)
        back = pickle.loads(pickle.dumps(sq))
        assert type(back) is Square and back == sq and back.n1 == 16

    @pytest.mark.parametrize("layout", [
        [(10, 20, 40)], [(0, 0, 1), (99, 99, 1)], [(5, 5, 30), (50, 60, 25), (40, 0, 10)]])
    def test_synthesize_squares_same_for_squares_and_triples(self, layout):
        cfg = NoiseConfig(0.2, seed=7)
        squares = synthesize_squares([Square(*t) for t in layout], 100, 100, cfg)
        triples = synthesize_squares(layout, 100, 100, cfg)
        assert np.array_equal(squares.pixels, triples.pixels)

    def test_hypothesis_rejects_overlap(self):
        with pytest.raises(ValueError):
            SquareHypothesis((Square(0, 0, 10), Square(5, 5, 10)))
        # Touching squares are disjoint.
        SquareHypothesis((Square(0, 0, 10), Square(0, 10, 10)))

    def test_score_conventions(self):
        s = Score(mdl_bits=-1.0, log2_nfa=0.0)
        assert s.mdl_detects() and s.nfa_detects()
        t = Score(mdl_bits=0.0, log2_nfa=0.1)
        assert not t.mdl_detects() and not t.nfa_detects()

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_nfa_detects_rejects_non_positive_epsilon(self, epsilon):
        with pytest.raises(DomainError, match=f"^epsilon must be a finite real "
                                              f"number > 0, got {epsilon!r}$"):
            Score(mdl_bits=0.0, log2_nfa=-5.0).nfa_detects(epsilon)


class TestSquareCounts:
    @pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
    def test_matches_sum_oracle(self, fill):
        rng = np.random.default_rng(11)
        shape = (37, 53)
        pixels = {"random": rng.integers(0, 2, size=shape),
                  "zeros": np.zeros(shape), "ones": np.ones(shape)}[fill]
        image = BinaryImage(pixels.astype(np.uint8))
        squares = [Square(0, 0, 1), Square(36, 52, 1), Square(0, 0, 37),
                   Square(0, 16, 37), Square(5, 9, 13)]
        squares += [Square(int(r), int(c), int(s)) for s, r, c in
                    ((s, rng.integers(0, 38 - s), rng.integers(0, 54 - s))
                     for s in rng.integers(1, 38, size=20))]
        for sq in squares:
            counts = _square_counts(image, sq)
            assert counts == square_counts_sum(image, sq)
            assert type(counts.k) is int


class TestL0:
    def test_examples(self):
        assert l0_code_length(RegionCounts(16, 0)) == 4.0
        assert l0_code_length(RegionCounts(16, 16)) == 4.0
        expected = math.log2(100) + log_binomial(100, 50)
        assert l0_code_length(RegionCounts(100, 50)) == pytest.approx(expected)


class TestSingleSquare:
    def test_noiseless_square_strongly_negative(self):
        img = noiseless_square_image()
        sq = Square(10, 20, 40)
        score = mdl_score_single(img, sq)
        # All enumerative terms vanish; closed form remains.
        expected = (0.5 * math.log2(10**4) + math.log2(8400) + math.log2(1600)
                    - log_binomial(10**4, 1600))
        assert score == pytest.approx(expected, rel=1e-12)
        assert score < -6000

        nfa = nfa_score_single(img, sq)
        assert nfa < -3000
        # Tail here is exactly q^(n1).
        q = 1600 / 10**4
        assert nfa == pytest.approx(1.5 * math.log2(10**4) + 1600 * math.log2(q),
                                    rel=1e-9)

    def test_square_covering_image_rejected(self):
        img = noiseless_square_image(side=100, at=(0, 0))
        with pytest.raises(DomainError):
            mdl_score_single(img, Square(0, 0, 100))

    def test_square_outside_image_rejected(self):
        with pytest.raises(ValueError):
            nfa_score_single(noiseless_square_image(), Square(90, 90, 20))

    def test_nfa_positive_when_square_empty(self):
        img = noiseless_square_image(side=20, at=(0, 0))
        score = nfa_score_single(img, Square(60, 60, 20))  # k1 = 0
        assert score == pytest.approx(1.5 * math.log2(10**4))
        assert score > 0

    def test_pure_noise_rarely_detected(self):
        detections = 0
        for seed in range(100):
            img = synthesize_squares([], 100, 100, NoiseConfig(0.3, seed=seed))
            if mdl_score_single(img, Square(30, 30, 40)) < 0:
                detections += 1
        assert detections <= 1

    def test_low_noise_square_usually_detected(self):
        mdl_hits = nfa_hits = 0
        for seed in range(100):
            img = synthesize_squares([(30, 30, 40)], 100, 100,
                                     NoiseConfig(0.1, seed=seed))
            sq = Square(30, 30, 40)
            mdl_hits += mdl_score_single(img, sq) < 0
            nfa_hits += nfa_score_single(img, sq) <= 0
        assert mdl_hits >= 95
        assert nfa_hits >= 95


def count_grid():
    """Consistent (square, background, image) counts on four image sizes,
    with square and image counts at and near 0 and n, where the
    approximations are undefined, as well as inside."""
    for n, n1 in [(100, 16), (1000, 100), (10**4, 1600), (256 * 256, 900)]:
        for k in (1, n // 10, n // 3, n // 2, n - 1, n):
            for k1 in sorted({0, 1, n1 // 4, n1 // 2, 3 * n1 // 4, n1 - 1, n1}):
                if 0 <= k - k1 <= n - n1:
                    yield (RegionCounts(n1, k1), RegionCounts(n - n1, k - k1),
                           RegionCounts(n, k))


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


class TestApproximations:
    def test_approximations_match_oracle(self):
        # Both approximations give the oracle's float, or raise where it
        # raises, on every count of the grid.
        defined = {"mdl": 0, "nfa": 0}
        for square, background, image in count_grid():
            record = single_record(square, background, image)
            mdl = outcome(record.approx_mdl_bits)
            assert mdl == outcome(oracles.approx_mdl_score, square, background, image)
            nfa = outcome(single_record(square, complement(image, [square]),
                                        image).approx_log2_nfa)
            assert nfa == outcome(oracles.approx_log_nfa, square, image)
            defined["mdl"] += mdl is not DomainError
            defined["nfa"] += nfa is not DomainError
        assert min(defined.values()) > 40

    def test_approx_nfa_formula(self):
        square = RegionCounts(1600, 1440)   # q1 = 0.9
        image = RegionCounts(10**4, 3000)   # q = 0.3
        got = single_record(square, complement(image, [square]), image).approx_log2_nfa()
        expected = 1.5 * math.log2(10**4) - 1600 * bernoulli_kld(0.9, 0.3)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < -1700

    def test_approx_nfa_requires_denser_square(self):
        square, image = RegionCounts(100, 10), RegionCounts(1000, 300)
        record = single_record(square, complement(image, [square]), image)
        with pytest.raises(DomainError):
            record.approx_log2_nfa()

    def test_approx_upper_bounds_exact_nfa(self):
        for seed in range(20):
            img = synthesize_squares([(30, 30, 40)], 100, 100,
                                     NoiseConfig(0.25, seed=seed))
            sq = Square(30, 30, 40)
            block = img.pixels[30:70, 30:70]
            square = RegionCounts(1600, int(block.sum()))
            if square.q <= img.counts.q:
                continue
            approx = single_record(square, complement(img.counts, [square]),
                                   img.counts).approx_log2_nfa()
            assert nfa_score_single(img, sq) <= approx + 1e-9

    def test_approx_mdl_close_to_exact(self):
        for seed in range(10):
            img = synthesize_squares([(30, 30, 40)], 100, 100,
                                     NoiseConfig(0.1, seed=seed))
            sq = Square(30, 30, 40)
            block = img.pixels[30:70, 30:70]
            square = RegionCounts(1600, int(block.sum()))
            background = RegionCounts(8400, img.count_ones - square.k)
            if min(square.k, square.n - square.k,
                   background.k, background.n - background.k) < 20:
                continue
            exact = mdl_score_single(img, sq)
            approx = single_record(square, background, img.counts).approx_mdl_bits()
            assert abs(approx - exact) < 0.5

    def test_approx_mdl_boundary_rejected(self):
        with pytest.raises(DomainError):
            single_record(RegionCounts(16, 0), RegionCounts(84, 20),
                          RegionCounts(100, 20)).approx_mdl_bits()

    def test_approx_mdl_equal_densities(self):
        # q0 = q1 = q leaves only the geometry and residual terms.
        square = RegionCounts(100, 50)
        background = RegionCounts(900, 450)
        image = RegionCounts(1000, 500)
        from mdlnfa.numeric import g_term
        expected = (1.5 * math.log2(1000)
                    + 0.5 * (g_term(450, 900) + g_term(50, 100) - g_term(500, 1000))
                    - 0.5 * math.log2(2 * math.pi))
        assert single_record(square, background, image).approx_mdl_bits() == \
            pytest.approx(expected)


class TestMultiSquare:
    def test_empty_hypothesis_costs_one_bit(self):
        img = noiseless_square_image()
        empty = SquareHypothesis()
        assert multi_counts(img, empty).mdl_bits() == 1.0
        assert select_hypothesis(img, [empty]).table[0][1].mdl_bits == 1.0

    def test_empty_hypothesis_in_selection(self):
        # The same empty score reaches selection: L0 + 1 bits and no test.
        img = noiseless_square_image()
        empty = SquareHypothesis()
        sel = select_hypothesis(img, [empty])
        assert sel.mdl == sel.nfa == empty
        assert sel.table == ((empty, Score(mdl_bits=1.0, log2_nfa=math.inf)),)
        assert sel.table[0][1].mdl_bits == oracles.mdl_score_multi(img, empty)

    def test_single_square_identity(self):
        for seed in range(5):
            img = synthesize_squares([(30, 30, 40)], 100, 100,
                                     NoiseConfig(0.2, seed=seed))
            sq = Square(30, 30, 40)
            multi = multi_counts(img, SquareHypothesis((sq,))).mdl_bits()
            single = mdl_score_single(img, sq)
            assert multi == single + 2.0

    def test_nfa_c1_is_single_plus_one(self):
        img = synthesize_squares([(30, 30, 40)], 100, 100, NoiseConfig(0.2, seed=3))
        sq = Square(30, 30, 40)
        assert multi_counts(img, SquareHypothesis((sq,))).log2_nfa() == pytest.approx(
            nfa_score_single(img, sq) + 1.0, rel=1e-12)

    def test_nfa_needs_at_least_one_square(self):
        img = noiseless_square_image()
        empty = SquareHypothesis()
        assert multi_counts(img, empty).log2_nfa() == math.inf
        # An NFA pick with nothing under epsilon returns the empty hypothesis.
        blank = SquareHypothesis((Square(60, 60, 20),))   # k1 = 0
        sel = select_hypothesis(img, [blank])
        assert not sel.table[0][1].nfa_detects()
        assert sel.nfa == empty

    def test_noiseless_four_squares_preferred(self):
        hyps = four_square_layout(extent=70, margin=40, width=256, height=256)
        background, single, four, large = hyps
        img = synthesize_squares(four.squares, 256, 256, NoiseConfig(0.0))
        mdl = {h: score.mdl_bits for h, score in select_hypothesis(img, hyps).table}
        assert mdl[four] < mdl[large]
        assert mdl[four] < mdl[single]
        assert mdl[four] < mdl[background]
        nfa_four = multi_counts(img, four).log2_nfa()
        assert nfa_four < multi_counts(img, large).log2_nfa()
        assert nfa_four < multi_counts(img, single).log2_nfa()

    def test_translation_invariance_bit_for_bit(self):
        rng = np.random.default_rng(17)
        content = rng.integers(0, 2, size=(40, 40)).astype(np.uint8)
        canvas_a = np.zeros((100, 100), dtype=np.uint8)
        canvas_a[10:50, 10:50] = content
        canvas_b = np.zeros((100, 100), dtype=np.uint8)
        canvas_b[37:77, 22:62] = content
        img_a, img_b = BinaryImage(canvas_a), BinaryImage(canvas_b)
        sq_a, sq_b = Square(15, 15, 20), Square(42, 27, 20)
        assert mdl_score_single(img_a, sq_a) == mdl_score_single(img_b, sq_b)
        assert nfa_score_single(img_a, sq_a) == nfa_score_single(img_b, sq_b)
        hyp_a = SquareHypothesis((sq_a, Square(40, 15, 8)))
        hyp_b = SquareHypothesis((sq_b, Square(67, 27, 8)))
        counts_a, counts_b = multi_counts(img_a, hyp_a), multi_counts(img_b, hyp_b)
        assert counts_a.mdl_bits() == counts_b.mdl_bits()
        assert counts_a.log2_nfa() == counts_b.log2_nfa()

    def test_nfa_monotone_in_k1_at_fixed_density(self):
        # Move ones into the square while keeping the image total fixed.
        def build(k_in):
            arr = np.zeros((30, 30), dtype=np.uint8)
            block = np.zeros(100, dtype=np.uint8)
            block[:k_in] = 1
            arr[10:20, 10:20] = block.reshape(10, 10)
            outside = 120 - k_in
            arr[0, :] = 0
            flat = arr.reshape(-1)
            pos = 0
            placed = 0
            while placed < outside:
                r, c = divmod(pos, 30)
                if not (10 <= r < 20 and 10 <= c < 20):
                    flat[pos] = 1
                    placed += 1
                pos += 1
            return BinaryImage(flat.reshape(30, 30))

        sq = Square(10, 10, 10)
        scores = [nfa_score_single(build(k), sq) for k in range(40, 90, 10)]
        assert all(a > b for a, b in zip(scores, scores[1:]))
        approx = []
        image_counts = RegionCounts(900, 120)
        for k in range(40, 90, 10):
            square = RegionCounts(100, k)
            approx.append(single_record(square, complement(image_counts, [square]),
                                        image_counts).approx_log2_nfa())
        assert all(a > b for a, b in zip(approx, approx[1:]))


class TestSelectHypothesis:
    def test_noiseless_four_selected_by_both(self):
        hyps = four_square_layout(extent=70, margin=40, width=256, height=256)
        img = synthesize_squares(hyps[2].squares, 256, 256, NoiseConfig(0.0))
        res = select_hypothesis(img, hyps)
        assert res.mdl == res.nfa == hyps[2]
        assert len(res.table) == 4

    def test_heavy_noise_selects_background(self):
        hyps = four_square_layout(extent=26, margin=16, width=256, height=256)
        img = synthesize_squares(hyps[2].squares, 256, 256,
                                 NoiseConfig(0.45, seed=8))
        res = select_hypothesis(img, hyps)
        assert res.mdl.c == res.nfa.c == 0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_hypothesis(noiseless_square_image(), [])

    def test_criterion_argument_rejected(self):
        # Both criteria choose from one table; a criterion passed the old
        # way fails loudly instead of picking under one of them.
        img, cands = noiseless_square_image(), [SquareHypothesis()]
        for criterion in ("mdl", "nfa", "best"):
            with pytest.raises(ValueError, match="epsilon"):
                select_hypothesis(img, cands, criterion)
        with pytest.raises(TypeError):
            select_hypothesis(img, cands, criterion="mdl")

    def test_epsilon_threshold_respected(self):
        img = synthesize_squares([(40, 40, 12)], 100, 100, NoiseConfig(0.25, seed=2))
        hyp = SquareHypothesis((Square(40, 40, 12),))
        loose = select_hypothesis(img, [SquareHypothesis(), hyp], epsilon=1.0)
        assert loose.nfa == hyp
        strict = select_hypothesis(img, [SquareHypothesis(), hyp], epsilon=1e-40)
        assert strict.nfa.c == 0  # threshold too strict for a noisy square
        assert strict.mdl == loose.mdl  # MDL has no threshold
        with pytest.raises(ValueError):
            select_hypothesis(img, [hyp], epsilon=0.0)

    @pytest.mark.parametrize("delta,seed", [(0.0, 0), (0.2, 3), (0.3, 5),
                                            (0.45, 8)])
    def test_pick_from_one_table_matches_select(self, delta, seed):
        hyps = four_square_layout(extent=26, margin=8, width=96, height=96)
        img = synthesize_squares(hyps[2].squares, 96, 96,
                                 NoiseConfig(delta, seed=seed))
        table = select_hypothesis(img, hyps).table
        mdl = {h: oracles.mdl_score_multi(img, h) for h in hyps}
        nfa = {h: oracles.nfa_score_multi(img, h) for h in hyps if h.c}
        for epsilon in (1e-30, 1.0, 1e6):
            sel = select_hypothesis(img, hyps, epsilon)
            assert sel.table == table
            assert pick_hypothesis(table, "mdl", epsilon) == sel.mdl == \
                min(hyps, key=mdl.get)
            passing = [h for h in nfa if nfa[h] <= math.log2(epsilon)]
            assert pick_hypothesis(table, "nfa", epsilon) == sel.nfa == \
                min(passing, key=nfa.get, default=hyps[0])
        with pytest.raises(ValueError):
            pick_hypothesis(table, "best")
        with pytest.raises(ValueError):
            pick_hypothesis(table, "nfa", epsilon=math.nan)

    def test_pick_refuses_an_empty_table(self):
        # Under mdl this was min()'s bare error; under nfa the empty
        # hypothesis, as if every candidate had failed epsilon.
        for criterion in ("mdl", "nfa"):
            for table in ([], (), iter([])):
                with pytest.raises(ValueError, match="table .* is empty"):
                    pick_hypothesis(table, criterion)


class TestFourSquareLayout:
    def test_margin_zero_tiles_exactly(self):
        hyps = four_square_layout(extent=26, margin=0, width=256, height=256)
        four, large = hyps[2], hyps[3]
        assert sum(sq.n1 for sq in four.squares) == large.squares[0].n1

    def test_odd_margin_rejected(self):
        with pytest.raises(ValueError):
            four_square_layout(extent=26, margin=15, width=256, height=256)


# The 8 symmetries of the pixel grid: flip the rows, flip the columns, then
# transpose, each or not.
GRID_SYMMETRIES = list(itertools.product((False, True), repeat=3))


def move(symmetry, pixels, squares):
    """`pixels` and `squares` under one grid symmetry."""
    flip_rows, flip_cols, transpose = symmetry
    height, width = pixels.shape
    moved = []
    for sq in squares:
        row = height - sq.row - sq.side if flip_rows else sq.row
        col = width - sq.col - sq.side if flip_cols else sq.col
        moved.append(Square(*((col, row) if transpose else (row, col)), sq.side))
    if flip_rows:
        pixels = pixels[::-1]
    if flip_cols:
        pixels = pixels[:, ::-1]
    if transpose:
        pixels = pixels.T
    return BinaryImage(np.ascontiguousarray(pixels)), moved


@st.composite
def squares_on_an_image(draw):
    """A random binary image of 2..20 by 2..20 pixels and 0..3 disjoint
    squares on it that leave some background."""
    height = draw(st.integers(2, 20))
    width = draw(st.integers(2, 20))
    density = draw(st.sampled_from([0.1, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = (rng.random((height, width)) < density).astype(np.uint8)
    squares = []
    for _ in range(draw(st.integers(0, 3))):
        side = draw(st.integers(1, min(height, width)))
        sq = Square(draw(st.integers(0, height - side)),
                    draw(st.integers(0, width - side)), side)
        if not any(sq.overlaps(other) for other in squares):
            squares.append(sq)
    if sum(sq.n1 for sq in squares) == height * width:
        squares.pop()
    return pixels, squares


PINNED = [
    # A dense square on a sparse, non-square image.
    (np.pad(np.ones((4, 4), np.uint8), ((1, 6), (2, 9))), [Square(1, 2, 4)]),
    # A sparse square on a dense image, with two more squares.
    (np.pad(np.zeros((3, 3), np.uint8), ((0, 4), (5, 1)), constant_values=1),
     [Square(0, 5, 3), Square(4, 0, 2), Square(3, 3, 1)]),
]


class TestSquareSymmetry:
    """The square scorers read only counts, so they commute with the grid's
    symmetries exactly; complementing the image keeps the MDL bits up to
    rounding but not the one-sided NFA."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(PINNED[0])
    @example(PINNED[1])
    @given(squares_on_an_image())
    def test_grid_symmetries(self, case):
        pixels, squares = case
        image = BinaryImage(pixels)
        hyp = SquareHypothesis(tuple(squares))
        singles = [single_counts(image, sq) for sq in squares]
        multi = multi_counts(image, hyp)
        for symmetry in GRID_SYMMETRIES:
            moved_image, moved = move(symmetry, pixels, squares)
            for sq, counts in zip(moved, singles):
                got = single_counts(moved_image, sq)
                assert got == counts
                assert got.score() == counts.score()
            got = multi_counts(moved_image, SquareHypothesis(tuple(moved)))
            assert got == multi
            assert got.score() == multi.score()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(PINNED[0])
    @example(PINNED[1])
    @given(squares_on_an_image())
    def test_complement(self, case):
        pixels, squares = case
        image, inverse = BinaryImage(pixels), BinaryImage(1 - pixels)
        hyp = SquareHypothesis(tuple(squares))
        records = [(squares, multi_counts(image, hyp), multi_counts(inverse, hyp))]
        records += [([sq], single_counts(image, sq), single_counts(inverse, sq))
                    for sq in squares]
        for group, counts, flipped_counts in records:
            score, flipped = counts.score(), flipped_counts.score()
            assert flipped.mdl_bits == pytest.approx(score.mdl_bits, rel=0, abs=1e-9)
            if not group:
                continue
            inside = [_square_counts(image, sq) for sq in group]
            n1, k1 = sum(c.n for c in inside), sum(c.k for c in inside)
            background = complement(image.counts, inside)
            if k1 * background.n < background.k * n1:   # sparser than its background
                assert flipped.log2_nfa < score.log2_nfa


class TestCrossScenario:
    """A square is also a polygon: the polygon through its four corner pixel
    centres rasterizes to its pixels, so both scenarios count the same (n, k)
    and the square record's parts are the polygon record's."""

    def test_square_counts_equal_its_polygon_counts(self):
        rng = np.random.default_rng(35)
        width, height = 40, 30
        for _ in range(300):
            pixels = rng.random((height, width)) < rng.uniform(0.1, 0.6)
            image = BinaryImage(pixels.astype(np.uint8))
            side = int(rng.integers(2, 25))
            sq = Square(int(rng.integers(0, height - side + 1)),
                        int(rng.integers(0, width - side + 1)), side)
            x0, y0, x1, y1 = sq.col, sq.row, sq.col + side - 1, sq.row + side - 1
            mask = rasterize_polygon(np.array(
                [(x0, y0), (x1, y0), (x1, y1), (x0, y1)], dtype=float), width, height)
            region = count_region(image, mask)
            assert region == _square_counts(image, sq)
            single, polygon = single_counts(image, sq), polygon_counts(image, 4, region)
            (_, (background, square)), = single.codes
            (_, (inside, outside)), = polygon.codes
            assert (square, background, single.tail) == (inside, outside, polygon.tail)
