"""Tests for single- and multi-square MDL/NFA scoring and selection."""

import math

import numpy as np
import pytest

from mdlnfa.imaging import BinaryImage, NoiseConfig, synthesize_squares
from mdlnfa.numeric import (
    DomainError,
    RegionCounts,
    bernoulli_kld,
    log_binomial,
)
from mdlnfa.square_detect import (
    Score,
    Square,
    SquareHypothesis,
    approx_log_nfa,
    approx_mdl_score,
    four_square_layout,
    l0_code_length,
    mdl_score_multi,
    mdl_score_single,
    nfa_score_multi,
    nfa_score_single,
    pick_hypothesis,
    select_hypothesis,
)


def noiseless_square_image(side=40, at=(10, 20), size=100):
    return synthesize_squares([(at[0], at[1], side)], size, size, NoiseConfig(0.0))


class TestTypes:
    def test_square_validation(self):
        with pytest.raises(ValueError):
            Square(0, 0, 0)
        with pytest.raises(ValueError):
            Square(-1, 0, 5)
        assert Square(2, 3, 4).n1 == 16

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
        with pytest.raises(DomainError, match="epsilon must be positive"):
            Score(mdl_bits=0.0, log2_nfa=-5.0).nfa_detects(epsilon)


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


class TestApproximations:
    def test_approx_nfa_formula(self):
        square = RegionCounts(1600, 1440)   # q1 = 0.9
        image = RegionCounts(10**4, 3000)   # q = 0.3
        got = approx_log_nfa(square, image)
        expected = 1.5 * math.log2(10**4) - 1600 * bernoulli_kld(0.9, 0.3)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < -1700

    def test_approx_nfa_requires_denser_square(self):
        with pytest.raises(DomainError):
            approx_log_nfa(RegionCounts(100, 10), RegionCounts(1000, 300))

    def test_approx_upper_bounds_exact_nfa(self):
        for seed in range(20):
            img = synthesize_squares([(30, 30, 40)], 100, 100,
                                     NoiseConfig(0.25, seed=seed))
            sq = Square(30, 30, 40)
            block = img.pixels[30:70, 30:70]
            square = RegionCounts(1600, int(block.sum()))
            if square.q <= img.counts.q:
                continue
            assert nfa_score_single(img, sq) <= approx_log_nfa(square, img.counts) + 1e-9

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
            approx = approx_mdl_score(square, background, img.counts)
            assert abs(approx - exact) < 0.5

    def test_approx_mdl_boundary_rejected(self):
        with pytest.raises(DomainError):
            approx_mdl_score(RegionCounts(16, 0), RegionCounts(84, 20),
                             RegionCounts(100, 20))

    def test_approx_mdl_equal_densities(self):
        # q0 = q1 = q leaves only the geometry and residual terms.
        square = RegionCounts(100, 50)
        background = RegionCounts(900, 450)
        image = RegionCounts(1000, 500)
        from mdlnfa.numeric import g_term
        expected = (1.5 * math.log2(1000)
                    + 0.5 * (g_term(450, 900) + g_term(50, 100) - g_term(500, 1000))
                    - 0.5 * math.log2(2 * math.pi))
        assert approx_mdl_score(square, background, image) == pytest.approx(expected)


class TestMultiSquare:
    def test_empty_hypothesis_costs_one_bit(self):
        img = noiseless_square_image()
        assert mdl_score_multi(img, SquareHypothesis()) == 1.0

    def test_single_square_identity(self):
        for seed in range(5):
            img = synthesize_squares([(30, 30, 40)], 100, 100,
                                     NoiseConfig(0.2, seed=seed))
            sq = Square(30, 30, 40)
            multi = mdl_score_multi(img, SquareHypothesis((sq,)))
            single = mdl_score_single(img, sq)
            assert multi == single + 2.0

    def test_nfa_c1_is_single_plus_one(self):
        img = synthesize_squares([(30, 30, 40)], 100, 100, NoiseConfig(0.2, seed=3))
        sq = Square(30, 30, 40)
        assert nfa_score_multi(img, SquareHypothesis((sq,))) == pytest.approx(
            nfa_score_single(img, sq) + 1.0, rel=1e-12)

    def test_nfa_needs_at_least_one_square(self):
        with pytest.raises(DomainError):
            nfa_score_multi(noiseless_square_image(), SquareHypothesis())

    def test_noiseless_four_squares_preferred(self):
        hyps = four_square_layout(extent=70, margin=40, width=256, height=256)
        background, single, four, large = hyps
        img = synthesize_squares(four.squares, 256, 256, NoiseConfig(0.0))
        mdl = {h: mdl_score_multi(img, h) for h in hyps}
        assert mdl[four] < mdl[large]
        assert mdl[four] < mdl[single]
        assert mdl[four] < mdl[background]
        nfa_four = nfa_score_multi(img, four)
        assert nfa_four < nfa_score_multi(img, large)
        assert nfa_four < nfa_score_multi(img, single)

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
        assert mdl_score_multi(img_a, hyp_a) == mdl_score_multi(img_b, hyp_b)
        assert nfa_score_multi(img_a, hyp_a) == nfa_score_multi(img_b, hyp_b)

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
            approx.append(approx_log_nfa(RegionCounts(100, k), image_counts))
        assert all(a > b for a, b in zip(approx, approx[1:]))


class TestSelectHypothesis:
    def test_noiseless_four_selected_by_both(self):
        hyps = four_square_layout(extent=70, margin=40, width=256, height=256)
        img = synthesize_squares(hyps[2].squares, 256, 256, NoiseConfig(0.0))
        for criterion in ("mdl", "nfa"):
            res = select_hypothesis(img, hyps, criterion)
            assert res.chosen == hyps[2]
            assert len(res.table) == 4

    def test_heavy_noise_selects_background(self):
        hyps = four_square_layout(extent=26, margin=16, width=256, height=256)
        img = synthesize_squares(hyps[2].squares, 256, 256,
                                 NoiseConfig(0.45, seed=8))
        for criterion in ("mdl", "nfa"):
            res = select_hypothesis(img, hyps, criterion)
            assert res.chosen.c == 0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_hypothesis(noiseless_square_image(), [], "mdl")

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            select_hypothesis(noiseless_square_image(), [SquareHypothesis()], "best")

    def test_epsilon_threshold_respected(self):
        img = synthesize_squares([(40, 40, 12)], 100, 100, NoiseConfig(0.25, seed=2))
        hyp = SquareHypothesis((Square(40, 40, 12),))
        loose = select_hypothesis(img, [SquareHypothesis(), hyp], "nfa", epsilon=1.0)
        assert loose.chosen == hyp
        strict = select_hypothesis(img, [SquareHypothesis(), hyp], "nfa",
                                   epsilon=1e-40)
        assert strict.chosen.c == 0  # threshold too strict for a noisy square
        with pytest.raises(ValueError):
            select_hypothesis(img, [hyp], "nfa", epsilon=0.0)

    @pytest.mark.parametrize("delta,seed", [(0.0, 0), (0.2, 3), (0.3, 5),
                                            (0.45, 8)])
    def test_pick_from_one_table_matches_select(self, delta, seed):
        hyps = four_square_layout(extent=26, margin=8, width=96, height=96)
        img = synthesize_squares(hyps[2].squares, 96, 96,
                                 NoiseConfig(delta, seed=seed))
        table = select_hypothesis(img, hyps, "mdl").table
        for criterion in ("mdl", "nfa"):
            for epsilon in (1e-30, 1.0, 1e6):
                assert pick_hypothesis(table, criterion, epsilon) == \
                    select_hypothesis(img, hyps, criterion, epsilon).chosen
        with pytest.raises(ValueError):
            pick_hypothesis(table, "best")
        with pytest.raises(ValueError):
            pick_hypothesis(table, "nfa", epsilon=math.nan)


class TestFourSquareLayout:
    def test_margin_zero_tiles_exactly(self):
        hyps = four_square_layout(extent=26, margin=0, width=256, height=256)
        four, large = hyps[2], hyps[3]
        assert sum(sq.n1 for sq in four.squares) == large.squares[0].n1

    def test_odd_margin_rejected(self):
        with pytest.raises(ValueError):
            four_square_layout(extent=26, margin=15, width=256, height=256)
