"""Tests for the two-part code kernel and the scorers built on it.

Every scorer is a `numeric.HypothesisCounts` record turned into bits: MDL
is `numeric.code_length` plus its own header, NFA a test count plus one
binomial tail.  The oracle copies in `oracles.py` spell each formula out by
hand as first written, and the record versions must equal them bit for bit
(`==`, never approx).
"""

import math

import numpy as np
import pytest

import oracles
import test_polygon as polygon_tests
from mdlnfa import lsd, square_detect
from mdlnfa.imaging import NoiseConfig, synthesize_squares
from mdlnfa.lsd import AlignmentCounts, LsdConfig, mdl_rect, nfa_rect
from mdlnfa.numeric import (
    DomainError,
    RegionCounts,
    Score,
    code_length,
    complement,
    l0_code_length,
    log_binomial,
)
from mdlnfa.polygon import (
    PolygonHypothesis,
    bss_simplify,
    mdl_polygon_score,
    nfa_polygon_score,
)
from mdlnfa.square_detect import (
    Square,
    SquareHypothesis,
    four_square_layout,
    mdl_score_single,
    multi_counts,
    nfa_score_single,
)


class TestKernel:
    def test_header_only(self):
        assert code_length(3.25, []) == 3.25

    def test_one_part(self):
        assert code_length(0.0, [(16, 0)]) == 4.0
        assert code_length(1.0, [(10, 3)]) == \
            1.0 + math.log2(10) + log_binomial(10, 3)

    @pytest.mark.parametrize("n", [0, -3])
    def test_part_without_pixels_refused(self, n):
        # It used to raise a bare "math domain error" from math.log2(n).
        with pytest.raises(DomainError, match=f"part n must be >= 1, got {n}"):
            code_length(0.0, [(n, 0)])

    def test_parts_sum_left_to_right(self):
        parts = [(100, 37), (25, 20), (7, 7)]
        expected = 2.5
        for n, k in parts:
            expected += math.log2(n)
            expected += log_binomial(n, k)
        assert code_length(2.5, parts) == expected

    def test_l0_is_the_whole_image_as_one_part(self):
        for n, k in [(1, 0), (16, 16), (100, 50), (65_536, 20_000)]:
            counts = RegionCounts(n, k)
            assert l0_code_length(counts) == oracles._l0_code_length(counts)

    def test_complement(self):
        total = RegionCounts(100, 40)
        assert complement(total, [RegionCounts(10, 7), RegionCounts(5, 0)]) \
            == (85, 33)
        assert complement(total, []) == (100, 40)
        assert type(complement(total, [])) is RegionCounts
        # Parts that hold more pixels, or more ones, than the total.
        with pytest.raises(DomainError, match="at least one pixel, got n=-3"):
            complement(RegionCounts(10, 5), [RegionCounts(8, 2), RegionCounts(5, 1)])
        with pytest.raises(DomainError, match="got k=-2, n=3"):
            complement(RegionCounts(10, 5), [RegionCounts(4, 4), RegionCounts(3, 3)])

    def test_complement_rejects_full_cover(self):
        with pytest.raises(DomainError, match="no background left"):
            complement(RegionCounts(16, 3), [RegionCounts(16, 3)])

    def test_score_moved_but_still_importable(self):
        assert square_detect.Score is Score
        assert lsd.Score is Score


def test_package_exports_builders_not_wrappers():
    # The counts builders are the scoring API; score a builder's record
    # with `mdl_bits`, `log2_nfa` or `score`.
    import mdlnfa
    from mdlnfa import polygon

    for module, name in [(square_detect, "single_counts"), (square_detect, "single_record"),
                         (square_detect, "multi_counts"), (polygon, "polygon_counts"),
                         (lsd, "rect_counts")]:
        assert getattr(mdlnfa, name) is getattr(module, name)
    for name in ["mdl_score_single", "nfa_score_single", "mdl_score_multi",
                 "nfa_score_multi", "approx_log_nfa", "approx_mdl_score",
                 "mdl_polygon_score", "nfa_polygon_score", "polygon_scores",
                 "mdl_rect", "nfa_rect"]:
        assert not hasattr(mdlnfa, name), name


def test_only_numeric_forms_scores():
    # Every Score is formed by `HypothesisCounts.score()`, so every score
    # the scenarios report carries its counts; the modules only build counts.
    import ast
    from pathlib import Path

    import mdlnfa

    callers = []
    for path in sorted(Path(mdlnfa.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {"Score"} | {alias.asname for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom)
                             for alias in node.names
                             if alias.name == "Score" and alias.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name) and node.func.id in names)
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "Score")):
                callers.append((path.stem, node.lineno))
    assert callers and {module for module, _ in callers} == {"numeric"}, callers


def noisy_squares(seed, delta, size=64):
    hyps = four_square_layout(extent=40, margin=10, width=size, height=size)
    image = synthesize_squares(hyps[2].squares, size, size,
                               NoiseConfig(delta, seed=seed))
    small = hyps[2].squares
    two = SquareHypothesis((small[0], small[3]))
    return image, (hyps[0], hyps[1], two, hyps[2], hyps[3])


class TestSquaresAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.3, 0.45])
    def test_multi_every_c(self, seed, delta):
        image, hyps = noisy_squares(seed, delta)
        assert sorted({h.c for h in hyps}) == [0, 1, 2, 4]
        for hyp in hyps:
            counts = multi_counts(image, hyp)
            assert counts.mdl_bits() == oracles.mdl_score_multi(image, hyp)
            if hyp.c == 0:
                # L0 + 1 bit and no test.
                assert counts.log2_nfa() == math.inf
                continue
            assert counts.log2_nfa() == oracles.nfa_score_multi(image, hyp)

    @pytest.mark.parametrize("seed", range(3))
    def test_single_every_side_and_place(self, seed):
        image, _ = noisy_squares(seed, 0.2)
        for side in (1, 2, 5, 17, 40, 63):
            for at in (0, (64 - side) // 2, 64 - side):
                sq = Square(at, (at * 7) % (65 - side), side)
                assert mdl_score_single(image, sq) == \
                    oracles.mdl_score_single(image, sq)
                assert nfa_score_single(image, sq) == \
                    oracles.nfa_score_single(image, sq)

    def test_full_cover_rejected_by_both(self):
        image = synthesize_squares([], 8, 8, NoiseConfig(0.3, seed=1))
        whole = Square(0, 0, 8)
        for fn in (mdl_score_single, oracles.mdl_score_single):
            with pytest.raises(DomainError):
                fn(image, whole)


class TestPolygonAgainstOracle:
    @pytest.mark.parametrize("seed,c", [(0, 6), (1, 7), (2, 8), (3, 8)])
    def test_star_instances_and_their_children(self, seed, c):
        maker = polygon_tests.TestBssAgainstExhaustiveOracle()
        image, verts = maker.make_instance(seed, c)
        initial = PolygonHypothesis(verts)
        polygons = [initial]
        for i in range(c):
            try:
                polygons.append(initial.without_vertex(i))
            except ValueError:
                continue
        polygons += [s.polygon for s in bss_simplify(image, initial, "mdl").steps]
        for poly in polygons:
            assert mdl_polygon_score(image, poly) == \
                oracles.mdl_polygon_score(image, poly)
            assert nfa_polygon_score(image, poly) == \
                oracles.nfa_polygon_score(image, poly)


class TestRectAgainstOracle:
    @pytest.mark.parametrize("cfg", [LsdConfig(), LsdConfig(theta=0.5),
                                     LsdConfig(theta=0.25, gamma=3)])
    @pytest.mark.parametrize("n_image", [4096, 96 * 96, 512 * 512])
    def test_every_count_up_to_60(self, cfg, n_image):
        for n_r in range(1, 61):
            for k_r in range(n_r + 1):
                counts = AlignmentCounts(n_r=n_r, k_r=k_r)
                assert mdl_rect(n_image, counts, cfg) == \
                    oracles.mdl_rect(n_image, counts, cfg)
                assert nfa_rect(n_image, counts, cfg) == \
                    oracles.nfa_rect(n_image, counts, cfg)

    def test_theta_below_one_by_construction(self):
        rng = np.random.default_rng(0)
        for theta in map(float, rng.uniform(1e-9, 1.0, 1000)):
            cfg = LsdConfig(theta=theta)
            assert cfg.theta == theta
            assert 0.0 < cfg.rho <= math.pi / 2
        cfg = LsdConfig(theta=math.nextafter(1.0, 0.0))
        assert cfg.theta < 1.0 and cfg.rho <= math.pi / 2
