"""Tests for rectangle candidates, alignment counting, and dual validation."""

import math
import re

import numpy as np
import pytest

import mdlnfa.lsd as lsd_module
import mdlnfa.numeric as numeric_module
from mdlnfa.experiments import lsd_boundary_table
from mdlnfa.imaging import BinaryImage, OrientationMap, Square, gradient_orientation
from mdlnfa.lsd import (
    AlignmentCounts,
    LsdConfig,
    RectangleCandidate,
    count_aligned,
    detect_segments,
    fit_rectangle,
    isotropic_orientation_map,
    mdl_rect,
    nfa_rect,
    read_candidates_file,
    rect_counts,
    region_grow_candidates,
    score_candidates,
    write_candidates_file,
    write_segments_file,
)
from mdlnfa.square_detect import _square_counts
from oracles import (
    GRID_SYMMETRIES,
    count_aligned_numpy,
    count_aligned_rows,
    exact_lsd_decisions,
    fit_rectangle_numpy,
    lone_seeds_exact,
    near_neighbours_exact,
    orientation_distance,
    region_grow_candidates_numpy,
    score_candidates_plain,
)

N_512 = 512 * 512


class TestConfig:
    def test_default_operating_point(self):
        # Bit for bit: the default tolerance is pi/16 at theta = 1/8.
        cfg = LsdConfig()
        assert cfg.theta == 0.125
        assert cfg.rho == math.pi / 16
        assert cfg.gamma == 1

    def test_theta_tracks_rho(self):
        assert LsdConfig(theta=0.5).rho == math.pi / 4
        assert LsdConfig(theta=0.25).rho == math.pi / 8

    def test_theta_reads_back_exactly(self):
        # Recomputing theta as 2*rho/pi from a stored rho was one ulp off
        # for 147 of these.
        for i in range(1, 1000):
            assert LsdConfig(theta=i / 1000).theta == i / 1000

    def test_integral_gamma_scores_as_its_integer(self):
        counts = AlignmentCounts(n_r=30, k_r=12)
        for gamma in (2.0, np.int64(2)):
            assert (nfa_rect(N_512, counts, LsdConfig(gamma=gamma))
                    == nfa_rect(N_512, counts, LsdConfig(gamma=2)))

    def test_tau_zero_allowed(self):
        assert LsdConfig(tau=0.0).tau == 0.0


class TestOrientationDistance:
    def test_symmetric_and_periodic(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-math.pi, math.pi, 100)
        b = rng.uniform(-math.pi, math.pi, 100)
        assert np.array_equal(orientation_distance(a, b), orientation_distance(b, a))
        np.testing.assert_allclose(orientation_distance(a + math.pi, b),
                                   orientation_distance(a, b), atol=1e-9)
        assert np.all(orientation_distance(a, b) <= math.pi / 2 + 1e-12)

    def test_values(self):
        assert orientation_distance(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
        assert orientation_distance(0.1, -0.1) == pytest.approx(0.2)
        assert orientation_distance(math.pi - 0.05, 0.0) == pytest.approx(0.05)

    @pytest.mark.parametrize("theta", [1 / 16, 1 / 8, 1 / 4])
    def test_numpy_form_is_the_grower_form(self, theta):
        # `lsd._mod_pi` against the grower's scalar abs(x) % pi, bit for bit,
        # on differences |x| < 2 pi and on the ties of k pi / 16 maps.
        rho = LsdConfig(theta=theta).rho
        ties = [0.0, rho, 2 * rho, math.pi - rho, math.pi,
                math.nextafter(math.pi, 0), math.nextafter(2 * math.pi, 0)]
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(-2 * math.pi, 2 * math.pi, 10_000),
                            ties, [-t for t in ties]])
        got = lsd_module._mod_pi(x.copy())
        assert got.tobytes() == np.array([abs(v) % math.pi for v in x.tolist()]).tobytes()


class TestAlignmentCounts:
    def test_invariants(self):
        AlignmentCounts(n_r=10, k_r=7, u_r=3)
        with pytest.raises(ValueError):
            AlignmentCounts(n_r=10, k_r=8, u_r=3)
        with pytest.raises(ValueError):
            AlignmentCounts(n_r=10, k_r=-1)
        for counts, field in [((2.5, 1, 0), "n_r"), ((10, True, 0), "k_r"),
                              ((10, 2, False), "u_r"), ((10.0, 2, 0), "n_r"),
                              ((10, 2, 1.0), "u_r")]:
            value = counts[("n_r", "k_r", "u_r").index(field)]
            with pytest.raises(ValueError, match=re.escape(
                    f"{field} must be an integer >= 0, got {value!r}")):
                AlignmentCounts(*counts)
        assert AlignmentCounts(np.int64(10), np.int32(7), np.uint8(3)) == \
            AlignmentCounts(10, 7, 3)


class TestFitRectangle:
    def strip(self, rows, cols):
        rr, cc = np.mgrid[0:rows, 0:cols]
        return np.column_stack([cc.ravel(), rr.ravel()]).astype(float)

    def test_axis_aligned_strip(self):
        rect = fit_rectangle(self.strip(3, 20))
        assert orientation_distance(rect.angle, 0.0) < 1e-6
        assert rect.width == pytest.approx(3.0)
        assert rect.length == pytest.approx(19.0)

    def test_rotated_strip(self):
        coords = self.strip(3, 20)
        ang = math.radians(30)
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        rect = fit_rectangle(coords @ rot.T)
        assert orientation_distance(rect.angle, ang) < 0.01
        assert rect.width == pytest.approx(3.0, abs=0.1)

    def test_single_pixel_rejected(self):
        with pytest.raises(ValueError):
            fit_rectangle(np.array([[5.0, 5.0]]))

    def test_weights_steer_principal_axis(self):
        # A symmetric cross is direction-ambiguous; weighting one arm
        # resolves it toward that arm.
        horizontal = np.column_stack([np.arange(21.0), np.full(21, 10.0)])
        vertical = np.column_stack([np.full(21, 10.0), np.arange(21.0)])
        coords = np.vstack([horizontal, vertical])
        weights = np.concatenate([np.ones(21), np.full(21, 10.0)])
        rect = fit_rectangle(coords, weights=weights)
        assert orientation_distance(rect.angle, math.pi / 2) < 0.05
        rect2 = fit_rectangle(coords, weights=weights[::-1])
        assert orientation_distance(rect2.angle, 0.0) < 0.05


def edge_image(width=100, height=100, at=50, low=0, high=255):
    img = np.full((height, width), low, dtype=np.uint8)
    img[:, at:] = high
    return img


class TestCountAligned:
    def test_ideal_edge_fully_aligned(self):
        omap = gradient_orientation(edge_image())
        rect = RectangleCandidate(ax=49.0, ay=5.0, bx=49.0, by=90.0, width=1.0)
        counts = count_aligned(rect, omap, rho=math.pi / 16)
        assert counts.n_r > 0
        assert counts.k_r == counts.n_r - counts.u_r

    def test_isotropic_alignment_fraction_matches_theta(self):
        cfg = LsdConfig()
        omap = isotropic_orientation_map(128, 128, seed=4)
        rect = RectangleCandidate(ax=20.0, ay=64.0, bx=108.0, by=64.0, width=40.0)
        counts = count_aligned(rect, omap, cfg.rho)
        assert counts.u_r == 0
        assert counts.k_r / counts.n_r == pytest.approx(cfg.theta, abs=0.04)

    def test_full_tolerance_aligns_every_defined_pixel(self):
        omap = isotropic_orientation_map(32, 32, seed=1)
        rect = RectangleCandidate(ax=4.0, ay=16.0, bx=28.0, by=16.0, width=10.0)
        counts = count_aligned(rect, omap, rho=math.pi / 2)
        assert counts.k_r == counts.n_r - counts.u_r

    def test_invariant_under_global_angle_flip(self):
        omap = isotropic_orientation_map(64, 64, seed=2)
        flipped_angles = omap.angles + math.pi
        flipped_angles = np.mod(flipped_angles + math.pi, 2 * math.pi) - math.pi
        flipped = OrientationMap(angles=flipped_angles, defined=omap.defined)
        rect = RectangleCandidate(ax=10.0, ay=30.0, bx=50.0, by=35.0, width=7.0)
        a = count_aligned(rect, omap, math.pi / 16)
        b = count_aligned(rect, flipped, math.pi / 16)
        assert (a.n_r, a.k_r, a.u_r) == (b.n_r, b.k_r, b.u_r)

    def test_rectangle_outside_image_rejected(self):
        omap = isotropic_orientation_map(32, 32, seed=3)
        rect = RectangleCandidate(ax=500.0, ay=500.0, bx=600.0, by=500.0,
                                  width=3.0)
        with pytest.raises(ValueError):
            count_aligned(rect, omap, math.pi / 16)


# The angle a pixel's orientation takes under each grid map, before it is
# wrapped back into [-pi, pi): a gradient (gx, gy) becomes (-gx, gy) under
# the x-mirror and (gy, gx) under the transpose.
TURNS = {"x-mirror": lambda a: math.pi - a, "transpose": lambda a: math.pi / 2 - a}


class TestCountSymmetry:
    """`count_aligned`, and `rect_counts` on its counts, commute with the
    grid's x-mirror and transpose.  The grower scans in row order, so its
    candidates are not equivariant, and it is left out."""

    @pytest.mark.parametrize("symmetry", sorted(TURNS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_rectangles(self, seed, symmetry):
        point, grid = GRID_SYMMETRIES[symmetry]
        rng = np.random.default_rng([33, seed])
        omap = OrientationMap(angles=isotropic_orientation_map(40, 30, seed).angles,
                              defined=rng.random((30, 40)) > 0.1)
        turned = TURNS[symmetry](omap.angles)
        turned[turned >= math.pi] -= 2.0 * math.pi
        mapped = OrientationMap(angles=grid(turned), defined=grid(omap.defined))
        kinds = {"counted": 0, "refused": 0}
        for i in range(250):
            # Float endpoints, half of them on a quarter-pixel grid whose
            # images are exact, so pixel centres meet the sides.
            ax, bx = rng.uniform(-6, 46, 2)
            ay, by = rng.uniform(-6, 36, 2)
            wid = rng.uniform(1, 6)
            if i % 2:
                ax, ay, bx, by, wid = (round(4 * v) / 4 for v in (ax, ay, bx, by, wid))
            rect = RectangleCandidate(ax, ay, bx, by, wid)
            image = RectangleCandidate(*point(ax, ay, 40, 30), *point(bx, by, 40, 30),
                                       wid)
            cfg = LsdConfig(theta=(1 / 8, 1 / 4)[i % 3 == 0])
            got = outcome(count_aligned, rect, omap, cfg.rho)
            seen = outcome(count_aligned, image, mapped, cfg.rho)
            assert got == seen, rect
            if isinstance(got, AlignmentCounts):
                kinds["counted"] += 1
                assert (rect_counts(1200, got, cfg).score()
                        == rect_counts(1200, seen, cfg).score())
            else:
                kinds["refused"] += 1
        assert min(kinds.values()) > 10


class TestCrossScenario:
    """A square is also an axis-aligned rectangle.  On a map whose angle is
    the rectangle's normal on the ones of a binary image and its direction
    elsewhere, the rectangle counts the square's pixels as n_r and its ones
    as k_r."""

    def test_rectangle_counts_equal_its_square_counts(self):
        rng = np.random.default_rng(12)
        width, height = 40, 30
        rho = LsdConfig().rho
        for _ in range(300):
            image = BinaryImage((rng.random((height, width)) < 0.4).astype(np.uint8))
            side = int(rng.integers(2, 25))
            sq = Square(int(rng.integers(0, height - side + 1)),
                        int(rng.integers(0, width - side + 1)), side)
            x0, y0, mid, last = sq.col, sq.row, (side - 1) / 2, side - 1.0
            want = AlignmentCounts(side * side, _square_counts(image, sq).k, 0)
            for rect in (RectangleCandidate(x0, y0 + mid, x0 + last, y0 + mid, side),
                         RectangleCandidate(x0 + mid, y0, x0 + mid, y0 + last, side)):
                omap = OrientationMap(
                    angles=np.where(image.pixels == 1, rect.normal_angle, rect.angle),
                    defined=np.ones((height, width), dtype=bool))
                assert count_aligned(rect, omap, rho) == want, (sq, rect)


class TestRectScores:
    def test_forty_thirty_detected_by_both(self):
        cfg = LsdConfig(theta=0.125)
        counts = AlignmentCounts(n_r=40, k_r=30)
        assert nfa_rect(N_512, counts, cfg) <= 0.0
        assert mdl_rect(N_512, counts, cfg) < 0.0

    def test_zero_aligned_not_detected(self):
        cfg = LsdConfig()
        counts = AlignmentCounts(n_r=40, k_r=0)
        assert nfa_rect(N_512, counts, cfg) == pytest.approx(2.5 * math.log2(N_512))
        assert mdl_rect(N_512, counts, cfg) > 0.0

    def test_fully_aligned_mdl_closed_form(self):
        cfg = LsdConfig()
        counts = AlignmentCounts(n_r=30, k_r=30)
        expected = 2.5 * math.log2(N_512) + math.log2(30) + 30 * math.log2(0.125)
        assert mdl_rect(N_512, counts, cfg) == pytest.approx(expected)
        assert expected < 0

    def test_scores_monotone_in_aligned_count(self):
        cfg = LsdConfig()
        nfa = [nfa_rect(N_512, AlignmentCounts(40, k), cfg) for k in range(41)]
        assert all(a > b for a, b in zip(nfa, nfa[1:]))
        mdl = [mdl_rect(N_512, AlignmentCounts(40, k), cfg) for k in range(16, 41)]
        assert all(a > b for a, b in zip(mdl, mdl[1:]))

    def test_gamma_shifts_nfa_only(self):
        counts = AlignmentCounts(n_r=40, k_r=30)
        one = LsdConfig(gamma=1)
        four = LsdConfig(gamma=4)
        assert nfa_rect(N_512, counts, four) == pytest.approx(
            nfa_rect(N_512, counts, one) + 2.0)
        assert mdl_rect(N_512, counts, four) == mdl_rect(N_512, counts, one)


def gradient_map():
    """A noisy 72x88 sine-grating gradient map with magnitudes and a flat
    patch of undefined pixels."""
    rng = np.random.default_rng(4)
    rows, cols = np.mgrid[0:72, 0:88]
    gray = 128 + 90 * np.sin(0.25 * cols + 0.1 * rows) + rng.normal(0, 8, rows.shape)
    gray[20:45, 30:60] = 40.0              # flat patch: undefined pixels
    return gradient_orientation(np.clip(gray, 0, 255), tau=4.0)


class TestRegionGrowing:
    def test_ideal_edge_produces_candidate_near_edge(self):
        cfg = LsdConfig()
        omap = gradient_orientation(edge_image())
        candidates = region_grow_candidates(omap, cfg)
        assert candidates
        best = max(candidates, key=lambda c: c.length)
        cx = 0.5 * (best.ax + best.bx)
        assert abs(cx - 49.5) < 2.0
        # The edge is vertical, so the fitted center line must be too.
        assert orientation_distance(best.angle, math.pi / 2) < 0.1

    def test_constant_image_yields_nothing(self):
        cfg = LsdConfig()
        omap = gradient_orientation(np.full((32, 32), 128, dtype=np.uint8))
        assert region_grow_candidates(omap, cfg) == []

    def test_pixels_used_at_most_once(self):
        cfg = LsdConfig()
        omap = isotropic_orientation_map(64, 64, seed=9)
        candidates = region_grow_candidates(omap, cfg, min_region_size=2)
        # Total candidate footprint cannot exceed the pixel count even if
        # rectangles overlap slightly; the stronger guarantee is internal,
        # this is a smoke check that growth terminates and yields many
        # small regions.
        assert len(candidates) < 64 * 64

    @pytest.mark.parametrize("width,height,seed,min_size", [
        (64, 64, 0, 5), (96, 96, 1, 5), (90, 70, 2, 5), (70, 90, 3, 2),
    ])
    def test_matches_numpy_reference_on_isotropic_maps(self, width, height,
                                                        seed, min_size):
        cfg = LsdConfig()
        omap = isotropic_orientation_map(width, height, seed=seed)
        got = region_grow_candidates(omap, cfg, min_region_size=min_size)
        assert got
        assert got == region_grow_candidates_numpy(omap, cfg, min_size)

    def test_matches_numpy_reference_with_magnitudes_and_undefined(self):
        omap = gradient_map()
        assert omap.magnitude is not None
        assert 0 < omap.defined.sum() < omap.defined.size
        cfg = LsdConfig(theta=0.25)
        got = region_grow_candidates(omap, cfg)
        assert got
        assert got == region_grow_candidates_numpy(omap, cfg)

    @pytest.mark.parametrize("height,width", [(1, 40), (40, 1), (2, 2)])
    def test_matches_numpy_reference_on_thin_maps(self, height, width):
        # Every pixel of these maps lies on the image border.
        cfg = LsdConfig()
        for seed in range(4):
            omap = isotropic_orientation_map(width, height, seed=seed)
            assert (region_grow_candidates(omap, cfg, 2)
                    == region_grow_candidates_numpy(omap, cfg, 2))
        const = OrientationMap(angles=np.full((height, width), 0.3),
                               defined=np.ones((height, width), bool))
        got = region_grow_candidates(const, cfg, 2)
        assert len(got) == 1
        assert got == region_grow_candidates_numpy(const, cfg, 2)

    def test_single_region_touching_all_four_sides(self):
        defined = np.ones((23, 31), bool)
        defined[8:12, 10:20] = False           # a hole the region grows around
        omap = OrientationMap(angles=np.full((23, 31), -1.2), defined=defined)
        cfg = LsdConfig()
        got = region_grow_candidates(omap, cfg)
        assert len(got) == 1
        assert got == region_grow_candidates_numpy(omap, cfg)
        assert got[0].length > 29.0            # spans the 31 columns

    def test_matches_numpy_reference_with_tied_magnitudes(self):
        # A slowly turning orientation field whose magnitudes take three
        # values, so the seed order rests on the stable tie-break.
        rng = np.random.default_rng(12)
        rows, cols = np.mgrid[0:37, 0:45]
        angles = (0.05 * cols - 0.03 * rows + math.pi) % (2 * math.pi) - math.pi
        magnitude = rng.integers(1, 4, size=angles.shape).astype(float)
        defined = rng.random(angles.shape) > 0.1
        omap = OrientationMap(angles=angles, defined=defined, magnitude=magnitude)
        cfg = LsdConfig()
        got = region_grow_candidates(omap, cfg, 2)
        assert len(got) > 1
        assert got == region_grow_candidates_numpy(omap, cfg, 2)

    @pytest.mark.parametrize("theta", [1 / 16, 1 / 8, 1 / 4])
    def test_pair_on_the_tolerance_grows_from_either_end(self, theta):
        # Two pixels exactly rho apart: whichever one seeds (the first in
        # scan order), the other joins it, in a row and in a column.
        cfg = LsdConfig(theta=theta)
        rho = cfg.rho
        for a, b in ((0.0, rho), (-rho / 2, rho / 2), (-rho, 0.0), (rho, 2 * rho)):
            for shape in ((1, 2), (2, 1)):
                grown = []
                for pair in ([a, b], [b, a]):
                    omap = OrientationMap(angles=np.reshape(pair, shape),
                                          defined=np.ones(shape, bool))
                    grown.append(region_grow_candidates(omap, cfg, 2))
                    assert grown[-1] == region_grow_candidates_numpy(omap, cfg, 2)
                assert len(grown[0]) == 1
                assert grown[0] == grown[1]

    def test_min_region_size_below_two_keeps_pairs(self):
        omap = isotropic_orientation_map(32, 32, seed=0)
        cfg = LsdConfig()
        pairs = region_grow_candidates(omap, cfg, 2)
        assert region_grow_candidates(omap, cfg, 1) == pairs
        assert region_grow_candidates(omap, cfg, np.int64(2)) == pairs


def quantized_map(seed, height=30, width=40, magnitude=False):
    """Angles k pi / 16: at theta = 1/8 the tolerance is pi / 16, so many
    neighbor pairs sit on it up to rounding.  About a tenth of the pixels
    are undefined and hold NaN, +inf or 1e300; `magnitude` adds tied
    magnitudes in 1..3."""
    rng = np.random.default_rng(seed)
    angles = rng.integers(-16, 16, size=(height, width)) * (math.pi / 16)
    defined = rng.random((height, width)) > 0.1
    angles[~defined] = rng.choice([math.nan, math.inf, 1e300], size=(~defined).sum())
    mag = rng.integers(1, 4, size=(height, width)).astype(float) if magnitude else None
    return OrientationMap(angles=angles, defined=defined, magnitude=mag)


def lone_mask(omap, rho):
    """`lsd._lone_seeds` as a (height, width) bool array, after checking
    that its border is 0."""
    mask = np.frombuffer(lsd_module._lone_seeds(omap, rho)[0], dtype=np.uint8)
    mask = mask.reshape(omap.height + 2, omap.width + 2).astype(bool)
    assert not (mask[[0, -1]].any() or mask[:, [0, -1]].any())
    return mask[1:-1, 1:-1]


class TestLoneSeeds:
    """`lsd._lone_seeds` marks seeds whose region cannot grow past the seed,
    so the grower skips them with the same candidates."""

    @pytest.mark.parametrize("theta", [0.05, 0.125, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_exact_test_on_isotropic_maps(self, seed, theta):
        omap = isotropic_orientation_map(40, 30, seed=seed)
        rho = LsdConfig(theta=theta).rho
        lone = lone_mask(omap, rho)
        assert lone.any()
        assert np.array_equal(lone, lone_seeds_exact(omap, rho))

    @pytest.mark.parametrize("theta", [1 / 16, 1 / 8, 1 / 4])
    @pytest.mark.parametrize("kind", ["quantized", "gradient"])
    def test_equals_the_exact_test_at_ties(self, kind, theta):
        maps = ([quantized_map(seed) for seed in range(4)] if kind == "quantized"
                else [gradient_map()])
        rho = LsdConfig(theta=theta).rho
        for omap in maps:
            lone = lone_mask(omap, rho)
            assert lone.any()
            assert np.array_equal(lone, lone_seeds_exact(omap, rho))

    @pytest.mark.parametrize("theta", [1 / 16, 1 / 8, 1 / 4, 1 / 2])
    def test_pair_on_the_tolerance_is_aligned(self, monkeypatch, theta):
        # The angles differ by exactly rho, so the distance lands on rho and
        # the grower joins them from either end.  The filter makes the
        # grower's own float test, inclusive and with no margin.
        monkeypatch.setattr(lsd_module, "_LONE_MARGIN", 0.0)
        rho = LsdConfig(theta=theta).rho
        for pair in ([0.0, rho], [rho, 0.0], [-rho / 2, rho / 2]):
            omap = OrientationMap(angles=np.array([pair]), defined=np.ones((1, 2), bool))
            assert not lone_mask(omap, rho).any()
            assert not lone_seeds_exact(omap, rho).any()
        apart = OrientationMap(angles=np.array([[0.0, rho + 1e-6]]),
                               defined=np.ones((1, 2), bool))
        assert lone_mask(apart, rho).all()
        assert lone_seeds_exact(apart, rho).all()

    @pytest.mark.parametrize("theta", [1 / 16, 1 / 8, 1 / 4])
    @pytest.mark.parametrize("magnitude", [False, True], ids=["scan", "magnitude"])
    @pytest.mark.parametrize("min_size", [2, 5])
    def test_ties_match_numpy_reference(self, magnitude, min_size, theta):
        cfg = LsdConfig(theta=theta)
        for seed in range(3):
            omap = quantized_map(seed, magnitude=magnitude)
            got = region_grow_candidates(omap, cfg, min_size)
            assert got
            assert got == region_grow_candidates_numpy(omap, cfg, min_size)


def near_mask(omap, rho):
    """The `near` mask of `lsd._lone_seeds` as a (height, width) uint8
    array, after checking that its border is 0."""
    mask = np.frombuffer(lsd_module._lone_seeds(omap, rho)[1], dtype=np.uint8)
    mask = mask.reshape(omap.height + 2, omap.width + 2)
    assert not (mask[[0, -1]].any() or mask[:, [0, -1]].any())
    return mask[1:-1, 1:-1]


class TestNeighbourBand:
    """The `near` mask of `lsd._lone_seeds` holds every neighbor within
    2 rho of a pixel, so the grower tests only those while the pixel stays
    within rho of the mean, with the same candidates."""

    @pytest.mark.parametrize("theta", [0.05, 0.125, 0.3, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_exact_band_on_isotropic_maps(self, seed, theta):
        omap = isotropic_orientation_map(40, 30, seed=seed)
        rho = LsdConfig(theta=theta).rho
        near = near_mask(omap, rho)
        assert near.any()
        assert np.array_equal(near, near_neighbours_exact(omap, rho))

    @pytest.mark.parametrize("theta", [1 / 16, 1 / 8, 1 / 4])
    @pytest.mark.parametrize("kind", ["quantized", "gradient"])
    def test_holds_the_exact_band(self, kind, theta):
        maps = ([quantized_map(seed) for seed in range(4)] if kind == "quantized"
                else [gradient_map()])
        rho = LsdConfig(theta=theta).rho
        for omap in maps:
            near = near_mask(omap, rho)
            exact = near_neighbours_exact(omap, rho)
            assert exact.any()
            assert not (exact & ~near).any()

    @pytest.mark.parametrize("theta", [1 / 16, 1 / 8, 1 / 4])
    def test_pair_on_twice_the_tolerance_is_near(self, monkeypatch, theta):
        # The angles differ by exactly 2 rho, and the band's distance lands
        # on 2 rho exactly, so its comparison must be inclusive even with
        # no margin.
        monkeypatch.setattr(lsd_module, "_LONE_MARGIN", 0.0)
        rho = LsdConfig(theta=theta).rho
        for pair in ([0.0, 2 * rho], [2 * rho, 0.0], [-rho, rho]):
            omap = OrientationMap(angles=np.array([pair]), defined=np.ones((1, 2), bool))
            near = near_mask(omap, rho)
            assert near.tolist() == [[1 << 4, 1 << 3]]     # E of one, W of the other
            assert near_neighbours_exact(omap, rho).any()
        apart = OrientationMap(angles=np.array([[0.0, 2 * rho + 1e-6]]),
                               defined=np.ones((1, 2), bool))
        assert not near_mask(apart, rho).any()

    def test_a_drifted_mean_tests_every_later_neighbour(self):
        # The seed p (centre, angle 0) is joined by A, B and C in turn,
        # each within rho of the mean and within 2 rho of p; after C the
        # mean lies past rho from p.  The last neighbor q lies past 2 rho
        # from p, outside its band, yet within rho of the mean, and no
        # other pixel of the region touches it: only the grower's fallback
        # to every later neighbor lets it join.
        cfg = LsdConfig()
        rho, nan = cfg.rho, math.nan
        angles = np.array([[0.99 * rho, nan, 1.49 * rho],
                           [nan, 0.0, nan],
                           [1.82 * rho, nan, 2.04 * rho]])
        defined = ~np.isnan(angles)
        magnitude = np.where(defined, 1.0, 0.0)
        magnitude[1, 1] = 9.0
        omap = OrientationMap(angles=angles, defined=defined, magnitude=magnitude)
        near = near_mask(omap, rho)
        assert near[1, 1] == 0b00100101            # A, B and C; not q
        got = region_grow_candidates(omap, cfg)
        assert len(got) == 1                       # all five pixels
        assert got == region_grow_candidates_numpy(omap, cfg)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def fits_against_oracle(monkeypatch):
    """Make `lsd._fit_batch` check each region it fits against the numpy
    oracle run on that region alone; returns the list of (coords, weights)
    of every region fitted."""
    real = lsd_module._fit_batch
    seen = []

    def checked(coords, weights):
        rows, degenerate = real(coords, weights)
        for i, row in enumerate(rows.tolist()):
            w = None if weights is None else weights[i]
            seen.append((coords[i], w))
            got = ((ValueError, "degenerate region: zero scatter")
                   if degenerate[i] else outcome(RectangleCandidate, *row))
            assert got == outcome(fit_rectangle_numpy, coords[i], w)
        return rows, degenerate

    monkeypatch.setattr(lsd_module, "_fit_batch", checked)
    return seen


def random_rectangles(rng, width, height, count):
    """Rectangles around a width x height map: integer, half-integer (pixel
    centres on the boundary) and arbitrary endpoints; exactly horizontal
    and vertical lines; width 1; partly and fully outside the map; and
    long ones whose far end puts the centre 1e8 to 1e17 away."""

    def coord(lo, hi):
        value = rng.uniform(lo, hi)
        mode = rng.integers(3)
        if mode == 0:
            return float(round(value))
        return math.floor(value) + 0.5 if mode == 1 else value

    rects = []
    while len(rects) < count:
        kind = len(rects) % 6
        ax, bx = coord(-8, width + 8), coord(-8, width + 8)
        ay, by = coord(-8, height + 8), coord(-8, height + 8)
        if kind == 0:
            by = ay                            # horizontal, either direction
        elif kind == 1:
            bx = ax                            # vertical
        elif kind == 2:                        # mostly or fully outside
            shift = float(rng.choice([-1, 1]) * rng.integers(width, 3 * width))
            ax, bx = ax + shift, bx + shift
        elif kind == 3:                        # far centre: coarse rounding
            far = 10.0 ** rng.uniform(8, 17)
            turn = rng.choice([0.0, math.pi / 2, rng.uniform(0, 2 * math.pi)])
            bx, by = ax + far * math.cos(turn), ay + far * math.sin(turn)
        wid = 1.0 if rng.random() < 0.3 else coord(1.0, 7.0)
        if (ax, ay) == (bx, by) or wid < 1.0:
            continue
        rects.append(RectangleCandidate(ax=ax, ay=ay, bx=bx, by=by, width=wid))
    return rects


class TestScalarPathsMatchNumpyOracles:
    """count_aligned against the scalar row walk and the numpy bounding-box
    count, and fit_rectangle against its numpy original: equal results, or
    the same exception type and message."""

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_every_candidate_of_h0_maps(self, seed, fits_against_oracle):
        cfg = LsdConfig()
        omap = isotropic_orientation_map(256, 256, seed=seed)
        candidates = region_grow_candidates(omap, cfg)
        assert len(candidates) > 1000
        assert len(fits_against_oracle) >= len(candidates)
        for cand in candidates:
            counts = count_aligned(cand, omap, cfg.rho)
            assert counts == count_aligned_rows(cand, omap, cfg.rho)
            assert counts == count_aligned_numpy(cand, omap, cfg.rho)

    def test_weighted_fits_and_undefined_pixels(self, fits_against_oracle):
        rng = np.random.default_rng(4)
        rows, cols = np.mgrid[0:72, 0:88]
        gray = (128 + 90 * np.sin(0.25 * cols + 0.1 * rows)
                + rng.normal(0, 8, rows.shape))
        gray[20:45, 30:60] = 40.0              # flat patch: undefined pixels
        omap = gradient_orientation(np.clip(gray, 0, 255), tau=4.0)
        for theta in (0.125, 0.25):
            cfg = LsdConfig(theta=theta)
            rho = cfg.rho
            candidates = region_grow_candidates(omap, cfg, 2)
            counts = [outcome(count_aligned, c, omap, rho) for c in candidates]
            for oracle in (count_aligned_rows, count_aligned_numpy):
                assert counts == [outcome(oracle, c, omap, rho)
                                  for c in candidates]
            assert any(isinstance(c, AlignmentCounts) and c.u_r > 0
                       for c in counts)
        assert all(w is not None for _, w in fits_against_oracle)
        assert len(fits_against_oracle) > 50

    def test_random_rectangles_on_map_with_holes(self):
        rng = np.random.default_rng(31)
        omap = isotropic_orientation_map(29, 23, seed=8)
        defined = rng.random((23, 29)) > 0.15
        defined[5:11, 8:20] = False
        omap = OrientationMap(angles=omap.angles, defined=defined)
        kinds = {"counted": 0, "no pixel": 0, "outside": 0}
        for i, rect in enumerate(random_rectangles(rng, 29, 23, 10_000)):
            rho = (math.pi / 16, math.pi / 5)[i % 2]
            got = outcome(count_aligned, rect, omap, rho)
            assert got == outcome(count_aligned_rows, rect, omap, rho), rect
            assert got == outcome(count_aligned_numpy, rect, omap, rho), rect
            if isinstance(got, AlignmentCounts):
                kinds["counted"] += 1
            else:
                kinds["outside" if "fully" in got[1] else "no pixel"] += 1
        assert min(kinds.values()) > 100

    def test_hand_rectangles(self):
        omap = isotropic_orientation_map(12, 9, seed=2)
        for rect in [
            RectangleCandidate(2.0, 4.0, 9.0, 4.0, 1.0),     # ends on pixel centres
            RectangleCandidate(9.0, 4.0, 2.0, 4.0, 3.0),     # reversed: sin(pi) != 0
            RectangleCandidate(5.0, 0.0, 5.0, 8.0, 1.0),     # vertical through a column
            RectangleCandidate(4.5, 0.5, 4.5, 7.5, 2.0),     # half-integer box edges
            RectangleCandidate(-3.0, -3.0, 20.0, 15.0, 1.0),  # diagonal past the map
            RectangleCandidate(-0.5, 2.0, -0.5, 6.0, 1.0),   # edge one half-pixel off
            RectangleCandidate(40.0, 4.0, 60.0, 4.0, 2.0),   # fully outside
            RectangleCandidate(0.0, 0.0, 1e-300, 1e-300, 1.0),
            RectangleCandidate(-1e6, 4.0, 1e6, 4.0 + 1e-9, 1.0),
            RectangleCandidate(3.3, 4.0, 2e16, 4.0, 1.0),    # centre 1e16 away
            RectangleCandidate(2e16, 4.5, 5.7, 4.5, 2.0),
            RectangleCandidate(6.0, -2e16, 6.0, 3.3, 1.0),
            RectangleCandidate(0.0, 0.0, 1e10, 1e-300, 1.0),  # subnormal sine
            RectangleCandidate(-1e300, 4.0, 1e300, 4.0, 1.0),
            RectangleCandidate(4.0, 4.0, 5.0, 4.0, 1.7e308),  # every row
        ]:
            got = outcome(count_aligned, rect, omap, math.pi / 16)
            assert got == outcome(count_aligned_rows, rect, omap, math.pi / 16)
            assert got == outcome(count_aligned_numpy, rect, omap, math.pi / 16)

    def test_angles_on_the_tolerance_are_aligned(self):
        # rho chosen so that the modulo-pi distance d of every pixel to the
        # normal is exactly the tolerance rho + 1e-12, on either side.
        rect = RectangleCandidate(ax=0.0, ay=1.0, bx=7.0, by=1.0, width=3.0)
        normal = rect.normal_angle
        for angle in (normal + 0.2, normal - 0.2):
            edge = orientation_distance(angle, normal)
            rho = edge - 1e-12
            while rho + 1e-12 < edge:
                rho = math.nextafter(rho, math.inf)
            assert rho + 1e-12 == edge
            omap = OrientationMap(angles=np.full((3, 8), angle),
                                  defined=np.ones((3, 8), bool))
            counts = count_aligned(rect, omap, rho)
            assert counts == AlignmentCounts(n_r=24, k_r=24)
            assert counts == count_aligned_rows(rect, omap, rho)
            assert counts == count_aligned_numpy(rect, omap, rho)
            below = math.nextafter(rho, -math.inf)
            assert count_aligned(rect, omap, below).k_r == 0

    def test_random_regions_fit(self):
        rng = np.random.default_rng(5)
        for trial in range(3000):
            # BLAS changes its kernel for long regions (a few hundred pixels).
            m = int(rng.integers(2, 30) if trial % 10 > 1
                    else rng.integers(300, 1500))
            coords = rng.integers(0, 40, size=(m, 2)).astype(float)
            if trial % 7 == 0:
                coords[:, 1] = coords[0, 1]    # one row: zero-width region
            if trial % 11 == 0:
                coords[:] = coords[0]          # one point: zero scatter
            if trial % 3 == 0:
                coords += rng.random((m, 2))
            weights = None if trial % 2 else rng.uniform(0.5, 50.0, m)
            layout = trial % 5
            if layout == 1:
                coords = np.asfortranarray(coords)
            elif layout == 2:
                coords = np.repeat(coords, 2, axis=0)[::2]
            elif layout == 3:
                coords = coords.tolist()
            assert (outcome(fit_rectangle, coords, weights)
                    == outcome(fit_rectangle_numpy, coords, weights))
        for bad in (np.zeros((3, 3)), np.zeros(4), np.zeros((1, 2))):
            assert (outcome(fit_rectangle, bad)
                    == outcome(fit_rectangle_numpy, bad))


class TestBatchedFit:
    """`region_grow_candidates` fits its regions in batches of equal size;
    each region must get the rectangle it gets alone."""

    def test_mixed_batch_matches_per_region_oracle(self):
        # Sizes 2, 3, 5, 9 and 300 repeat, 4, 17 and 40 come alone; two
        # regions are one pixel repeated (zero scatter, dropped) and one
        # lies in a single grid row (zero width).
        rng = np.random.default_rng(12)
        width = 40
        sizes = [2, 5, 5, 3, 9, 300, 5, 2, 17, 3, 40, 5, 300, 9, 4]
        regions = [rng.integers(width + 1, 30 * width, size=m) for m in sizes]
        regions[2][:] = regions[2][0]
        regions[7][:] = regions[7][0]
        regions[4] = 5 * width + 1 + rng.permutation(np.arange(9) * 3)
        pixels = np.concatenate(regions)
        starts = np.cumsum([0] + sizes)
        magnitude = rng.uniform(0.5, 50.0, 30 * width)
        for mag in (None, magnitude):
            expected = []
            for flat in regions:
                coords = np.column_stack([flat % width - 1,
                                          flat // width - 1]).astype(float)
                fit = outcome(fit_rectangle_numpy, coords,
                              None if mag is None else mag[flat])
                if isinstance(fit, RectangleCandidate):
                    expected.append(fit)
            assert len(expected) == len(sizes) - 2
            assert lsd_module._fit_regions(pixels, starts, width, mag) == expected

    def test_one_fit_batch_per_region_size(self, monkeypatch):
        real = lsd_module._fit_batch
        batches = []

        def counted(coords, weights):
            batches.append(coords.shape[:2])
            return real(coords, weights)

        monkeypatch.setattr(lsd_module, "_fit_batch", counted)
        omap = isotropic_orientation_map(128, 128, seed=3)
        candidates = region_grow_candidates(omap, LsdConfig())
        sizes = [m for _, m in batches]
        assert sorted(sizes) == sorted(set(sizes))
        assert sum(b for b, _ in batches) >= len(candidates) > 10 * len(batches)


def holed_map():
    """A small isotropic map with scattered undefined pixels and a hole."""
    omap = isotropic_orientation_map(29, 23, seed=8)
    defined = np.random.default_rng(31).random((23, 29)) > 0.15
    defined[5:11, 8:20] = False
    return OrientationMap(angles=omap.angles, defined=defined)


def as_outcomes(counted):
    """`lsd._count_batch`'s four lists as `count_aligned` outcomes: the
    counts, or the type and message of what it raises."""
    return [AlignmentCounts(n_r, k_r, u_r) if not code
            else (ValueError, lsd_module._REFUSALS[code - 1])
            for code, n_r, k_r, u_r in zip(*counted)]


class TestCountBatch:
    """`lsd._count_batch` counts each rectangle as it would alone, as four
    parallel lists of Python ints: a refusal code (0 means counted), n_r,
    k_r and u_r."""

    def batch_rectangles(self):
        # A chunk and one more: grown candidates, random rectangles (some
        # outside the map, some between pixel centers) and two past the
        # float range.
        omap = holed_map()
        rects = region_grow_candidates(omap, LsdConfig(theta=0.25), 2)
        rects += random_rectangles(np.random.default_rng(7), 29, 23,
                                   lsd_module._CHUNK - len(rects) - 1)
        rects += [RectangleCandidate(-1.7e308, 4.0, 1.7e308, 4.0, 1.0),
                  RectangleCandidate(1e308, 4.0, 1.7e308, 5.0, 3.0)]
        assert len(rects) == lsd_module._CHUNK + 1
        return omap, rects

    def test_alone_shuffled_and_across_chunks(self, monkeypatch):
        omap, rects = self.batch_rectangles()
        rho = math.pi / 8
        alone = [outcome(count_aligned, r, omap, rho) for r in rects]
        kinds = {c if isinstance(c, AlignmentCounts) else c[1] for c in alone}
        assert {"rectangle lies fully outside the image",
                "rectangle covers no pixel centers inside the image",
                "rectangle extends past the float range"} < kinds

        counted = lsd_module._count_batch(rects, omap, rho)
        assert [len(column) for column in counted] == [len(rects)] * 4
        assert all(type(v) is int for column in counted for v in column)
        assert all(n_r == k_r == u_r == 0
                   for code, n_r, k_r, u_r in zip(*counted) if code)
        assert as_outcomes(counted) == alone
        order = np.random.default_rng(3).permutation(len(rects))
        shuffled = as_outcomes(
            lsd_module._count_batch([rects[i] for i in order], omap, rho))
        assert [shuffled[j] for j in np.argsort(order)] == alone
        # Pixel blocks of at most 5 pixels and one row.
        monkeypatch.setattr(lsd_module, "_PIXELS", 5)
        assert as_outcomes(lsd_module._count_batch(rects, omap, rho)) == alone
        monkeypatch.undo()
        cfg = LsdConfig(theta=0.25)
        detections = score_candidates(omap, rects, cfg)
        kept = [(r, c) for r, c in zip(rects, alone)
                if isinstance(c, AlignmentCounts)]
        assert [(d.candidate, d.counts) for d in detections] == kept
        assert detections == score_candidates_plain(omap, rects, cfg)

    def test_rectangles_past_the_float_range_are_refused(self):
        # The row walk's floor of an infinite bound raised OverflowError,
        # which `score_candidates` did not catch.
        omap = holed_map()
        for rect in [RectangleCandidate(-1.7e308, 4.0, 1.7e308, 4.0, 1.0),
                     RectangleCandidate(1e308, 4.0, 1.7e308, 5.0, 3.0),
                     RectangleCandidate(-1e308, 4.0, -9e307, 4.0, 1.7e308)]:
            with pytest.raises(ValueError, match="past the float range"):
                count_aligned(rect, omap, math.pi / 16)
            with pytest.raises(OverflowError):
                count_aligned_rows(rect, omap, math.pi / 16)

    def test_empty_batch(self):
        assert lsd_module._count_batch([], holed_map(), math.pi / 16) == (
            [], [], [], [])
        assert score_candidates(holed_map(), [], LsdConfig()) == []


class TestScoreCandidates:
    def test_one_score_per_distinct_counts(self, monkeypatch):
        # One counts record, one Score, one decision per criterion and one
        # binomial tail for each distinct (n_r, k_r), however many
        # candidates share it.
        cfg = LsdConfig()
        omap = isotropic_orientation_map(128, 128, seed=6)
        candidates = region_grow_candidates(omap, cfg)
        candidates.append(RectangleCandidate(500.0, 5.0, 600.0, 5.0, 2.0))
        calls = {}
        for owner, name in [(numeric_module, "binomial_tail_log"),
                            (lsd_module, "rect_counts"),
                            (numeric_module.HypothesisCounts, "score"),
                            (numeric_module.Score, "nfa_detects"),
                            (numeric_module.Score, "mdl_detects")]:
            def counted(*args, real=getattr(owner, name),
                        seen=calls.setdefault(name, [])):
                seen.append(args)
                return real(*args)

            monkeypatch.setattr(owner, name, counted)
        got = score_candidates(omap, candidates, cfg)
        monkeypatch.undo()
        assert len(got) == len(candidates) - 1
        distinct = sorted({(d.counts.n_r, d.counts.k_r) for d in got})
        assert sorted((n, k) for n, k, _ in calls["binomial_tail_log"]) == distinct
        assert sorted((c.n_r, c.k_r) for _, c, _ in calls["rect_counts"]) == distinct
        assert [len(calls[name]) for name in ("score", "nfa_detects", "mdl_detects")
                ] == [len(distinct)] * 3
        assert len(distinct) < len(got) / 3
        assert got == score_candidates_plain(omap, candidates, cfg)


class TestExactDecisions:
    """At theta = 1/8, gamma = 1 and epsilon = 1 both float decisions are
    integer inequalities (`oracles.exact_lsd_decisions`)."""

    def test_premises_are_exact(self):
        cfg = LsdConfig()
        assert cfg.theta == 0.125 and math.log2(cfg.theta) == -3.0
        assert 2.5 * math.log2(256 * 256) == 40.0
        assert 2.5 * math.log2(512 * 512) == 45.0

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_every_candidate_of_h0_maps(self, seed):
        cfg = LsdConfig()
        omap = isotropic_orientation_map(256, 256, seed=seed)
        detections = score_candidates(
            omap, region_grow_candidates(omap, cfg), cfg)
        assert len(detections) > 1000
        for d in detections:
            assert ((d.nfa_keep, d.mdl_keep)
                    == exact_lsd_decisions(40, d.counts.n_r, d.counts.k_r)), d

    def test_criterion_9_boundary_table(self):
        cfg = LsdConfig(theta=0.125)
        assert cfg.theta == 0.125
        n_image = 512 * 512
        expected = []
        for n_r in range(4, 61):
            keeps = []
            for k in range(n_r + 1):
                counts = AlignmentCounts(n_r=n_r, k_r=k)
                score_nfa = nfa_rect(n_image, counts, cfg) <= 0.0
                score_mdl = mdl_rect(n_image, counts, cfg) < 0.0
                assert (score_nfa, score_mdl) == exact_lsd_decisions(45, n_r, k)
                keeps.append((score_nfa, score_mdl))
            expected.append(
                (n_r,
                 next((k for k, (nfa, _) in enumerate(keeps) if nfa), None),
                 next((k for k, (_, mdl) in enumerate(keeps) if mdl), None)))
        rows = lsd_boundary_table(cfg, n_image=n_image)
        assert [(r.n_r, r.min_k_nfa, r.min_k_mdl) for r in rows] == expected


class TestDetectSegments:
    def facade(self):
        img = np.full((128, 128), 200, dtype=np.uint8)
        for r0 in (16, 56, 96):
            for c0 in (16, 72):
                img[r0:r0 + 24, c0:c0 + 40] = 40
        return img

    def test_blank_image(self):
        cfg = LsdConfig()
        assert detect_segments(np.zeros((64, 64), dtype=np.uint8), cfg) == []

    def test_facade_edges_found_and_criteria_agree(self):
        cfg = LsdConfig()
        detections = detect_segments(self.facade(), cfg)
        kept_nfa = {d.candidate for d in detections if d.nfa_keep}
        kept_mdl = {d.candidate for d in detections if d.mdl_keep}
        assert kept_nfa
        union = kept_nfa | kept_mdl
        agreement = len(kept_nfa & kept_mdl) / len(union)
        assert agreement >= 0.9

    def test_noise_images_rarely_fire(self):
        cfg = LsdConfig()
        rng = np.random.default_rng(11)
        total = 0
        for seed in range(3):
            img = rng.integers(0, 256, size=(128, 128)).astype(np.uint8)
            total += sum(d.nfa_keep for d in detect_segments(img, cfg))
        assert total <= 2

    def test_candidates_can_be_supplied(self):
        cfg = LsdConfig()
        cand = RectangleCandidate(ax=49.0, ay=5.0, bx=49.0, by=90.0, width=1.0)
        detections = detect_segments(edge_image(), cfg, candidates=[cand])
        assert len(detections) == 1
        assert detections[0].nfa_keep and detections[0].mdl_keep


class TestH0FalseAlarms:
    def test_mean_detection_count_small(self):
        cfg = LsdConfig()
        detections = 0
        maps = 5
        for seed in range(maps):
            omap = isotropic_orientation_map(128, 128, seed=100 + seed)
            cands = region_grow_candidates(omap, cfg)
            detections += sum(d.nfa_keep for d in score_candidates(omap, cands, cfg))
        assert detections / maps <= 1.0


class TestFiles:
    def test_candidates_roundtrip(self, tmp_path):
        cands = [RectangleCandidate(1.0, 2.0, 30.0, 40.0, 3.5),
                 RectangleCandidate(5.0, 5.0, 5.0, 25.0, 1.0)]
        path = tmp_path / "cands.txt"
        write_candidates_file(path, cands)
        back = read_candidates_file(path)
        assert back == cands

    @pytest.mark.parametrize("bad", ["0 0 10 10 inf", "0 0 nan 10 2",
                                     "0 0 10 10", "0 0 10 x 2"])
    def test_bad_candidate_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "cands.txt"
        path.write_text(f"# header\n1 2 30 40 3.5\n{bad}\n")
        with pytest.raises(ValueError, match=r"cands\.txt:3: "):
            read_candidates_file(path)

    def test_segments_file_schema(self, tmp_path):
        cfg = LsdConfig()
        cand = RectangleCandidate(ax=49.0, ay=5.0, bx=49.0, by=90.0, width=1.0)
        detections = detect_segments(edge_image(), cfg, candidates=[cand])
        path = tmp_path / "segments.txt"
        write_segments_file(path, detections)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        fields = lines[1].split()
        assert len(fields) == 9
        assert fields[7] in ("0", "1") and fields[8] in ("0", "1")


def test_rectangle_candidate_validation():
    with pytest.raises(ValueError):
        RectangleCandidate(0.0, 0.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        RectangleCandidate(0.0, 0.0, 1.0, 1.0, 0.5)
    for i in range(5):
        for value in (math.inf, -math.inf, math.nan, "1", None, True):
            args = [0.0, 0.0, 10.0, 10.0, 2.0]
            args[i] = value
            with pytest.raises(ValueError, match="finite"):
                RectangleCandidate(*args)
    rect = RectangleCandidate(0.0, 0.0, 10.0, 0.0, 2.0)
    assert rect.normal_angle == pytest.approx(math.pi / 2)
