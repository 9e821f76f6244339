"""Tests for rectangle candidates, alignment counting, and dual validation."""

import math

import numpy as np
import pytest

from mdlnfa.imaging import OrientationMap, gradient_orientation
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
    orientation_distance,
    read_candidates_file,
    region_grow_candidates,
    score_candidates,
    write_candidates_file,
    write_segments_file,
)
from oracles import region_grow_candidates_numpy

N_512 = 512 * 512


class TestConfig:
    def test_default_operating_point(self):
        cfg = LsdConfig()
        assert cfg.theta == 0.125
        assert cfg.gamma == 1

    def test_theta_tracks_rho(self):
        assert LsdConfig(rho=math.pi / 4).theta == pytest.approx(0.5)
        assert LsdConfig.from_theta(0.125).rho == pytest.approx(math.pi / 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            LsdConfig(rho=0.0)
        with pytest.raises(ValueError):
            LsdConfig(rho=4.0)
        with pytest.raises(ValueError):
            LsdConfig(rho=2.0)
        with pytest.raises(ValueError):
            LsdConfig(rho=math.pi / 2)
        with pytest.raises(ValueError):
            LsdConfig.from_theta(1.0)
        with pytest.raises(ValueError):
            LsdConfig.from_theta(0.0)
        with pytest.raises(ValueError):
            LsdConfig(gamma=0)
        with pytest.raises(ValueError):
            LsdConfig(epsilon=0.0)


class TestOrientationDistance:
    def test_symmetric_and_periodic(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-math.pi, math.pi, 100)
        b = rng.uniform(-math.pi, math.pi, 100)
        np.testing.assert_allclose(orientation_distance(a, b),
                                   orientation_distance(b, a), atol=1e-12)
        np.testing.assert_allclose(orientation_distance(a + math.pi, b),
                                   orientation_distance(a, b), atol=1e-9)
        assert np.all(orientation_distance(a, b) <= math.pi / 2 + 1e-12)

    def test_values(self):
        assert orientation_distance(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
        assert orientation_distance(0.1, -0.1) == pytest.approx(0.2)
        assert orientation_distance(math.pi - 0.05, 0.0) == pytest.approx(0.05)


class TestAlignmentCounts:
    def test_invariants(self):
        AlignmentCounts(n_r=10, k_r=7, u_r=3)
        with pytest.raises(ValueError):
            AlignmentCounts(n_r=10, k_r=8, u_r=3)
        with pytest.raises(ValueError):
            AlignmentCounts(n_r=10, k_r=-1)


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


class TestRectScores:
    def test_forty_thirty_detected_by_both(self):
        cfg = LsdConfig.from_theta(0.125)
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
        rng = np.random.default_rng(4)
        rows, cols = np.mgrid[0:72, 0:88]
        gray = 128 + 90 * np.sin(0.25 * cols + 0.1 * rows) + rng.normal(0, 8, rows.shape)
        gray[20:45, 30:60] = 40.0              # flat patch: undefined pixels
        omap = gradient_orientation(np.clip(gray, 0, 255), tau=4.0)
        assert omap.magnitude is not None
        assert 0 < omap.defined.sum() < omap.defined.size
        cfg = LsdConfig(rho=math.pi / 8)
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

    def test_criterion_filtering(self):
        cfg = LsdConfig()
        both = detect_segments(self.facade(), cfg, criterion="both")
        nfa_only = detect_segments(self.facade(), cfg, criterion="nfa")
        assert {d.candidate for d in nfa_only} == \
            {d.candidate for d in both if d.nfa_keep}
        with pytest.raises(ValueError):
            detect_segments(self.facade(), cfg, criterion="fast")

    def test_noise_images_rarely_fire(self):
        cfg = LsdConfig()
        rng = np.random.default_rng(11)
        total = 0
        for seed in range(3):
            img = rng.integers(0, 256, size=(128, 128)).astype(np.uint8)
            total += len(detect_segments(img, cfg, criterion="nfa"))
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
        for value in (math.inf, -math.inf, math.nan):
            args = [0.0, 0.0, 10.0, 10.0, 2.0]
            args[i] = value
            with pytest.raises(ValueError, match="finite"):
                RectangleCandidate(*args)
    rect = RectangleCandidate(0.0, 0.0, 10.0, 0.0, 2.0)
    assert rect.normal_angle == pytest.approx(math.pi / 2)
