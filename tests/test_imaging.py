"""Tests for image synthesis, rasterization, counting, and I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlnfa.imaging import (
    BinaryImage,
    NoiseConfig,
    OrientationMap,
    binary_to_gray,
    count_region,
    flip_noise,
    gradient_orientation,
    gray_to_binary,
    rasterize_polygon,
    read_binary_pgm,
    read_pgm,
    read_polygon_file,
    synthesize_squares,
    trace_contour,
    write_binary_pgm,
    write_pgm,
    write_polygon_file,
)
from mdlnfa.numeric import DomainError
from mdlnfa.experiments import ShapeSpec, make_shape_instance
from oracles import rasterize_polygon_bruteforce, rasterize_polygon_two_pass


def blank(width, height):
    return BinaryImage(np.zeros((height, width), dtype=np.uint8))


class TestBinaryImage:
    def test_basic_properties(self):
        img = BinaryImage(np.eye(4, dtype=np.uint8))
        assert (img.width, img.height, img.n) == (4, 4, 16)
        assert img.count_ones == 4
        assert img.counts.q == 0.25

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryImage(np.full((2, 2), 3, dtype=np.uint8))

    def test_immutable(self):
        img = blank(3, 3)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1


class TestFlipNoise:
    def test_deterministic_for_fixed_seed(self):
        img = blank(50, 50)
        a = flip_noise(img, 0.3, seed=123)
        b = flip_noise(img, 0.3, seed=123)
        assert np.array_equal(a.pixels, b.pixels)
        c = flip_noise(img, 0.3, seed=124)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_pinned_stream_sample(self):
        # Freezes the PCG64 noise stream: any change to seeding or sampling
        # order breaks reproducibility of every experiment.
        img = blank(4, 4)
        out = flip_noise(img, 0.5, seed=0)
        expected = np.array([[0, 1, 1, 1],
                             [0, 0, 0, 0],
                             [0, 0, 0, 1],
                             [0, 1, 0, 1]], dtype=np.uint8)
        assert np.array_equal(out.pixels, expected)

    def test_tiny_delta_is_identity(self):
        img = flip_noise(blank(100, 100), 1e-9, seed=5)
        assert img.count_ones == 0

    def test_density_concentrates(self):
        for seed in range(5):
            img = flip_noise(blank(100, 100), 0.2, seed=seed)
            assert 0.18 <= img.count_ones / img.n <= 0.22

    def test_forced_flip_involution(self):
        rng = np.random.default_rng(9)
        img = BinaryImage(rng.integers(0, 2, size=(20, 20)).astype(np.uint8))
        once = flip_noise(img, 1.0, seed=1)
        assert np.array_equal(once.pixels, 1 - img.pixels)
        twice = flip_noise(once, 1.0, seed=2)
        assert np.array_equal(twice.pixels, img.pixels)

    def test_delta_range_checked(self):
        with pytest.raises(ValueError):
            flip_noise(blank(2, 2), 1.5, seed=0)


class TestNoiseConfig:
    def test_range(self):
        NoiseConfig(delta=0.0)
        NoiseConfig(delta=0.49)
        with pytest.raises(ValueError):
            NoiseConfig(delta=0.5)
        with pytest.raises(ValueError):
            NoiseConfig(delta=-0.1)


class TestSynthesizeSquares:
    def test_noiseless_square_count(self):
        img = synthesize_squares([(10, 20, 40)], 100, 100, NoiseConfig(0.0))
        assert img.count_ones == 1600
        assert img.pixels[10:50, 20:60].all()

    def test_empty_layout_background_density(self):
        img = synthesize_squares([], 100, 100, NoiseConfig(0.3, seed=11))
        assert 0.27 <= img.count_ones / img.n <= 0.33

    def test_four_square_layout(self):
        side, margin = 30, 20
        base = (256 - (2 * side + margin)) // 2
        squares = [(base, base, side),
                   (base, base + side + margin, side),
                   (base + side + margin, base, side),
                   (base + side + margin, base + side + margin, side)]
        img = synthesize_squares(squares, 256, 256, NoiseConfig(0.0))
        assert img.count_ones == 4 * side * side

    def test_out_of_bounds_square(self):
        with pytest.raises(ValueError):
            synthesize_squares([(90, 90, 20)], 100, 100, NoiseConfig(0.0))


class TestRasterizePolygon:
    def test_axis_aligned_square(self):
        verts = [(10, 10), (10, 49), (49, 49), (49, 10)]
        mask = rasterize_polygon(verts, 100, 100)
        assert mask.sum() == 1600
        assert mask[10:50, 10:50].all()

    def test_triangle_matches_bruteforce(self):
        verts = [(0, 0), (0, 20), (20, 0)]
        mask = rasterize_polygon(verts, 32, 32)
        expected = rasterize_polygon_bruteforce(verts, 32, 32)
        got = {(r, c) for r, c in zip(*np.nonzero(mask))}
        assert got == expected

    def test_irregular_polygon_matches_bruteforce(self):
        verts = [(3.2, 4.7), (18.9, 2.3), (25.4, 14.8), (12.1, 23.6), (4.5, 17.2)]
        mask = rasterize_polygon(verts, 30, 30)
        expected = rasterize_polygon_bruteforce(verts, 30, 30)
        got = {(r, c) for r, c in zip(*np.nonzero(mask))}
        assert got == expected

    def test_polygon_fully_left_of_image(self):
        # Spans entirely outside the frame must not wrap into the row.
        verts = [(-20, 2), (-20, 8), (-5, 8), (-5, 2)]
        with pytest.raises(ValueError):
            rasterize_polygon(verts, 16, 16)

    def test_polygon_partially_outside(self):
        verts = [(-5, 2), (-5, 8), (4, 8), (4, 2)]
        mask = rasterize_polygon(verts, 16, 16)
        expected = rasterize_polygon_bruteforce(verts, 16, 16)
        got = {(r, c) for r, c in zip(*np.nonzero(mask))}
        assert got == expected

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            rasterize_polygon([(0, 0), (5, 5)], 10, 10)
        with pytest.raises(ValueError):
            # Collinear points enclose no pixels.
            rasterize_polygon([(0.5, 0.5), (3.5, 3.5), (6.5, 6.5)], 10, 10)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_star_polygons_match_bruteforce(self, data):
        # Star-shaped construction guarantees a simple polygon; coordinates on
        # a 0.001 grid keep both implementations away from epsilon ambiguity.
        c = data.draw(st.integers(min_value=3, max_value=12))
        cx = data.draw(st.integers(min_value=15, max_value=48))
        cy = data.draw(st.integers(min_value=15, max_value=48))
        angles = sorted(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=2 * math.pi - 1e-3),
            min_size=c, max_size=c, unique=True)))
        radii = data.draw(st.lists(
            st.floats(min_value=1.5, max_value=9.0), min_size=c, max_size=c))
        verts = [(round(cx + r * math.cos(a), 3), round(cy + r * math.sin(a), 3))
                 for a, r in zip(angles, radii)]
        try:
            mask = rasterize_polygon(verts, 64, 64)
        except ValueError:
            return  # footprint collapsed to nothing; nothing to compare
        expected = rasterize_polygon_bruteforce(verts, 64, 64)
        got = {(r, col) for r, col in zip(*np.nonzero(mask))}
        assert got == expected


def _mask_or_error(rasterize, vertices, width, height):
    try:
        return rasterize(vertices, width, height)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_matches_two_pass(vertices, width, height):
    got = _mask_or_error(rasterize_polygon, vertices, width, height)
    expected = _mask_or_error(rasterize_polygon_two_pass, vertices, width,
                              height)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == bool and np.array_equal(got, expected)


class TestRasterizeAgainstTwoPass:
    """The one-pass rasterizer returns the masks, and raises the errors, of
    the two-pass numpy version it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_one_vertex_bss_child(self, seed):
        image, initial = make_shape_instance(ShapeSpec(seed=seed))
        assert_matches_two_pass(initial.vertices, image.width, image.height)
        for i in range(initial.c):
            child = np.delete(initial.vertices, i, axis=0)
            assert_matches_two_pass(child, image.width, image.height)

    @pytest.mark.parametrize("vertices", [
        [(2, 3), (9, 3), (9, 8), (2, 8)],
        [(2.5, 3), (9.5, 3), (9.5, 8), (2.5, 8)],
        [(1.2, 4), (7.8, 4), (7.8, 11), (1.2, 11)],
        [(-3, 0), (30, 0), (30, 15), (-3, 15)],
        [(0, 0), (10, 0), (5, 7)],
        [(1, 5), (11, 5), (6, -2)],
        [(3, 15), (12, 15), (7.5, 4)],
        [(0.5, 2), (8.5, 2), (4.5, 9.5)],
        [(2, 16), (10, 16), (6, 10)],
        [(-10, 0), (8, 6), (-10, 12)],
        [(25, 1), (6, 7), (25, 13)],
    ])
    def test_rectangles_and_triangles_with_horizontal_edges(self, vertices):
        assert_matches_two_pass(vertices, 16, 16)

    def test_crossing_one_ulp_from_the_boundary_tolerance(self):
        # At row 3 the left edge crosses at x = 5.0000001, just over the 1e-7
        # on-edge tolerance from column 5.  Taking the slope (x2 - x1) /
        # (y2 - y1) first rounds x one ulp lower, inside the tolerance, and
        # would set pixel (3, 5).
        top = 10.677585737962909
        vertices = [(0.0, 0.0), (17.795976585857705, top), (20.0, top),
                    (20.0, 0.0)]
        assert_matches_two_pass(vertices, 16, 16)
        assert not rasterize_polygon(vertices, 16, 16)[3, 5]

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (5, 5)],
        [(1, 2, 3), (4, 5, 6), (7, 8, 9)],
        [(0.5, 0.5), (3.5, 3.5), (6.5, 6.5)],
        [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)],
        [(-20, 2), (-20, 8), (-5, 8), (-5, 2)],
        [(20, 2), (20, 8), (35, 8), (35, 2)],
        [(2, -9), (8, -9), (5, -2)],
        [(0, 0), (math.nan, 5), (5, 5)],
        [(0, 0), (5, math.inf), (1, 5)],
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degenerate_inputs(self, vertices):
        assert_matches_two_pass(vertices, 16, 16)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_polygons(self, data):
        # Integer and half-integer vertices put crossings and pixel centres
        # exactly on edges; the range reaches past every side of the image.
        grid = data.draw(st.sampled_from([None, 1.0, 0.5]))
        coord = st.floats(min_value=-12.0, max_value=36.0)
        if grid is not None:
            coord = coord.map(lambda v: round(v / grid) * grid)
        c = data.draw(st.integers(min_value=3, max_value=9))
        vertices = data.draw(st.lists(st.tuples(coord, coord),
                                      min_size=c, max_size=c))
        width = data.draw(st.integers(min_value=1, max_value=24))
        height = data.draw(st.integers(min_value=1, max_value=24))
        assert_matches_two_pass(vertices, width, height)


class TestCountRegion:
    def test_full_image_mask(self):
        rng = np.random.default_rng(0)
        img = BinaryImage(rng.integers(0, 2, size=(13, 7)).astype(np.uint8))
        counts = count_region(img, np.ones((13, 7), dtype=bool))
        assert (counts.n, counts.k) == (img.n, img.count_ones)

    def test_complement_adds_up(self):
        rng = np.random.default_rng(1)
        img = BinaryImage(rng.integers(0, 2, size=(20, 20)).astype(np.uint8))
        mask = rng.random((20, 20)) < 0.4
        if not mask.any() or mask.all():
            mask[0, 0] = True
            mask[1, 1] = False
        inside = count_region(img, mask)
        outside = count_region(img, ~mask)
        assert inside.n + outside.n == img.n
        assert inside.k + outside.k == img.count_ones

    def test_matches_pixel_loop(self):
        rng = np.random.default_rng(2)
        img = BinaryImage(rng.integers(0, 2, size=(9, 11)).astype(np.uint8))
        mask = rng.random((9, 11)) < 0.5
        mask[0, 0] = True
        counts = count_region(img, mask)
        n = k = 0
        for r in range(9):
            for c in range(11):
                if mask[r, c]:
                    n += 1
                    k += int(img.pixels[r, c])
        assert (counts.n, counts.k) == (n, k)

    def test_empty_mask_rejected(self):
        with pytest.raises(DomainError):
            count_region(blank(4, 4), np.zeros((4, 4), dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_region(blank(4, 4), np.ones((3, 3), dtype=bool))


class TestGradientOrientation:
    def test_vertical_step_edge(self):
        img = np.zeros((20, 20), dtype=np.uint8)
        img[:, 10:] = 255
        omap = gradient_orientation(img)
        edge = omap.angles[:-1, 9]
        assert omap.defined[:-1, 9].all()
        np.testing.assert_allclose(edge, 0.0, atol=1e-12)  # gradient points +x
        # Away from the edge everything is flat, hence undefined.
        assert not omap.defined[:, :9].any()
        assert not omap.defined[:, 11:].any()

    def test_constant_image_undefined(self):
        omap = gradient_orientation(np.full((8, 8), 77, dtype=np.uint8))
        assert not omap.defined.any()

    def test_diagonal_ramp_angle(self):
        r, c = np.mgrid[0:12, 0:12]
        img = (10 * (r + c)).astype(np.uint8)
        omap = gradient_orientation(img)
        assert omap.defined[:-1, :-1].all()
        np.testing.assert_allclose(omap.angles[:-1, :-1], math.pi / 4, atol=1e-6)

    def test_angles_in_range_and_border_undefined(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        omap = gradient_orientation(img)
        assert not omap.defined[-1, :].any()
        assert not omap.defined[:, -1].any()
        ang = omap.angles[omap.defined]
        assert np.all((ang >= -math.pi) & (ang < math.pi))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gradient_orientation(np.zeros((1, 5), dtype=np.uint8))


class TestPgmIO(object):
    def test_roundtrip_p5(self, tmp_path):
        rng = np.random.default_rng(4)
        arr = rng.integers(0, 256, size=(11, 17)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, arr)
        back = read_pgm(path)
        assert np.array_equal(arr, back)

    def test_read_p2_with_comments(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_text("P2\n# a comment\n3 2\n255\n0 10 20\n30 40 50\n")
        arr = read_pgm(path)
        assert arr.shape == (2, 3)
        assert arr[1, 2] == 50

    def test_binary_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = BinaryImage(rng.integers(0, 2, size=(9, 9)).astype(np.uint8))
        path = tmp_path / "bin.pgm"
        write_binary_pgm(path, img)
        stored = read_pgm(path)
        assert set(np.unique(stored)) <= {0, 255}
        back = read_binary_pgm(path)
        assert np.array_equal(img.pixels, back.pixels)

    def test_gray_binary_conversion(self):
        img = BinaryImage(np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert np.array_equal(gray_to_binary(binary_to_gray(img)).pixels, img.pixels)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n2 2\n255\n1234")
        with pytest.raises(ValueError):
            read_pgm(path)


class TestPolygonFileIO:
    def test_roundtrip(self, tmp_path):
        verts = np.array([(1.5, 2.0), (10.0, 2.0), (5.0, 9.25)])
        path = tmp_path / "poly.txt"
        write_polygon_file(path, verts)
        back = read_polygon_file(path)
        np.testing.assert_allclose(verts, back)

    def test_too_few_vertices_rejected(self, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("1 2\n3 4\n")
        with pytest.raises(ValueError):
            read_polygon_file(path)

    @pytest.mark.parametrize("bad,match", [
        ("inf 40", r"poly\.txt:3: vertex \(inf, 40\.0\) is not finite"),
        ("30 nan", r"poly\.txt:3: vertex \(30\.0, nan\) is not finite"),
        ("30 40 5", r"poly\.txt:3: expected 'x y', got '30 40 5'"),
        ("30", r"poly\.txt:3: expected 'x y'"),
        ("30 y", r"poly\.txt:3: expected 'x y'"),
    ])
    def test_bad_vertex_line_names_file_and_line(self, tmp_path, bad, match):
        path = tmp_path / "poly.txt"
        path.write_text(f"10 10\n# comment\n{bad}\n50 10\n")
        with pytest.raises(ValueError, match=match):
            read_polygon_file(path)


class TestTraceContour:
    def test_square_blob(self):
        img = synthesize_squares([(8, 8, 16)], 32, 32, NoiseConfig(0.0))
        verts = trace_contour(img)
        assert len(verts) >= 4
        mask = rasterize_polygon(verts, 32, 32)
        truth = img.pixels.astype(bool)
        # The traced boundary should reproduce the blob almost exactly.
        assert (mask ^ truth).sum() <= 0.05 * truth.sum()

    def test_picks_largest_component(self):
        arr = np.zeros((20, 20), dtype=np.uint8)
        arr[2:4, 2:4] = 1        # small blob
        arr[8:16, 8:16] = 1      # large blob
        verts = trace_contour(BinaryImage(arr))
        assert verts[:, 0].min() >= 7.0

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            trace_contour(blank(5, 5))


def test_orientation_map_validation():
    with pytest.raises(ValueError):
        OrientationMap(angles=np.full((2, 2), 4.0), defined=np.ones((2, 2), bool))
