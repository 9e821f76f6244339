"""Tests for image synthesis, rasterization, counting, and I/O."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlnfa.imaging import (
    BinaryImage,
    NoiseConfig,
    OrientationMap,
    PolygonMarks,
    _shoelace,
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
from oracles import (
    GRID_SYMMETRIES,
    component_labels,
    count_ones_sum,
    flip_noise_where,
    pgm_bytes,
    rasterize_polygon_bruteforce,
    rasterize_polygon_two_pass,
    shoelace_roll,
    trace_contour_grid,
)


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

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (7, 13), (100, 100),
                                       (256, 256)])
    def test_count_ones_matches_sum_oracle(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        for pixels in (rng.integers(0, 2, size=shape), np.zeros(shape),
                       np.ones(shape)):
            img = BinaryImage(pixels.astype(np.uint8))
            assert img.count_ones == count_ones_sum(img.pixels)
            assert type(img.count_ones) is int


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
        # A bool is no flip rate, though True compares equal to 1.
        for delta in (1.5, -0.1, math.nan, True, False, "0.1", None):
            with pytest.raises(ValueError, match="delta"):
                flip_noise(blank(2, 2), delta, seed=0)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (7, 13), (100, 100),
                                       (256, 256)])
    @pytest.mark.parametrize("truth", ["random", "ones"])
    def test_matches_where_oracle_byte_for_byte(self, shape, truth):
        rng = np.random.default_rng(7)
        pixels = (rng.integers(0, 2, size=shape) if truth == "random"
                  else np.ones(shape))
        img = BinaryImage(pixels.astype(np.uint8))
        for delta in (0.0, 1e-9, 0.02, 0.3, 0.5, 1.0):
            for seed in (0, 12345, np.random.SeedSequence((3, 1, 4)),
                         np.random.SeedSequence(2**70)):
                out = flip_noise(img, delta, seed)
                expected = flip_noise_where(img, delta, seed)
                assert out.pixels.dtype == expected.pixels.dtype == np.uint8
                assert out.pixels.shape == shape
                assert out.pixels.tobytes() == expected.pixels.tobytes()


class TestNoiseConfig:
    def test_range(self):
        NoiseConfig(delta=0.0)
        NoiseConfig(delta=0.49)
        # A bool is no noise level: False used to pass as 0, although the
        # sweeps reject a bool one.
        for delta in (0.5, -0.1, False, True, "0.1", None, math.nan):
            with pytest.raises(ValueError, match="delta"):
                NoiseConfig(delta=delta)

    def test_seed(self):
        # True seeded as 1, and 1.5 escaped as numpy's TypeError.
        for seed in (True, 1.5, -1, "3", None, np.int64(-2)):
            with pytest.raises(ValueError, match="seed"):
                NoiseConfig(0.1, seed=seed)
        sequence = np.random.SeedSequence(5)
        for seed in (0, 7, np.int64(3), np.uint8(2), sequence):
            assert NoiseConfig(0.1, seed=seed).seed is seed


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

    @pytest.mark.parametrize("square,message", [
        ((1, 1, 2.5), "side must be an integer >= 1, got 2.5"),
        ((1.0, 1, 2), "row must be an integer >= 0, got 1.0"),
        ((True, 1, 2), "row must be an integer >= 0, got True"),
        ((1, 1, None), "side must be an integer >= 1, got None"),
        ((1, "1", 2), "col must be an integer >= 0, got '1'")])
    def test_square_entries_must_be_integers(self, square, message):
        # A float side would reach the slice as a TypeError, and a bool
        # would be drawn as 0 or 1.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synthesize_squares([(2, 2, 3), square], 10, 10, NoiseConfig(0.0))


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

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (math.nan, 5), (5, 5)],
        [(0, 0), (5, math.inf), (1, 5)],
        [(0, -math.inf), (5, -5), (5, 10), (-3, -4)],
        [(0, 0), (math.inf, 0), (0, 5)],
    ])
    def test_non_finite_vertices_rejected(self, vertices):
        with pytest.raises(ValueError, match="polygon vertices must be finite"):
            rasterize_polygon(vertices, 16, 16)

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
    except ValueError as exc:
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


class TestShoelace:
    """`_shoelace` joins its next vertices by `np.concatenate`; they are the
    values `np.roll` gives, so every area is the same float."""

    @pytest.mark.parametrize("seed", range(4))
    def test_single_polygons(self, seed):
        rng = np.random.default_rng(seed)
        for c in range(3, 64):
            verts = rng.uniform(-50.0, 150.0, size=(c, 2))
            assert _shoelace(verts).tobytes() == shoelace_roll(verts).tobytes()

    @pytest.mark.parametrize("shape", [(1, 3), (7, 5), (40, 59), (3, 4, 12)])
    def test_stacks_of_polygons(self, shape):
        verts = np.random.default_rng(len(shape)).uniform(0.0, 128.0, (*shape, 2))
        got = _shoelace(verts)
        assert got.shape == shape[:-1]
        assert got.tobytes() == shoelace_roll(verts).tobytes()


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
    ])
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


SYMMETRY_IMAGE = BinaryImage(
    np.random.default_rng(12).integers(0, 2, size=(64, 64)).astype(np.uint8))


def scanline_marks(vertices, image):
    """The mask of the polygon on `image`'s grid and the (dn, dk) of each
    vertex removal, or the error the rasterizer raises."""
    height, width = image.pixels.shape
    try:
        mask = rasterize_polygon(vertices, width, height)
    except ValueError as exc:
        return str(exc)
    marks = PolygonMarks(vertices, width, height)
    pts = [[float(x), float(y)] for x, y in vertices]
    return mask, [marks.removal(pts, i, image)[:2] for i in range(len(pts))]


def assert_scanline_equivariant(vertices, symmetry, image=SYMMETRY_IMAGE):
    move_vertex, move_array = GRID_SYMMETRIES[symmetry]
    height, width = image.pixels.shape
    moved = [move_vertex(x, y, width, height) for x, y in vertices]
    got = scanline_marks(moved, BinaryImage(move_array(image.pixels)))
    expected = scanline_marks(vertices, image)
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    assert np.array_equal(got[0], move_array(expected[0]))
    assert got[1] == expected[1]


class TestScanlineSymmetry:
    """Masks and removal counts of the scanline walk commute with the grid's
    symmetries, for vertices whose mirrored coordinates are exact floats."""

    @pytest.mark.parametrize("symmetry", sorted(GRID_SYMMETRIES))
    @pytest.mark.parametrize("vertices", [
        # A concave comb: rows 18..32 cross it six times.
        [(3, 52), (5, 8), (9.5, 8), (11, 33), (16, 33), (18.5, 12),
         (23, 12.5), (24, 33), (31, 33), (33.25, 18), (40.75, 18), (44, 52)],
        # Partly off the image, past every side.
        [(-6.5, 20), (30, -9), (70.5, 41), (25.25, 75)],
        [(-10, 5), (20, 30.5), (-3, 60)],
        # Self-crossing: two triangles that meet at (30, 30).
        [(10, 10), (50, 50), (50, 10), (10, 50)],
    ], ids=["comb", "off-every-side", "off-left", "bow-tie"])
    def test_fixed_polygons(self, vertices, symmetry):
        assert_scanline_equivariant(vertices, symmetry)

    @pytest.mark.parametrize("symmetry", sorted(GRID_SYMMETRIES))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_polygons(self, symmetry, data):
        # Integer, half-integer and dyadic vertices (1/64): their mirror
        # images are exact, and crossings and pixel centres meet edges.
        grid = data.draw(st.sampled_from([1, 2, 64]))
        coord = st.integers(min_value=-8 * grid, max_value=71 * grid).map(
            lambda v: v / grid)
        c = data.draw(st.integers(min_value=3, max_value=8))
        vertices = data.draw(st.lists(st.tuples(coord, coord),
                                      min_size=c, max_size=c))
        assert_scanline_equivariant(vertices, symmetry)


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
        ones = BinaryImage(np.ones((4, 4), dtype=np.uint8))
        with pytest.raises(DomainError, match="at least one pixel, got n=0"):
            count_region(ones, np.zeros((4, 4), dtype=bool))

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


class TestPgmMaxval:
    @pytest.mark.parametrize("magic", ["P2", "P5"])
    def test_every_maxval_reads_as_8_bit_levels(self, tmp_path, magic):
        path = tmp_path / "img.pgm"
        for maxval in range(1, 256):
            path.write_bytes(pgm_bytes(magic, [range(maxval + 1)], maxval))
            want = [(s * 255 + maxval // 2) // maxval for s in range(maxval + 1)]
            got = read_pgm(path)
            assert got.dtype == np.uint8
            assert got.tolist() == [want]
            assert want[0] == 0 and want[-1] == 255

    def test_p5_maxval_15(self, tmp_path):
        path = tmp_path / "img.pgm"
        samples = np.arange(16).reshape(4, 4)
        path.write_bytes(pgm_bytes("P5", samples, 15))
        assert np.array_equal(read_pgm(path), samples * 17)

    @pytest.mark.parametrize("magic", ["P2", "P5"])
    def test_maxval_1_binary_image(self, tmp_path, magic):
        # Read as raw samples, a maxval-1 image was all zeros after the
        # mid-scale threshold.
        rng = np.random.default_rng(6)
        mask = rng.integers(0, 2, size=(7, 11))
        path = tmp_path / "bin.pgm"
        path.write_bytes(pgm_bytes(magic, mask, 1))
        assert set(np.unique(read_pgm(path))) == {0, 255}
        assert np.array_equal(read_binary_pgm(path).pixels, mask)

    @pytest.mark.parametrize("magic,maxval,bad", [
        ("P2", 255, 300), ("P2", 255, -1), ("P2", 1, 2), ("P5", 15, 16),
        ("P5", 1, 255)])
    def test_sample_above_maxval_rejected(self, tmp_path, magic, maxval, bad):
        path = tmp_path / "bad.pgm"
        path.write_bytes(pgm_bytes(magic, [[0, bad, 1]], maxval))
        with pytest.raises(ValueError, match=r"bad\.pgm"):
            read_pgm(path)

    @pytest.mark.parametrize("sample", ["x", "1.5", "0x10"])
    def test_non_integer_p2_sample_names_the_file(self, tmp_path, sample):
        # int()'s own message named neither the file nor the format.
        path = tmp_path / "bad.pgm"
        path.write_text(f"P2 2 1 255 10 {sample}")
        with pytest.raises(ValueError, match=r"non-integer PGM sample in .*bad\.pgm"):
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

    @pytest.mark.parametrize("every", [0, -3, 2.7, 2.0, "2", True, None])
    def test_every_must_be_a_positive_integer(self, every):
        img = synthesize_squares([(2, 2, 6)], 10, 10, NoiseConfig(0.0))
        with pytest.raises(ValueError, match="every must be an integer >= 1"):
            trace_contour(img, every=every)

    def test_every_takes_each_nth_vertex(self):
        img = synthesize_squares([(2, 2, 6)], 10, 10, NoiseConfig(0.0))
        verts = trace_contour(img)
        assert np.array_equal(trace_contour(img, every=3), verts[::3])
        assert np.array_equal(trace_contour(img, every=np.int64(3)), verts[::3])


def trace_oracle_cases():
    """(name, image) pairs on which the tracer must match its grid oracle."""
    cases = [(f"shape{seed}", make_shape_instance(ShapeSpec(seed=seed))[0])
             for seed in range(6)]
    rng = np.random.default_rng(11)
    for i in range(40):
        height, width = rng.integers(1, 30, size=2)
        density = rng.uniform(0.2, 0.8)
        pixels = rng.random((height, width)) < density
        cases.append((f"blob{i}", BinaryImage(pixels.astype(np.uint8))))
    cases.append(("noisy_square", synthesize_squares(
        [(5, 5, 30)], 40, 40, NoiseConfig(0.2, seed=3))))
    cases.append(("full", BinaryImage(np.ones((7, 9), dtype=np.uint8))))
    cases.append(("one_pixel", BinaryImage(np.ones((1, 1), dtype=np.uint8))))
    cases.append(("domino", BinaryImage(np.ones((1, 2), dtype=np.uint8))))
    cases.append(("empty", blank(6, 4)))
    twins = np.zeros((14, 16), dtype=np.uint8)
    twins[2:4, 8:14] = 1          # 12 pixels, first in scan order
    twins[7:10, 2:6] = 1          # 12 pixels
    cases.append(("equal_twins", BinaryImage(twins)))
    border = np.zeros((10, 12), dtype=np.uint8)
    border[0, :] = 1              # touches the top, left and right edges
    border[:, 0] = 1              # and runs down to the bottom edge
    border[4:7, 5:9] = 1          # a separate, smaller blob
    cases.append(("border", BinaryImage(border)))
    return cases


class TestTraceContourOracle:
    @staticmethod
    def outcome(trace, image, every):
        try:
            return trace(image, every=every)
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("every", [1, 2, 3])
    def test_matches_grid_oracle(self, every):
        for name, image in trace_oracle_cases():
            got = self.outcome(trace_contour, image, every)
            want = self.outcome(trace_contour_grid, image, every)
            assert type(got) is type(want), name
            if isinstance(want, str):
                assert got == want, name
            else:
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert np.array_equal(got, want), name

    def test_first_of_equal_components_wins(self):
        image = dict(trace_oracle_cases())["equal_twins"]
        verts = trace_contour(image)
        assert verts[:, 1].max() <= 3.0          # rows 2-3: the upper bar
        assert np.array_equal(verts, trace_contour_grid(image))

    def test_component_on_the_image_border(self):
        image = dict(trace_oracle_cases())["border"]
        verts = trace_contour(image)
        assert verts[:, 0].min() == 0.0 and verts[:, 0].max() == 11.0
        assert verts[:, 1].min() == 0.0 and verts[:, 1].max() == 9.0
        assert np.array_equal(verts, trace_contour_grid(image))


def cycle_rotations(verts):
    """The vertex cycle `verts` from each start, in each direction."""
    cycle = [tuple(v) for v in verts.tolist()]
    return {tuple(order[i:] + order[:i])
            for order in (cycle, cycle[::-1]) for i in range(len(order))}


class TestTraceContourSymmetry:
    """The traced cycle (`every=1`) commutes with the grid's symmetries, up
    to its start and its direction, wherever the largest component is
    unique (a tie goes to the first in scan order, which a map reorders)."""

    @staticmethod
    def blobs():
        rng = np.random.default_rng(34)
        images = []
        while len(images) < 60:
            height, width = (int(v) for v in rng.integers(2, 30, size=2))
            pixels = (rng.random((height, width))
                      < rng.uniform(0.3, 0.8)).astype(np.uint8)
            sizes = sorted(component_labels(pixels)[1].values())
            if sizes and sizes[-2:-1] != sizes[-1:]:
                images.append(BinaryImage(pixels))
        return images

    @pytest.mark.parametrize("symmetry", sorted(GRID_SYMMETRIES))
    def test_mapped_image_traces_the_mapped_cycle(self, symmetry):
        vertex_map, array_map = GRID_SYMMETRIES[symmetry]
        traced = 0
        for image in self.blobs():
            try:
                verts = trace_contour(image)
            except ValueError:     # fewer than 3 boundary pixels
                continue
            x, y = vertex_map(verts[:, 0], verts[:, 1], image.width, image.height)
            got = trace_contour(BinaryImage(np.ascontiguousarray(
                array_map(image.pixels))))
            assert tuple(map(tuple, got.tolist())) in cycle_rotations(
                np.stack([x, y], axis=1))
            traced += 1
        assert traced > 50


def test_orientation_map_validation():
    defined = np.ones((2, 2), bool)
    with pytest.raises(ValueError):
        OrientationMap(angles=np.full((2, 2), 4.0), defined=defined)
    # NaN fails every comparison: a test for out-of-range angles would let a
    # defined NaN through, and it would join every region it neighbours.
    for bad in (math.nan, math.inf, -math.inf, math.pi):
        angles = np.zeros((2, 2))
        angles[1, 0] = bad
        with pytest.raises(ValueError, match="defined angles"):
            OrientationMap(angles=angles, defined=defined)
        # An undefined pixel's angle is never read.
        assert OrientationMap(angles=angles, defined=angles == 0).defined.sum() == 3
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="magnitude must be finite"):
            OrientationMap(angles=np.zeros((2, 2)), defined=defined,
                           magnitude=np.full((2, 2), bad))
