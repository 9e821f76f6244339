"""Binary test-image synthesis, region rasterization, counts, and image I/O.

Pixel ``(row, col)`` has its center at coordinates ``(x, y) = (col, row)``;
polygon vertices use the ``(x, y)`` convention.  Images are immutable after
construction, so all operations here are safe to call concurrently.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .numeric import Fields, RegionCounts, rule

# The pinned generator of every seeded image draw (flip noise, synthetic
# shapes, isotropic orientation maps): PCG64 with explicit seeding keeps every
# experiment reproducible bit-for-bit.
def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True, eq=False)
class BinaryImage:
    """A height x width grid of {0, 1} pixels, stored row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise ValueError(f"binary image must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("binary image must contain at least one pixel")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        if arr.max(initial=0) > 1:
            raise ValueError("binary image pixels must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def n(self) -> int:
        return self.pixels.size

    @cached_property
    def count_ones(self) -> int:
        return int(np.count_nonzero(self.pixels))

    @cached_property
    def counts(self) -> RegionCounts:
        return RegionCounts(self.n, self.count_ones)


@dataclass(frozen=True)
class NoiseConfig:
    """Flip probability and seed for Bernoulli pixel noise.

    delta = 0 is allowed for noiseless synthesis; densities of 0.5 and above
    are excluded because flipping more than half the pixels just swaps the
    roles of foreground and background.
    """

    delta: float
    seed: int | np.random.SeedSequence = 0

    FIELDS = Fields(ValueError, delta=rule("real", ge=0, lt=0.5),
                    seed=rule("seed", ge=0))
    __post_init__ = FIELDS.check


class Square(NamedTuple("Square", [("row", int), ("col", int), ("side", int)])):
    """Axis-aligned square, a validated (row, col, side) tuple: top-left
    pixel (row, col) and side length."""

    __slots__ = ()

    FIELDS = Fields(ValueError, row=rule("count", ge=0), col=rule("count", ge=0),
                    side=rule("count", ge=1))

    def __new__(cls, row: int, col: int, side: int):
        self = tuple.__new__(cls, (row, col, side))
        Square.FIELDS.check(self)
        return self

    @classmethod
    def _make(cls, iterable):
        """Validated, so `_replace` checks its result too."""
        return cls(*iterable)

    @property
    def n1(self) -> int:
        return self.side * self.side

    def overlaps(self, other: "Square") -> bool:
        return not (self.row + self.side <= other.row
                    or other.row + other.side <= self.row
                    or self.col + self.side <= other.col
                    or other.col + other.side <= self.col)


@dataclass(frozen=True, eq=False)
class OrientationMap:
    """Per-pixel angles in [-pi, pi) with a defined/undefined flag.

    `magnitude` (optional, finite) orders region-growing seeds; synthetic maps
    without a gradient source may leave it None.
    """

    angles: np.ndarray
    defined: np.ndarray
    magnitude: np.ndarray | None = None

    def __post_init__(self):
        angles = np.ascontiguousarray(self.angles, dtype=np.float64)
        defined = np.ascontiguousarray(self.defined, dtype=bool)
        if angles.shape != defined.shape or angles.ndim != 2:
            raise ValueError("angles and defined must be matching 2-D arrays")
        angle = angles[defined]      # NaN fails both comparisons
        if not np.all((-math.pi <= angle) & (angle < math.pi)):
            raise ValueError("defined angles must lie in [-pi, pi)")
        angles.setflags(write=False)
        defined.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "defined", defined)
        if self.magnitude is not None:
            mag = np.ascontiguousarray(self.magnitude, dtype=np.float64)
            if mag.shape != angles.shape:
                raise ValueError("magnitude shape must match angles")
            if not np.isfinite(mag).all():
                raise ValueError("magnitude must be finite")
            mag.setflags(write=False)
            object.__setattr__(self, "magnitude", mag)

    @property
    def height(self) -> int:
        return self.angles.shape[0]

    @property
    def width(self) -> int:
        return self.angles.shape[1]


def flip_noise(image: BinaryImage, delta: float, seed) -> BinaryImage:
    """Flip each pixel independently with probability delta (seeded, exact).

    Accepts the full range delta in [0, 1]; experiment configs restrict
    themselves to [0, 0.5) via NoiseConfig, but the raw mechanism supports
    forced flips (delta = 1) as well.  The seed follows NoiseConfig's rule.
    """
    rule("real", ge=0, le=1).check("delta", delta)
    rule("seed", ge=0).check("seed", seed)
    flips = _rng(seed).random(image.pixels.shape) < delta
    return BinaryImage(image.pixels ^ flips)   # pixels are 0/1: XOR flips them


def synthesize_squares(layout, width: int, height: int,
                       cfg: NoiseConfig) -> BinaryImage:
    """Ground-truth image with 1s inside the union of squares, then noise.

    `layout` is any iterable of (row, col, side) triples, each checked as a
    `Square`; it may be empty (pure background sample).
    """
    truth = np.zeros((height, width), dtype=np.uint8)
    for row, col, side in layout:
        Square(row, col, side)
        if row + side > height or col + side > width:
            raise ValueError(f"square {(row, col, side)} does not fit in "
                             f"{width}x{height}")
        truth[row:row + side, col:col + side] = 1
    return flip_noise(BinaryImage(truth), cfg.delta, cfg.seed)


# Rasterizer tolerances.  Pixel-center rows within _ROW_EPS of an edge's
# y-range belong to it; a pixel center within _COL_EPS of an edge's crossing
# of its row lies on the edge; a polygon with less than _AREA_EPS of twice
# its signed area is degenerate.
_ROW_EPS = 1e-9
_COL_EPS = 1e-7
_AREA_EPS = 1e-12


def _shoelace(verts) -> np.ndarray:
    """Twice the signed area of each polygon in a (..., c, 2) vertex stack.

    Row-wise numpy sums, so a stack of polygons gets the same float for
    each polygon as that polygon alone.  The next vertices are the same
    values as `np.roll(verts, -1, axis=-2)`, joined at less cost.
    """
    nxt = np.concatenate((verts[..., 1:, :], verts[..., :1, :]), axis=-2)
    return (verts[..., 0] * nxt[..., 1] - verts[..., 1] * nxt[..., 0]).sum(axis=-1)


def zero_area(verts: np.ndarray) -> bool:
    """Is the (c, 2) polygon `verts` too thin for `rasterize_polygon`?"""
    return abs(float(_shoelace(verts))) < _AREA_EPS


def _cycle_marks(edges, width: int, height: int) -> tuple[list, dict]:
    """Even-odd parity and signed edge hits of a closed cycle of directed
    edges on a height x width grid of pixel centers, flat (row * width + col).

    `edges` yields ((x1, y1), (x2, y2), sign) for the edge (x1, y1) ->
    (x2, y2).  Returns the spans, half-open flat ranges [start, stop) that
    hold the pixels of odd parity, and the hits, the sum of the signs of the
    edges through each pixel center, where that sum is nonzero.

    An edge crosses the rows of its half-open y-range [min y, max y) and hits
    the pixel centers on its closed segment.  Pixel centers have integer y,
    so one walk over the edge's integer rows finds both.  One sort by (row, x)
    pairs consecutive crossings: a closed cycle crosses each row an even number
    of times, so no pair straddles two rows.  A pair (x_in, x_out) holds the
    columns floor(x_in) + 1 .. floor(x_out): a pixel has odd parity when an
    odd number of crossings lie left of its center (x < col).  An edge and its
    reverse cross the same rows, but their x can differ in the last bit: walk
    an edge in the direction its polygon runs.
    """
    crossings, hits = [], {}
    eps = _ROW_EPS
    for (x1, y1), (x2, y2), sign in edges:
        lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
        if hi + eps < 0 or lo - eps > height - 1:
            continue   # the edge reaches no row
        if y1 == y2:
            row = round(y1)
            if abs(y1 - row) < eps and 0 <= row < height:
                left = max(0, math.ceil(min(x1, x2) - eps))
                right = min(width - 1, math.floor(max(x1, x2) + eps))
                for cell in range(row * width + left, row * width + right + 1):
                    hits[cell] = hits.get(cell, 0) + sign
            continue
        for row in range(max(0, math.ceil(lo - eps)), min(height - 1, math.floor(hi + eps)) + 1):
            # Keep this operation order: boundary pixels depend on its rounding.
            x = x1 + (row - y1) * (x2 - x1) / (y2 - y1)
            if lo <= row < hi:
                crossings.append((row, x))
            col = round(x)
            if abs(x - col) < _COL_EPS and 0 <= col < width:
                cell = row * width + col
                hits[cell] = hits.get(cell, 0) + sign
    spans = []
    it = iter(sorted(crossings))
    for (row, x_in), (_, x_out) in zip(it, it):
        start, stop = max(0, math.floor(x_in) + 1), min(width, math.floor(x_out) + 1)
        if start < stop:           # empty when the pair lies off the image
            spans.append((row * width + start, row * width + stop))
    return spans, {cell: count for cell, count in hits.items() if count}


def _inside(parity, hits):
    """The even-odd rule with inclusive boundary: a pixel is in the region
    when its parity is odd or an edge passes through its center."""
    return (parity == 1) | (hits > 0)


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")   # parity byte XOR 1


class PolygonMarks:
    """The `_cycle_marks` of a closed polygon on a height x width grid, kept
    per pixel and indexed row * width + col: `parity` (a bytearray of 0 and
    1) and `hits` (an int array of the number of edges through the pixel
    center).

    Removing vertex i drops the edges v[i-1] -> v[i] and v[i] -> v[i+1] and
    adds the chord v[i-1] -> v[i+1], each walked as its polygon runs, so it
    changes the marks by those of the cycle of these three edges, signed -1,
    -1 and +1 (`removal`).  Parity adds modulo 2 and hits add, so `apply`
    makes such a change by XOR and add.
    """

    def __init__(self, vertices, width: int, height: int):
        verts = np.asarray(vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("polygon needs at least 3 (x, y) vertices")
        if not np.isfinite(verts).all():
            raise ValueError("polygon vertices must be finite")
        if zero_area(verts):
            raise ValueError("polygon is degenerate (zero area)")
        pts = verts.tolist()
        marks = spans, hits = _cycle_marks(
            ((a, b, 1) for a, b in zip(pts, pts[1:] + pts[:1])), width, height)
        if not spans and not hits:
            raise ValueError("polygon has an empty pixel footprint (degenerate)")
        self.width, self.height = width, height
        self.parity = bytearray(width * height)
        self.hits = array("i", [0]) * (width * height)
        self.apply(marks)

    def mask(self) -> np.ndarray:
        """The (height, width) bool mask of the pixels in the region."""
        parity = np.frombuffer(self.parity, dtype=np.uint8)
        hits = np.frombuffer(self.hits, dtype=np.intc)
        return _inside(parity, hits).reshape(self.height, self.width)

    def apply(self, change: tuple) -> None:
        """Add the `_cycle_marks` `change` to the marks."""
        spans, hits = change
        for start, stop in spans:
            self.parity[start:stop] = self.parity[start:stop].translate(_FLIP)
        for cell, count in hits.items():
            self.hits[cell] += count

    def removal(self, vertices: list, i: int, image: BinaryImage) -> tuple:
        """(dn, dk, pixels, change) for removing vertex i of the polygon with
        these marks, whose vertices are the [x, y] lists `vertices`: the
        change of the region's counts (n, k) on `image`, the pixels whose
        marks change, and the change itself, for `apply`.  The counts read
        the marks of `pixels` only."""
        a, b, d = vertices[i - 1], vertices[i], vertices[(i + 1) % len(vertices)]
        change = spans, delta = _cycle_marks(((a, b, -1), (b, d, -1), (a, d, 1)),
                                             self.width, self.height)
        flips = set()
        for start, stop in spans:
            flips.update(range(start, stop))
        pixels = flips | delta.keys()
        parity, hits = self.parity, self.hits
        ones = memoryview(image.pixels).cast("B")
        dn = dk = 0
        for cell in pixels:
            odd, count = parity[cell], hits[cell]
            was = _inside(odd, count)
            if was != _inside(odd ^ (cell in flips), count + delta.get(cell, 0)):
                step = -1 if was else 1
                dn += step
                dk += step * ones[cell]
        return dn, dk, pixels, change


def rasterize_polygon(vertices, width: int, height: int) -> np.ndarray:
    """Boolean mask of pixels whose centers fall inside the closed polygon.

    Even-odd scanline rule with inclusive boundary: pixel centers lying
    exactly on an edge or vertex belong to the region.  Raises on polygons
    with fewer than 3 vertices, non-finite vertices, zero area or an empty
    pixel footprint.
    """
    return PolygonMarks(vertices, width, height).mask()


def count_region(image: BinaryImage, mask: np.ndarray) -> RegionCounts:
    """Pixel/ones counts of the masked region of an image; `RegionCounts`
    rejects an empty mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != image.pixels.shape:
        raise ValueError(f"mask shape {mask.shape} does not match image "
                         f"{image.pixels.shape}")
    return RegionCounts(int(mask.sum()), int(image.pixels[mask].sum()))


DEFAULT_GRADIENT_THRESHOLD = 2.0  # gray levels; guards against quantization noise


def gradient_orientation(gray: np.ndarray,
                         tau: float = DEFAULT_GRADIENT_THRESHOLD) -> OrientationMap:
    """Gradient orientation of an 8-bit grayscale image via the 2x2 scheme.

    The value at (row, col) uses the four pixels of the 2x2 block anchored
    there, so the last row and column carry no gradient and are undefined,
    as are pixels whose gradient magnitude falls below tau.  tau follows
    LsdConfig's rule: a finite real >= 0.
    """
    rule("finite", ge=0).check("tau", tau)
    img = np.asarray(gray, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 2 or img.shape[1] < 2:
        raise ValueError("grayscale image must be at least 2x2")
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    a = img[:-1, :-1]
    b = img[:-1, 1:]
    c = img[1:, :-1]
    d = img[1:, 1:]
    gx[:-1, :-1] = 0.5 * (b - a + d - c)
    gy[:-1, :-1] = 0.5 * (c - a + d - b)
    magnitude = np.hypot(gx, gy)
    defined = magnitude > tau
    defined[-1, :] = False
    defined[:, -1] = False
    angles = np.arctan2(gy, gx)
    angles[angles >= math.pi] = -math.pi   # fold the +pi corner case
    angles[~defined] = 0.0
    return OrientationMap(angles=angles, defined=defined, magnitude=magnitude)


# ---------------------------------------------------------------------------
# File formats: PGM images and plain-text polygon vertex lists.
# ---------------------------------------------------------------------------

def write_pgm(path, gray: np.ndarray) -> None:
    """Write an 8-bit grayscale array as binary PGM (P5, maxval 255)."""
    arr = np.ascontiguousarray(gray, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError("PGM output needs a 2-D array")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())


# Magic, width, height and maxval, with whitespace and `#` comments between
# the tokens, then the single whitespace byte that ends the header.
_PGM_HEADER = re.compile(rb"(P[25])" + rb"(?:\s|#[^\n]*)+(\d+)" * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Read a PGM image, binary (P5) or ASCII (P2), as 8-bit gray levels.

    Samples above maxval are rejected.  Each sample s reads as
    (s * 255 + maxval // 2) // maxval: a maxval below 255 is rescaled to the
    full range, and at maxval 255 the formula is the identity.
    """
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"not an 8-bit P2/P5 PGM header in {path}")
    width, height, maxval = (int(v) for v in header.groups()[1:])
    if not 0 < maxval <= 255:
        raise ValueError(f"unsupported PGM maxval {maxval} in {path}")
    n = width * height
    body = data[header.end():]
    if header[1] == b"P5":
        samples = np.frombuffer(body[:n], dtype=np.uint8)
    else:
        try:
            samples = np.array([int(v) for v in body.split()[:n]], dtype=np.int64)
        except ValueError:
            raise ValueError(f"non-integer PGM sample in {path}") from None
    if samples.size != n:
        raise ValueError(f"truncated PGM pixel data in {path}")
    if np.any((samples < 0) | (samples > maxval)):
        raise ValueError(f"PGM sample outside 0..{maxval} in {path}")
    samples = (samples.astype(np.int64) * 255 + maxval // 2) // maxval
    return samples.astype(np.uint8).reshape(height, width)


def binary_to_gray(image: BinaryImage) -> np.ndarray:
    """Binary image as {0, 255} gray levels for PGM storage."""
    return (image.pixels * np.uint8(255)).astype(np.uint8)


def gray_to_binary(gray: np.ndarray) -> BinaryImage:
    """Threshold gray levels at mid-scale back into a binary image."""
    return BinaryImage((np.asarray(gray) >= 128).astype(np.uint8))


def write_binary_pgm(path, image: BinaryImage) -> None:
    write_pgm(path, binary_to_gray(image))


def read_binary_pgm(path) -> BinaryImage:
    return gray_to_binary(read_pgm(path))


def write_polygon_file(path, vertices) -> None:
    """One 'x y' vertex per line; the polygon closes implicitly."""
    verts = np.asarray(vertices, dtype=np.float64)
    lines = [f"{x:.6g} {y:.6g}" for x, y in verts]
    Path(path).write_text("\n".join(lines) + "\n")


def _rows(path):
    """Yield (`path:line`, text) for each line of a text file that holds more
    than a `#` comment, with the comment and outer whitespace cut off."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield f"{path}:{lineno}", line


def read_polygon_file(path) -> np.ndarray:
    verts = []
    for where, line in _rows(path):
        try:
            x, y = (float(v) for v in line.split())
        except ValueError:
            raise ValueError(f"{where}: expected 'x y', got {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{where}: vertex ({x}, {y}) is not finite")
        verts.append((x, y))
    if len(verts) < 3:
        raise ValueError(f"polygon file {path} holds fewer than 3 vertices")
    return np.asarray(verts, dtype=np.float64)


def trace_contour(image: BinaryImage, every: int = 1) -> np.ndarray:
    """Boundary polygon of the largest foreground component (plumbing).

    Moore-neighbor tracing over the largest 4-connected component of ones;
    returns every `every`-th boundary pixel as (x, y) vertices.  Intended
    only to bootstrap an initial polygon from a thresholded image.  Both
    passes run on a flat copy of the image with a one-pixel background
    border, so every neighbour is a fixed flat offset with no bounds check.
    """
    rule("count", ge=1).check("every", every)
    width = image.width + 2                     # bordered grid
    grid = bytearray(np.pad(image.pixels, 1))   # 1: foreground not yet labelled
    best = []       # the first largest 4-connected component in scan order
    for seed in np.flatnonzero(grid).tolist():
        region = [seed] if grid[seed] else []     # empty once labelled
        grid[seed] = 0
        for flat in region:        # breadth-first: appended pixels come later
            for nb in (flat - width, flat + width, flat - 1, flat + 1):
                if grid[nb]:
                    grid[nb] = 0
                    region.append(nb)
        if len(region) > len(best):
            best = region
    if not best:
        raise ValueError("image has no foreground pixels to trace")
    for flat in best:              # labelling cleared the grid: mark the target
        grid[flat] = 1
    # The Moore ring clockwise from west, twice over so the scan needs no modulo.
    ring = [-1, -width - 1, -width, -width + 1, 1, width + 1, width, width - 1] * 2
    start = current = best[0]      # topmost, then leftmost
    boundary = [start]
    back = 0
    while len(boundary) <= 4 * len(best) + 8:   # safety net against runaway walks
        for d in range(back, back + 8):
            if grid[current + ring[d]]:
                break
        else:
            break                  # isolated pixel
        current += ring[d]
        if current == start:
            break
        boundary.append(current)
        back = (d + 5) % 8         # back up two steps of the scan
    rows, cols = np.divmod(np.array(boundary[::every]), width)
    verts = np.stack([cols - 1, rows - 1], axis=1).astype(np.float64)
    if len(verts) < 3:
        raise ValueError("traced contour has fewer than 3 vertices")
    return verts
