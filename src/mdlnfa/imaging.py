"""Binary test-image synthesis, region rasterization, counts, and image I/O.

Pixel ``(row, col)`` has its center at coordinates ``(x, y) = (col, row)``;
polygon vertices use the ``(x, y)`` convention.  Images are immutable after
construction, so all operations here are safe to call concurrently.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .numeric import DomainError, RegionCounts

# Pinned noise generator: PCG64 with explicit integer seeding keeps every
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
        return int(self.pixels.sum())

    @property
    def counts(self) -> RegionCounts:
        return RegionCounts(n=self.n, k=self.count_ones)


@dataclass(frozen=True)
class NoiseConfig:
    """Flip probability and seed for Bernoulli pixel noise.

    delta = 0 is allowed for noiseless synthesis; densities of 0.5 and above
    are excluded because flipping more than half the pixels just swaps the
    roles of foreground and background.
    """

    delta: float
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if not 0.0 <= self.delta < 0.5:
            raise ValueError(f"delta must lie in [0, 0.5), got {self.delta}")


@dataclass(frozen=True, eq=False)
class OrientationMap:
    """Per-pixel angles in [-pi, pi) with a defined/undefined flag.

    `magnitude` (optional) orders region-growing seeds; synthetic maps
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
        if np.any((angles[defined] < -math.pi) | (angles[defined] >= math.pi)):
            raise ValueError("defined angles must lie in [-pi, pi)")
        angles.setflags(write=False)
        defined.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "defined", defined)
        if self.magnitude is not None:
            mag = np.ascontiguousarray(self.magnitude, dtype=np.float64)
            if mag.shape != angles.shape:
                raise ValueError("magnitude shape must match angles")
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
    forced flips (delta = 1) as well.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    flips = _rng(seed).random(image.pixels.shape) < delta
    return BinaryImage(np.where(flips, 1 - image.pixels, image.pixels))


def _square_bounds(square) -> tuple[int, int, int]:
    try:
        return int(square.row), int(square.col), int(square.side)
    except AttributeError:
        row, col, side = square
        return int(row), int(col), int(side)


def synthesize_squares(layout, width: int, height: int,
                       cfg: NoiseConfig) -> BinaryImage:
    """Ground-truth image with 1s inside the union of squares, then noise.

    `layout` is any iterable of (row, col, side) triples or objects carrying
    those attributes; it may be empty (pure background sample).
    """
    truth = np.zeros((height, width), dtype=np.uint8)
    for square in layout:
        row, col, side = _square_bounds(square)
        if side < 1 or row < 0 or col < 0 or row + side > height or col + side > width:
            raise ValueError(f"square {(row, col, side)} does not fit in "
                             f"{width}x{height}")
        truth[row:row + side, col:col + side] = 1
    image = BinaryImage(truth)
    if cfg.delta == 0.0:
        return image
    return flip_noise(image, cfg.delta, cfg.seed)


def rasterize_polygon(vertices, width: int, height: int) -> np.ndarray:
    """Boolean mask of pixels whose centers fall inside the closed polygon.

    Even-odd scanline rule with inclusive boundary: pixel centers lying
    exactly on an edge or vertex belong to the region.  Raises on polygons
    with fewer than 3 vertices or an empty pixel footprint.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("polygon needs at least 3 (x, y) vertices")
    nxt = np.roll(verts, -1, axis=0)
    shoelace = float((verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]).sum())
    if abs(shoelace) < 1e-12:
        raise ValueError("polygon is degenerate (zero area)")
    mask = np.zeros((height, width), dtype=bool)
    pts = verts.tolist()
    eps = 1e-9
    crossings: dict[int, list[float]] = {}
    # One pass over the edges.  Pixel centers have integer y, so walking the
    # integer rows of each closed edge finds every center lying on it; the
    # rows of its half-open y-range also give the even-odd crossings.
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        if y1 == y2:
            row = round(y1)
            if abs(y1 - row) < eps and 0 <= row < height:
                left = max(0, math.ceil(min(x1, x2) - eps))
                right = min(width - 1, math.floor(max(x1, x2) + eps))
                if right >= left:
                    mask[row, left:right + 1] = True
            continue
        lo, hi = min(y1, y2), max(y1, y2)
        for row in range(max(0, math.ceil(lo - eps)), min(height - 1, math.floor(hi + eps)) + 1):
            # Keep this operation order: boundary pixels depend on its rounding.
            x = x1 + (row - y1) * (x2 - x1) / (y2 - y1)
            if lo <= row < hi:
                crossings.setdefault(row, []).append(x)
            col = round(x)
            if abs(x - col) < 1e-7 and 0 <= col < width:
                mask[row, col] = True
    for row, xs in crossings.items():
        xs.sort()
        for x_in, x_out in zip(xs[::2], xs[1::2]):
            left = max(0, math.floor(x_in) + 1)
            right = min(width - 1, math.ceil(x_out) - 1)
            if right >= left:
                mask[row, left:right + 1] = True

    if not mask.any():
        raise ValueError("polygon has an empty pixel footprint (degenerate)")
    return mask


def count_region(image: BinaryImage, mask: np.ndarray) -> RegionCounts:
    """Pixel/ones counts of the masked region of an image."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != image.pixels.shape:
        raise ValueError(f"mask shape {mask.shape} does not match image "
                         f"{image.pixels.shape}")
    n = int(mask.sum())
    if n == 0:
        raise DomainError("region mask is empty")
    k = int(image.pixels[mask].sum())
    return RegionCounts(n=n, k=k)


DEFAULT_GRADIENT_THRESHOLD = 2.0  # gray levels; guards against quantization noise


def gradient_orientation(gray: np.ndarray,
                         tau: float = DEFAULT_GRADIENT_THRESHOLD) -> OrientationMap:
    """Gradient orientation of an 8-bit grayscale image via the 2x2 scheme.

    The value at (row, col) uses the four pixels of the 2x2 block anchored
    there, so the last row and column carry no gradient and are undefined,
    as are pixels whose gradient magnitude falls below tau.
    """
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


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit PGM image; binary (P5) and ASCII (P2) are accepted."""
    data = Path(path).read_bytes()

    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"truncated PGM header in {path}")
        tokens.append(data[start:pos])
    magic, width, height, maxval = (tokens[0], int(tokens[1]), int(tokens[2]),
                                    int(tokens[3]))
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        raw = data[pos:pos + width * height]
        if len(raw) != width * height:
            raise ValueError(f"truncated PGM pixel data in {path}")
        return np.frombuffer(raw, dtype=np.uint8).reshape(height, width).copy()
    if magic == b"P2":
        values = data[pos:].split()
        if len(values) < width * height:
            raise ValueError(f"truncated PGM pixel data in {path}")
        arr = np.array([int(v) for v in values[:width * height]], dtype=np.uint8)
        return arr.reshape(height, width)
    raise ValueError(f"not an 8-bit PGM file: magic {magic!r}")


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


def read_polygon_file(path) -> np.ndarray:
    verts = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            x, y = (float(v) for v in line.split())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'x y', got {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{path}:{lineno}: vertex ({x}, {y}) is not finite")
        verts.append((x, y))
    if len(verts) < 3:
        raise ValueError(f"polygon file {path} holds fewer than 3 vertices")
    return np.asarray(verts, dtype=np.float64)


def trace_contour(image: BinaryImage, every: int = 1) -> np.ndarray:
    """Boundary polygon of the largest foreground component (plumbing).

    Moore-neighbor tracing over the largest 4-connected component of ones;
    returns every `every`-th boundary pixel as (x, y) vertices.  Intended
    only to bootstrap an initial polygon from a thresholded image.
    """
    pixels = image.pixels
    height, width = pixels.shape
    labels = np.zeros_like(pixels, dtype=np.int32)
    sizes = {}
    next_label = 0
    for r0 in range(height):
        for c0 in range(width):
            if pixels[r0, c0] and not labels[r0, c0]:
                next_label += 1
                queue = deque([(r0, c0)])
                labels[r0, c0] = next_label
                size = 0
                while queue:
                    r, c = queue.popleft()
                    size += 1
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                        if 0 <= rr < height and 0 <= cc < width and \
                                pixels[rr, cc] and not labels[rr, cc]:
                            labels[rr, cc] = next_label
                            queue.append((rr, cc))
                sizes[next_label] = size
    if not sizes:
        raise ValueError("image has no foreground pixels to trace")
    target = max(sizes, key=sizes.get)
    inside = labels == target

    rows, cols = np.nonzero(inside)
    start = (int(rows[0]), int(cols[0]))  # topmost, then leftmost

    # Moore neighbourhood in clockwise order starting from west.
    moore = [(0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1)]

    def is_fg(r, c):
        return 0 <= r < height and 0 <= c < width and inside[r, c]

    boundary = [start]
    prev_dir = 0
    current = start
    while True:
        found = False
        for step in range(8):
            d = (prev_dir + step) % 8
            dr, dc = moore[d]
            candidate = (current[0] + dr, current[1] + dc)
            if is_fg(*candidate):
                boundary.append(candidate)
                current = candidate
                prev_dir = (d + 5) % 8   # back up two steps of the scan
                found = True
                break
        if not found:      # isolated pixel
            break
        if current == start and len(boundary) > 2:
            boundary.pop()
            break
        if len(boundary) > 4 * inside.sum() + 8:
            break          # safety net against pathological loops
    verts = np.array([(c, r) for r, c in boundary], dtype=np.float64)
    verts = verts[::max(1, int(every))]
    if len(verts) < 3:
        raise ValueError("traced contour has fewer than 3 vertices")
    return verts
