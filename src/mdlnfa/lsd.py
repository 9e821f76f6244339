"""Line-segment candidates on orientation maps, validated by NFA and MDL.

Angles are compared as orientations, modulo pi with wrap-around, so the
comparison is symmetric and invariant to flipping every angle by pi.  Under
an isotropic map the probability that a pixel aligns with a fixed direction
within tolerance rho is then theta = 2 rho / pi; that theta is what both the
binomial-tail NFA and the per-pixel code-length saving use.  The default
tolerance rho = pi/16 gives theta = 0.125, the usual line-segment operating
point.

Candidate generation is a deliberately plain greedy region grower: it exists
to hand an identical candidate set to both criteria, which is where the
comparison lives.  Candidates can also be supplied from a file and scored
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import OrientationMap, gradient_orientation
from .numeric import Score, binomial_tail_log, code_length

DEFAULT_RHO = math.pi / 16.0


@dataclass(frozen=True)
class LsdConfig:
    """Tolerance and test-count bookkeeping for rectangle validation.

    theta = 2*rho/pi is the isotropic alignment probability for the modulo-pi
    angle metric; rho < pi/2 keeps it below 1, where aligned angles are
    cheaper to code.  gamma counts how many tolerance values are tested (each
    one multiplies the test family).
    """

    rho: float = DEFAULT_RHO
    gamma: int = 1
    epsilon: float = 1.0
    tau: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.rho < math.pi / 2.0:
            raise ValueError(f"rho must lie in (0, pi/2), got {self.rho}")
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def theta(self) -> float:
        return 2.0 * self.rho / math.pi

    @classmethod
    def from_theta(cls, theta: float, **kwargs) -> "LsdConfig":
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        return cls(rho=theta * math.pi / 2.0, **kwargs)


@dataclass(frozen=True)
class RectangleCandidate:
    """Rectangle given by the endpoints of its center line and its width."""

    ax: float
    ay: float
    bx: float
    by: float
    width: float

    def __post_init__(self):
        if self.width < 1.0:
            raise ValueError(f"rectangle width must be >= 1, got {self.width}")
        if self.ax == self.bx and self.ay == self.by:
            raise ValueError("rectangle endpoints must differ")

    @property
    def length(self) -> float:
        return math.hypot(self.bx - self.ax, self.by - self.ay)

    @property
    def angle(self) -> float:
        """Direction of the center line."""
        return math.atan2(self.by - self.ay, self.bx - self.ax)

    @property
    def normal_angle(self) -> float:
        """Normal direction lambda of the center line, in [-pi, pi)."""
        lam = self.angle + math.pi / 2.0
        return (lam + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class AlignmentCounts:
    """Points in a rectangle: total, aligned, and undefined-gradient."""

    n_r: int
    k_r: int
    u_r: int = 0

    def __post_init__(self):
        if not 0 <= self.k_r <= self.n_r - self.u_r or self.u_r < 0:
            raise ValueError(f"need 0 <= k_r <= n_r - u_r, got {self}")


def orientation_distance(a, b):
    """Distance between orientations modulo pi, in [0, pi/2]."""
    d = np.mod(np.asarray(a) - np.asarray(b), math.pi)
    return np.minimum(d, math.pi - d)


def count_aligned(rect: RectangleCandidate, omap: OrientationMap,
                  rho: float) -> AlignmentCounts:
    """Count pixels whose centers fall inside the rectangle and whose
    orientation lies within rho of the rectangle normal (modulo pi)."""
    height, width = omap.height, omap.width
    cx = 0.5 * (rect.ax + rect.bx)
    cy = 0.5 * (rect.ay + rect.by)
    ux, uy = math.cos(rect.angle), math.sin(rect.angle)
    half_len = rect.length / 2.0
    half_wid = rect.width / 2.0
    reach = half_len + half_wid + 1.0
    col_lo = max(0, math.floor(cx - reach))
    col_hi = min(width - 1, math.ceil(cx + reach))
    row_lo = max(0, math.floor(cy - reach))
    row_hi = min(height - 1, math.ceil(cy + reach))
    if col_hi < col_lo or row_hi < row_lo:
        raise ValueError("rectangle lies fully outside the image")
    cols, rows = np.meshgrid(np.arange(col_lo, col_hi + 1),
                             np.arange(row_lo, row_hi + 1))
    dx = cols - cx
    dy = rows - cy
    along = dx * ux + dy * uy
    across = -dx * uy + dy * ux
    inside = (np.abs(along) <= half_len + 1e-9) & (np.abs(across) <= half_wid + 1e-9)
    if not inside.any():
        raise ValueError("rectangle covers no pixel centers inside the image")
    sub_defined = omap.defined[rows[inside], cols[inside]]
    sub_angles = omap.angles[rows[inside], cols[inside]]
    n_r = int(inside.sum())
    u_r = int((~sub_defined).sum())
    aligned = sub_defined & (orientation_distance(sub_angles, rect.normal_angle)
                             <= rho + 1e-12)
    return AlignmentCounts(n_r=n_r, k_r=int(aligned.sum()), u_r=u_r)


def nfa_rect(n_image: int, counts: AlignmentCounts, cfg: LsdConfig) -> float:
    """log2 NFA = 5/2 log2 n + log2 gamma + log2 B(n_r, k_r, theta)."""
    return (2.5 * math.log2(n_image) + math.log2(cfg.gamma)
            + binomial_tail_log(counts.n_r, counts.k_r, cfg.theta))


def mdl_rect(n_image: int, counts: AlignmentCounts, cfg: LsdConfig) -> float:
    """Code-length delta of describing the rectangle's aligned points apart.

    5/2 log2 n for the geometry, an enumerative code selecting which points
    align, and k_r log2 theta of savings because aligned angles live in a
    fraction theta of the angle alphabet.  The per-pixel background cost
    (24 bits under the 2^24-value gradient alphabet) cancels and never
    appears.  Negative means the rectangle pays for itself.
    """
    return (code_length(2.5 * math.log2(n_image), [(counts.n_r, counts.k_r)])
            + counts.k_r * math.log2(cfg.theta))


def fit_rectangle(coords: np.ndarray, weights=None) -> RectangleCandidate:
    """Fit a rectangle to region pixels: weighted centroid, principal axis of
    the weighted scatter, extents covering the pixel centers."""
    coords = np.asarray(coords, dtype=np.float64)  # (m, 2) as (col=x, row=y)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must be (m, 2) pixel centers")
    if len(coords) < 2:
        raise ValueError("cannot fit a rectangle to fewer than 2 pixels")
    if weights is None:
        w = np.ones(len(coords))
    else:
        w = np.asarray(weights, dtype=np.float64)
    w_sum = w.sum()
    center = (coords * w[:, None]).sum(axis=0) / w_sum
    centered = coords - center
    scatter = (centered * w[:, None]).T @ centered / w_sum
    eigvals, eigvecs = np.linalg.eigh(scatter)
    if eigvals[1] <= 0.0:
        raise ValueError("degenerate region: zero scatter")
    axis = eigvecs[:, 1]           # principal direction
    along = centered @ axis
    across = centered @ np.array([-axis[1], axis[0]])
    a = center + axis * along.min()
    b = center + axis * along.max()
    width = max(1.0, across.max() - across.min() + 1.0)
    if along.max() == along.min():
        b = center + axis * (along.max() + 0.5)  # guard zero-length line
    return RectangleCandidate(ax=float(a[0]), ay=float(a[1]),
                              bx=float(b[0]), by=float(b[1]), width=float(width))


_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1),
              (0, 1), (1, -1), (1, 0), (1, 1))


def region_grow_candidates(omap: OrientationMap, cfg: LsdConfig,
                           min_region_size: int = 5) -> list[RectangleCandidate]:
    """Group mutually aligned neighbor pixels and fit rectangles to them.

    Seeds are visited in decreasing gradient-magnitude order (scan order when
    the map carries no magnitudes).  A pixel joins a region when its angle is
    within rho of the region's running mean orientation (the modulo-pi
    distance of `orientation_distance`); every pixel belongs to at most one
    region, and regions grow breadth-first.

    The loop runs on Python scalars: pixels are flat indices r*width + c into
    memoryviews of the map's contiguous arrays, so no numpy scalar is made
    per neighbor.
    """
    height, width = omap.height, omap.width
    defined = memoryview(omap.defined.ravel())
    angles = memoryview(omap.angles.ravel())
    if omap.magnitude is not None:
        order = memoryview(np.argsort(-omap.magnitude, axis=None, kind="stable"))
    else:
        order = range(height * width)
    rho = cfg.rho
    pi = math.pi
    cos, sin, atan2 = math.cos, math.sin, math.atan2
    used = bytearray(height * width)
    offsets = [dr * width + dc for dr, dc in _NEIGHBORS]
    last_row, last_col = height - 1, width - 1
    min_size = max(2, min_region_size)
    candidates = []
    for seed in order:
        if used[seed] or not defined[seed]:
            continue
        used[seed] = 1
        region = [seed]
        mean_angle = angles[seed]
        sx = cos(2.0 * mean_angle)
        sy = sin(2.0 * mean_angle)
        for flat in region:        # breadth-first: appended pixels come later
            r, c = divmod(flat, width)
            if 0 < r < last_row and 0 < c < last_col:
                neighbors = [flat + off for off in offsets]
            else:
                neighbors = [(r + dr) * width + c + dc for dr, dc in _NEIGHBORS
                             if 0 <= r + dr < height and 0 <= c + dc < width]
            for nb in neighbors:
                if used[nb] or not defined[nb]:
                    continue
                a = angles[nb]
                d = (a - mean_angle) % pi
                if d > rho and pi - d > rho:      # min(d, pi - d) > rho
                    continue
                used[nb] = 1
                region.append(nb)
                sx += cos(2.0 * a)
                sy += sin(2.0 * a)
                mean_angle = 0.5 * atan2(sy, sx)
        if len(region) < min_size:
            continue
        rows, cols = np.divmod(np.array(region), width)
        coords = np.column_stack((cols, rows)).astype(np.float64)
        if omap.magnitude is not None:
            weights = omap.magnitude.ravel()[region]
        else:
            weights = None
        try:
            candidates.append(fit_rectangle(coords, weights))
        except ValueError:
            continue
    return candidates


@dataclass(frozen=True)
class SegmentDetection:
    candidate: RectangleCandidate
    counts: AlignmentCounts
    score: Score
    nfa_keep: bool
    mdl_keep: bool


def score_candidates(omap: OrientationMap, candidates,
                     cfg: LsdConfig) -> list[SegmentDetection]:
    """Score an identical candidate set under both criteria."""
    n_image = omap.height * omap.width
    out = []
    for cand in candidates:
        try:
            counts = count_aligned(cand, omap, cfg.rho)
        except ValueError:
            continue
        score = Score(mdl_bits=mdl_rect(n_image, counts, cfg),
                      log2_nfa=nfa_rect(n_image, counts, cfg))
        out.append(SegmentDetection(
            candidate=cand,
            counts=counts,
            score=score,
            nfa_keep=score.nfa_detects(cfg.epsilon),
            mdl_keep=score.mdl_detects(),
        ))
    return out


def detect_segments(gray: np.ndarray, cfg: LsdConfig,
                    criterion: str = "both",
                    candidates=None) -> list[SegmentDetection]:
    """Full pipeline: orientation map, candidate growth, dual validation.

    `criterion` filters the returned detections ('mdl', 'nfa', or 'both' for
    every scored candidate with its keep flags).  Supplying `candidates`
    bypasses region growing for criterion-only comparisons.
    """
    if criterion not in ("mdl", "nfa", "both"):
        raise ValueError(f"criterion must be 'mdl', 'nfa' or 'both', "
                         f"got {criterion!r}")
    omap = gradient_orientation(gray, tau=cfg.tau)
    if candidates is None:
        candidates = region_grow_candidates(omap, cfg)
    detections = score_candidates(omap, candidates, cfg)
    if criterion == "mdl":
        return [d for d in detections if d.mdl_keep]
    if criterion == "nfa":
        return [d for d in detections if d.nfa_keep]
    return detections


def isotropic_orientation_map(width: int, height: int, seed) -> OrientationMap:
    """Uniform random orientations, all defined: the H0 background model."""
    rng = np.random.Generator(np.random.PCG64(seed))
    angles = rng.uniform(-math.pi, math.pi, size=(height, width))
    angles[angles >= math.pi] = -math.pi
    return OrientationMap(angles=angles, defined=np.ones((height, width), bool))


def write_candidates_file(path, candidates) -> None:
    """One 'ax ay bx by w' rectangle per line."""
    lines = [f"{c.ax:.4f} {c.ay:.4f} {c.bx:.4f} {c.by:.4f} {c.width:.4f}"
             for c in candidates]
    Path(path).write_text("\n".join(lines) + "\n")


def read_candidates_file(path) -> list[RectangleCandidate]:
    cands = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        ax, ay, bx, by, w = (float(v) for v in line.split()[:5])
        cands.append(RectangleCandidate(ax=ax, ay=ay, bx=bx, by=by, width=w))
    return cands


def write_segments_file(path, detections) -> None:
    """Detections with scores and keep flags, one segment per line."""
    lines = ["# ax ay bx by w log10_nfa mdl_bits nfa_keep mdl_keep"]
    for d in detections:
        c = d.candidate
        log10_nfa = d.score.log2_nfa * math.log10(2.0)
        lines.append(f"{c.ax:.4f} {c.ay:.4f} {c.bx:.4f} {c.by:.4f} "
                     f"{c.width:.4f} {log10_nfa:.4f} {d.score.mdl_bits:.4f} "
                     f"{int(d.nfa_keep)} {int(d.mdl_keep)}")
    Path(path).write_text("\n".join(lines) + "\n")
