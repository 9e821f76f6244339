"""Seeded experiment drivers binding the scoring modules together.

Every sweep derives one child seed per (cell, trial) from a base seed via
SeedSequence, so results are reproducible bit-for-bit and independent of how
work is distributed across processes.  CSV rows always carry the full cell
coordinates and the trial seed.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .equivalence import XI_FAMILIES, EquivalenceReport, PartSpec, check_equivalence
from .imaging import (BinaryImage, NoiseConfig, _rng, flip_noise, rasterize_polygon,
                      synthesize_squares, write_polygon_file)
from .lsd import (
    AlignmentCounts,
    LsdConfig,
    isotropic_orientation_map,
    rect_counts,
    region_grow_candidates,
    score_candidates,
)
from .numeric import CRITERION, EPSILON, LOG10_2, Fields, l0_code_length, rule
from .polygon import BssTrajectory, PolygonHypothesis, bss_simplify, polygon_counts
from .square_detect import (
    Square,
    four_square_layout,
    select_hypothesis,
    single_counts,
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def config_from_dict(cls, data: dict):
    """Build a config dataclass from a dict, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys for {cls.__name__}: "
                          f"{sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _trial_seed(base_seed: int, *coords: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(base_seed),) + tuple(int(c) for c in coords))


# The fields both sweep configs share.
_SWEEP = dict(width=rule("count", ge=1), height=rule("count", ge=1),
              deltas=rule("real", gt=0, lt=0.5, grid=True),
              seeds_per_cell=rule("count", ge=1), base_seed=rule("count", ge=0),
              epsilon=EPSILON, workers=rule("count", ge=1))


def _map(fn, tasks, workers: int, chunksize: int = 1) -> list:
    """[fn(*task) for task in tasks], in order; spread over worker
    processes when more than one worker, CPU and task are available.
    Callers check that workers is an integer >= 1."""
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=chunksize))


def _write_csv(out_dir, name: str, header, rows) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Single-square sweep (detection rates on a side x noise grid)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleSweepConfig:
    width: int = 100
    height: int = 100
    sides: tuple = tuple(range(5, 96, 5))
    deltas: tuple = tuple(round(0.02 * i, 2) for i in range(1, 25))
    seeds_per_cell: int = 100
    base_seed: int = 0
    epsilon: float = 1.0
    workers: int = 1

    FIELDS = Fields(ConfigError, **_SWEEP, sides=rule("count", ge=1, grid=True))

    def __post_init__(self):
        SingleSweepConfig.FIELDS.check(self)
        if not self.sides or not self.deltas:
            raise ConfigError("sides and deltas grids must be non-empty")
        if any(s > min(self.width, self.height) for s in self.sides):
            raise ConfigError("sides must fit inside the image")
        if any(s * s == self.width * self.height for s in self.sides):
            raise ConfigError("sides must leave background pixels: a square "
                              "covering the whole image has no MDL score")


@dataclass(frozen=True)
class SweepCell:
    side: int
    delta: float
    mdl_rate: float
    nfa_rate: float
    agree_rate: float


@dataclass(frozen=True)
class SingleSweepResult:
    config: SingleSweepConfig
    rows: tuple          # (side, delta, seed_idx, mdl_bits, log2_nfa, mdl_d, nfa_d)
    cells: tuple[SweepCell, ...]


def _single_cell(cfg: SingleSweepConfig, side_idx: int,
                 delta_idx: int) -> list[tuple]:
    side = cfg.sides[side_idx]
    delta = cfg.deltas[delta_idx]
    row0 = (cfg.height - side) // 2
    col0 = (cfg.width - side) // 2
    square = Square(row0, col0, side)
    out = []
    for trial in range(cfg.seeds_per_cell):
        seed = _trial_seed(cfg.base_seed, side_idx, delta_idx, trial)
        image = synthesize_squares([square], cfg.width, cfg.height,
                                   NoiseConfig(delta, seed=seed))
        score = single_counts(image, square).score()
        out.append((side, delta, trial, score.mdl_bits, score.log2_nfa,
                    score.mdl_detects(), score.nfa_detects(cfg.epsilon)))
    return out


def run_sweep_single(cfg: SingleSweepConfig,
                     out_dir: Path | None = None) -> SingleSweepResult:
    """Score the true square location per (side, delta, seed) cell."""
    tasks = [(cfg, si, di)
             for si in range(len(cfg.sides)) for di in range(len(cfg.deltas))]
    chunks = _map(_single_cell, tasks, cfg.workers, chunksize=4)
    rows = [row for chunk in chunks for row in chunk]
    cells = []
    for chunk in chunks:
        side, delta = chunk[0][0], chunk[0][1]
        mdl_rate = sum(r[5] for r in chunk) / len(chunk)
        nfa_rate = sum(r[6] for r in chunk) / len(chunk)
        agree = sum(r[5] == r[6] for r in chunk) / len(chunk)
        cells.append(SweepCell(side=side, delta=delta, mdl_rate=mdl_rate,
                               nfa_rate=nfa_rate, agree_rate=agree))
    result = SingleSweepResult(config=cfg, rows=tuple(rows), cells=tuple(cells))
    if out_dir is not None:
        _write_csv(out_dir, "sweep_single.csv",
                   ["side", "delta", "seed", "mdl_bits", "log10_nfa",
                    "mdl_detect", "nfa_detect"],
                   ([side, delta, trial, f"{mdl:.6f}", f"{nfa * LOG10_2:.6f}",
                     int(mdl_d), int(nfa_d)]
                    for side, delta, trial, mdl, nfa, mdl_d, nfa_d in rows))
        _write_csv(out_dir, "sweep_single_rates.csv",
                   ["side", "delta", "mdl_rate", "nfa_rate", "agree_rate"],
                   ([c.side, c.delta, c.mdl_rate, c.nfa_rate, c.agree_rate]
                    for c in cells))
    return result


# ---------------------------------------------------------------------------
# Multi-square model selection sweeps (noise axis and margin axis)
# ---------------------------------------------------------------------------

HYPOTHESIS_LABELS = ("background", "single", "four", "large")


@dataclass(frozen=True)
class MultiSweepConfig:
    width: int = 256
    height: int = 256
    noise_extent: int = 70        # four 15x15 squares, margin 40
    noise_margin: int = 40
    deltas: tuple = tuple(round(0.02 * i, 2) for i in range(1, 25))
    margin_extent: int = 26       # margin sweep keeps the array extent fixed
    margins: tuple = tuple(range(0, 25, 2))
    margin_delta: float = 0.2
    seeds_per_cell: int = 20
    base_seed: int = 0
    epsilon: float = 1.0
    workers: int = 1

    FIELDS = Fields(ConfigError, **_SWEEP, noise_extent=rule("count", ge=1),
                    noise_margin=rule("count", ge=0), margin_extent=rule("count", ge=1),
                    margins=rule("count", ge=0, grid=True),
                    margin_delta=rule("real", gt=0, lt=0.5))

    def __post_init__(self):
        MultiSweepConfig.FIELDS.check(self)
        for axis, values in (("noise", self.deltas), ("margin", self.margins)):
            for i in range(len(values)):
                _cell_layout(self, axis, i)


@dataclass(frozen=True)
class MultiCell:
    axis: str
    value: float           # delta (noise axis) or margin (margin axis)
    majority_mdl: str
    majority_nfa: str
    rows: tuple            # per seed: scores, then the MDL and NFA labels


def _majority(labels) -> str:
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    return max(sorted(counts), key=counts.get)


def _cell_layout(cfg: MultiSweepConfig, axis: str, value_idx: int):
    """Noise rate, margin and the four hypotheses of one sweep cell.

    Raises ConfigError when the layout does not fit the image or leaves no
    background around the large square, so configs are checked with the
    same geometry the sweep uses.
    """
    if axis == "noise":
        delta, extent, margin = cfg.deltas[value_idx], cfg.noise_extent, cfg.noise_margin
    else:
        delta, extent, margin = cfg.margin_delta, cfg.margin_extent, cfg.margins[value_idx]
    where = (f"{axis} layout (extent {extent}, margin {margin}) on "
             f"{cfg.width}x{cfg.height}")
    try:
        hyps = four_square_layout(extent=extent, margin=margin,
                                  width=cfg.width, height=cfg.height)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if extent * extent == cfg.width * cfg.height:
        raise ConfigError(f"{where}: the large square leaves no background")
    return delta, margin, hyps


def _multi_cell(cfg: MultiSweepConfig, axis: str, value_idx: int) -> MultiCell:
    delta, margin, hyps = _cell_layout(cfg, axis, value_idx)
    value = delta if axis == "noise" else margin
    truth = hyps[2].squares       # the four small squares are the ground truth
    axis_tag = {"noise": 1, "margin": 2}[axis]
    rows = []
    for trial in range(cfg.seeds_per_cell):
        seed = _trial_seed(cfg.base_seed, axis_tag, value_idx, trial)
        image = synthesize_squares(truth, cfg.width, cfg.height,
                                   NoiseConfig(delta, seed=seed))
        sel = select_hypothesis(image, hyps, cfg.epsilon)
        scores = [item[1] for item in sel.table]
        rows.append((axis, value, delta, margin, trial,
                     *(s.mdl_bits for s in scores),
                     *(s.log2_nfa for s in scores),
                     HYPOTHESIS_LABELS[hyps.index(sel.mdl)],
                     HYPOTHESIS_LABELS[hyps.index(sel.nfa)]))
    return MultiCell(axis=axis, value=value, majority_mdl=_majority(r[-2] for r in rows),
                     majority_nfa=_majority(r[-1] for r in rows), rows=tuple(rows))


def run_sweep_multi(cfg: MultiSweepConfig, axis: str,
                    out_dir: Path | None = None) -> tuple[MultiCell, ...]:
    """Evaluate the four standard hypotheses along the noise or margin axis."""
    rule("choice", "noise", "margin").check("axis", axis, ConfigError)
    values = cfg.deltas if axis == "noise" else cfg.margins
    tasks = [(cfg, axis, i) for i in range(len(values))]
    cells = tuple(_map(_multi_cell, tasks, cfg.workers))
    if out_dir is not None:
        _write_csv(out_dir, f"sweep_multi_{axis}.csv",
                   ["axis", "value", "delta", "margin", "seed"]
                   + [f"mdl_{lab}" for lab in HYPOTHESIS_LABELS]
                   + [f"log2nfa_{lab}" for lab in HYPOTHESIS_LABELS]
                   + ["chosen_mdl", "chosen_nfa"],
                   (row for cell in cells for row in cell.rows))
    return cells


def threshold_along(cells, criterion: str, labels=("four",)):
    """Last axis value whose majority choice under `criterion`, 'mdl' or
    'nfa', is one of `labels` (None if never)."""
    CRITERION.check("criterion", criterion)
    chosen = None
    for cell in cells:
        if getattr(cell, f"majority_{criterion}") in labels:
            chosen = cell.value
    return chosen


# ---------------------------------------------------------------------------
# Polygon simplification runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeSpec:
    """Synthetic noisy blob: smooth radial shape plus a dense jittered
    boundary polygon standing in for an edge-detector output."""

    seed: int = 0
    size: int = 128
    n_vertices: int = 60
    base_radius: float = 38.0
    harmonics: tuple = ((2, 6.0), (3, 4.0))
    jitter: float = 1.0
    delta: float = 0.15

    FIELDS = Fields(ConfigError, seed=rule("count", ge=0), size=rule("count", ge=1),
                    n_vertices=rule("count", ge=3), base_radius=rule("float", gt=0),
                    harmonics=rule("pair", grid=True), jitter=rule("float", ge=0),
                    delta=rule("real", ge=0, lt=0.5))
    __post_init__ = FIELDS.check


def make_shape_instance(spec: ShapeSpec) -> tuple[BinaryImage, PolygonHypothesis]:
    """The noisy image of the shape and its jittered initial polygon; a
    ValueError if either polygon leaves the image."""
    rng = _rng(spec.seed)
    c = spec.size / 2.0
    angles = np.linspace(0.0, 2.0 * math.pi, spec.n_vertices, endpoint=False)

    def polygon(name, radius):
        verts = np.column_stack([c + radius * np.cos(angles),
                                 c + radius * np.sin(angles)])
        if not ((verts >= 0.0) & (verts <= spec.size - 1)).all():
            raise ValueError(f"the {name} polygon has a vertex outside "
                             f"[0, {spec.size - 1}]: lower base_radius, "
                             f"harmonics or jitter, or raise size")
        return verts

    radius = np.full(spec.n_vertices, spec.base_radius)
    for order, amp in spec.harmonics:
        radius = radius + amp * np.sin(order * angles + rng.uniform(0, 2 * math.pi))
    truth = rasterize_polygon(polygon("truth", radius), spec.size, spec.size)
    image = flip_noise(BinaryImage(truth.astype(np.uint8)), spec.delta,
                       seed=spec.seed + 1)
    jittered = radius + rng.uniform(-spec.jitter, spec.jitter, spec.n_vertices)
    return image, PolygonHypothesis(polygon("initial", jittered))


def run_polygon(image: BinaryImage, initial: PolygonHypothesis,
                out_dir: Path | None = None,
                criteria=("mdl", "nfa")) -> dict[str, BssTrajectory]:
    """Simplify the polygon under each criterion; emit trajectories and the
    chosen polygons.

    Each trajectory CSV carries both scores for every visited polygon (the
    driving criterion determines the path, the other is evaluated on it), so
    the two score-vs-vertex-count curves can be plotted from either file.
    The driving criterion's column is the step's score (less L0 for MDL,
    the same float as `polygon_counts(..., relative=True).mdl_bits()`); only
    the other column is scored from the step's counts.
    """
    trajectories = {}
    l0 = l0_code_length(image.counts)
    for criterion in criteria:
        traj = bss_simplify(image, initial, criterion)
        trajectories[criterion] = traj
        if out_dir is not None:
            rows = []
            for i, step in enumerate(traj.steps):
                counts = polygon_counts(image, step.vertex_count, step.inside,
                                        relative=True)
                mdl, log2_nfa = ((step.score - l0, counts.log2_nfa())
                                 if criterion == "mdl" else
                                 (counts.mdl_bits(), step.score))
                rows.append([i, step.vertex_count, f"{mdl:.6f}",
                             f"{log2_nfa * LOG10_2:.6f}"])
            _write_csv(out_dir, f"bss_{criterion}.csv",
                       ["step", "vertex_count", "mdl_bits", "log10_nfa"], rows)
            write_polygon_file(Path(out_dir) / f"chosen_{criterion}.txt",
                               traj.chosen.polygon.vertices)
    return trajectories


def render_polygon_overlay(image: BinaryImage,
                           poly: PolygonHypothesis) -> np.ndarray:
    """Gray rendering of the image with the polygon edges painted white."""
    canvas = (image.pixels * np.uint8(128)).astype(np.uint8)
    verts = poly.vertices
    for (x1, y1), (x2, y2) in zip(verts, np.roll(verts, -1, axis=0)):
        t = np.linspace(0.0, 1.0, int(max(abs(x2 - x1), abs(y2 - y1)) * 2) + 1)
        cols = np.round(x1 + t * (x2 - x1)).astype(np.int64)
        rows = np.round(y1 + t * (y2 - y1)).astype(np.int64)
        on = (rows >= 0) & (rows < image.height) & (cols >= 0) & (cols < image.width)
        canvas[rows[on], cols[on]] = 255
    return canvas


# ---------------------------------------------------------------------------
# Line-segment runs: detection boundary table and H0 false-alarm control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryRow:
    n_r: int
    min_k_nfa: int | None
    min_k_mdl: int | None


def lsd_boundary_table(cfg: LsdConfig, n_image: int = 512 * 512,
                       out_dir: Path | None = None) -> list[BoundaryRow]:
    """Minimal aligned count detected by each criterion, per rectangle size
    4..60."""
    rule("count", ge=1).check("n_image", n_image, ConfigError)
    rows = []
    for n_r in range(4, 61):
        min_nfa = min_mdl = None
        for k_r in range(0, n_r + 1):
            counts = AlignmentCounts(n_r=n_r, k_r=k_r)
            score = rect_counts(n_image, counts, cfg).score()
            if min_nfa is None and score.nfa_detects(cfg.epsilon):
                min_nfa = k_r
            if min_mdl is None and score.mdl_detects():
                min_mdl = k_r
            if min_nfa is not None and min_mdl is not None:
                break
        rows.append(BoundaryRow(n_r=n_r, min_k_nfa=min_nfa, min_k_mdl=min_mdl))
    if out_dir is not None:
        # csv writes None, "not detected at any k_r", as an empty field.
        _write_csv(out_dir, "lsd_boundary.csv", ["n_r", "min_k_nfa", "min_k_mdl"],
                   ([row.n_r, row.min_k_nfa, row.min_k_mdl] for row in rows))
    return rows


def _h0_map_detections(cfg: LsdConfig, width: int, height: int, seed) -> int:
    omap = isotropic_orientation_map(width, height, seed)
    candidates = region_grow_candidates(omap, cfg)
    detections = score_candidates(omap, candidates, cfg)
    return sum(d.nfa_keep for d in detections)


def h0_false_alarm_counts(cfg: LsdConfig, n_maps: int = 100, width: int = 256,
                          height: int = 256, base_seed: int = 0,
                          workers: int = 1) -> list[int]:
    """NFA detection counts over isotropic random orientation maps."""
    rule("count", ge=0).check("n_maps", n_maps, ConfigError)
    for name, value in (("width", width), ("height", height), ("workers", workers)):
        rule("count", ge=1).check(name, value, ConfigError)
    tasks = [(cfg, width, height, _trial_seed(base_seed, 0xFA, i))
             for i in range(n_maps)]
    return _map(_h0_map_detections, tasks, workers, chunksize=2)


# ---------------------------------------------------------------------------
# Equivalence run
# ---------------------------------------------------------------------------

def default_equivalence_runs() -> list[tuple[int, list[PartSpec]]]:
    """The standard exhaustive family: alphabets {2, 3}, lengths {4, 6, 8},
    three ordering functions, uniform and non-uniform risk weights."""
    families = [(length, name, xi)
                for length in (4, 6, 8) for name, xi in XI_FAMILIES.items()]
    weights = [Fraction(2 ** i) for i in range(1, 9)] + [Fraction(256)]
    runs = []
    for alphabet in (2, 3):
        runs.append((alphabet, [PartSpec(length=length, eta=Fraction(9), xi=xi,
                                         name=f"{name}_{length}")
                                for length, name, xi in families]))
        runs.append((alphabet, [PartSpec(length=length, eta=eta, xi=xi,
                                         name=f"{name}_{length}_w{eta}")
                                for (length, name, xi), eta in zip(families, weights)]))
    return runs


def run_equivalence(out_dir: Path | None = None) -> list[EquivalenceReport]:
    reports = []
    for alphabet, parts in default_equivalence_runs():
        reports.append(check_equivalence(alphabet, parts))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        text = "\n\n".join(r.format() for r in reports)
        (out_dir / "equivalence_report.txt").write_text(text + "\n")
    return reports
