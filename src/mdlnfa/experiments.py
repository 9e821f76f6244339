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
from .imaging import BinaryImage, NoiseConfig, flip_noise, rasterize_polygon, synthesize_squares
from .lsd import (
    AlignmentCounts,
    LsdConfig,
    isotropic_orientation_map,
    mdl_rect,
    nfa_rect,
    region_grow_candidates,
    score_candidates,
)
from .polygon import BssTrajectory, PolygonHypothesis, bss_simplify
from .square_detect import (
    Square,
    four_square_layout,
    mdl_score_single,
    nfa_score_single,
    select_hypothesis,
)

LOG10_2 = math.log10(2.0)


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


def _resolve_workers(workers: int) -> int:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


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

    def __post_init__(self):
        if not self.sides or not self.deltas:
            raise ConfigError("sides and deltas grids must be non-empty")
        if self.seeds_per_cell < 1:
            raise ConfigError("seeds_per_cell must be >= 1")
        if any(not 0.0 < d < 0.5 for d in self.deltas):
            raise ConfigError("all deltas must lie in (0, 0.5)")
        if any(s < 1 or s > min(self.width, self.height) for s in self.sides):
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
    log2_eps = math.log2(cfg.epsilon)
    out = []
    for trial in range(cfg.seeds_per_cell):
        seed = _trial_seed(cfg.base_seed, side_idx, delta_idx, trial)
        image = synthesize_squares([square], cfg.width, cfg.height,
                                   NoiseConfig(delta, seed=seed))
        mdl = mdl_score_single(image, square)
        nfa = nfa_score_single(image, square)
        out.append((side, delta, trial, mdl, nfa,
                    mdl < 0.0, nfa <= log2_eps))
    return out


def _single_cell_star(args) -> list[tuple]:
    return _single_cell(*args)


def run_sweep_single(cfg: SingleSweepConfig,
                     out_dir: Path | None = None) -> SingleSweepResult:
    """Score the true square location per (side, delta, seed) cell."""
    tasks = [(cfg, si, di)
             for si in range(len(cfg.sides)) for di in range(len(cfg.deltas))]
    workers = _resolve_workers(cfg.workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_single_cell_star, tasks, chunksize=4))
    else:
        chunks = [_single_cell_star(t) for t in tasks]
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
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "sweep_single.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["side", "delta", "seed", "mdl_bits", "log10_nfa",
                             "mdl_detect", "nfa_detect"])
            for side, delta, trial, mdl, nfa, mdl_d, nfa_d in rows:
                writer.writerow([side, delta, trial, f"{mdl:.6f}",
                                 f"{nfa * LOG10_2:.6f}", int(mdl_d), int(nfa_d)])
        with open(out_dir / "sweep_single_rates.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["side", "delta", "mdl_rate", "nfa_rate",
                             "agree_rate"])
            for cell in cells:
                writer.writerow([cell.side, cell.delta, cell.mdl_rate,
                                 cell.nfa_rate, cell.agree_rate])
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

    def __post_init__(self):
        if self.seeds_per_cell < 1:
            raise ConfigError("seeds_per_cell must be >= 1")
        if any(not 0.0 < d < 0.5 for d in self.deltas):
            raise ConfigError("all deltas must lie in (0, 0.5)")
        if not 0.0 < self.margin_delta < 0.5:
            raise ConfigError("margin_delta must lie in (0, 0.5)")
        for axis, values in (("noise", self.deltas), ("margin", self.margins)):
            for i in range(len(values)):
                _cell_layout(self, axis, i)


@dataclass(frozen=True)
class MultiCell:
    axis: str
    value: float           # delta (noise axis) or margin (margin axis)
    chosen_mdl: tuple      # per-seed labels
    chosen_nfa: tuple
    majority_mdl: str
    majority_nfa: str
    rows: tuple


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
    chosen_mdl, chosen_nfa, rows = [], [], []
    for trial in range(cfg.seeds_per_cell):
        seed = _trial_seed(cfg.base_seed, axis_tag, value_idx, trial)
        image = synthesize_squares(truth, cfg.width, cfg.height,
                                   NoiseConfig(delta, seed=seed))
        sel_mdl = select_hypothesis(image, hyps, "mdl", cfg.epsilon)
        sel_nfa = select_hypothesis(image, hyps, "nfa", cfg.epsilon)
        lab_mdl = HYPOTHESIS_LABELS[hyps.index(sel_mdl.chosen)]
        if sel_nfa.chosen in hyps:
            lab_nfa = HYPOTHESIS_LABELS[hyps.index(sel_nfa.chosen)]
        else:
            lab_nfa = "background"   # nothing passed epsilon
        chosen_mdl.append(lab_mdl)
        chosen_nfa.append(lab_nfa)
        scores = [item[1] for item in sel_mdl.table]
        rows.append((axis, value, delta, margin, trial,
                     *(s.mdl_bits for s in scores),
                     *(s.log2_nfa for s in scores),
                     lab_mdl, lab_nfa))
    return MultiCell(axis=axis, value=value, chosen_mdl=tuple(chosen_mdl),
                     chosen_nfa=tuple(chosen_nfa),
                     majority_mdl=_majority(chosen_mdl),
                     majority_nfa=_majority(chosen_nfa), rows=tuple(rows))


def _multi_cell_star(args) -> MultiCell:
    return _multi_cell(*args)


def run_sweep_multi(cfg: MultiSweepConfig, axis: str,
                    out_dir: Path | None = None) -> tuple[MultiCell, ...]:
    """Evaluate the four standard hypotheses along the noise or margin axis."""
    if axis not in ("noise", "margin"):
        raise ConfigError(f"axis must be 'noise' or 'margin', got {axis!r}")
    values = cfg.deltas if axis == "noise" else cfg.margins
    tasks = [(cfg, axis, i) for i in range(len(values))]
    workers = _resolve_workers(cfg.workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = tuple(pool.map(_multi_cell_star, tasks))
    else:
        cells = tuple(_multi_cell_star(t) for t in tasks)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"sweep_multi_{axis}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            header = (["axis", "value", "delta", "margin", "seed"]
                      + [f"mdl_{lab}" for lab in HYPOTHESIS_LABELS]
                      + [f"log2nfa_{lab}" for lab in HYPOTHESIS_LABELS]
                      + ["chosen_mdl", "chosen_nfa"])
            writer.writerow(header)
            for cell in cells:
                for row in cell.rows:
                    writer.writerow(row)
    return cells


def threshold_along(cells, criterion: str, label: str = "four"):
    """Last axis value whose majority choice is `label` (None if never)."""
    chosen = None
    for cell in cells:
        majority = cell.majority_mdl if criterion == "mdl" else cell.majority_nfa
        if majority == label:
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


def make_shape_instance(spec: ShapeSpec) -> tuple[BinaryImage, PolygonHypothesis]:
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    c = spec.size / 2.0
    angles = np.linspace(0.0, 2.0 * math.pi, spec.n_vertices, endpoint=False)
    radius = np.full(spec.n_vertices, spec.base_radius)
    for order, amp in spec.harmonics:
        radius = radius + amp * np.sin(order * angles + rng.uniform(0, 2 * math.pi))
    truth_verts = np.column_stack([c + radius * np.cos(angles),
                                   c + radius * np.sin(angles)])
    truth = rasterize_polygon(truth_verts, spec.size, spec.size)
    image = flip_noise(BinaryImage(truth.astype(np.uint8)), spec.delta,
                       seed=spec.seed + 1)
    jittered = radius + rng.uniform(-spec.jitter, spec.jitter, spec.n_vertices)
    initial = PolygonHypothesis(np.column_stack([c + jittered * np.cos(angles),
                                                 c + jittered * np.sin(angles)]))
    return image, initial


def run_polygon(image: BinaryImage, initial: PolygonHypothesis,
                out_dir: Path | None = None,
                criteria=("mdl", "nfa")) -> dict[str, BssTrajectory]:
    """Simplify the polygon under each criterion; emit trajectories and the
    chosen polygons.

    Each trajectory CSV carries both scores for every visited polygon (the
    driving criterion determines the path, the other is evaluated on it), so
    the two score-vs-vertex-count curves can be plotted from either file.
    """
    from .imaging import write_polygon_file
    from .polygon import polygon_scores

    trajectories = {}
    for criterion in criteria:
        traj = bss_simplify(image, initial, criterion)
        trajectories[criterion] = traj
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(out_dir / f"bss_{criterion}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["step", "vertex_count", "mdl_bits",
                                 "log10_nfa"])
                for step_idx, step in enumerate(traj.steps):
                    both = polygon_scores(image, step.polygon)
                    writer.writerow([step_idx, step.vertex_count,
                                     f"{both.mdl_bits:.6f}",
                                     f"{both.log2_nfa * LOG10_2:.6f}"])
            write_polygon_file(out_dir / f"chosen_{criterion}.txt",
                               traj.chosen.polygon.vertices)
    return trajectories


def render_polygon_overlay(image: BinaryImage,
                           poly: PolygonHypothesis) -> np.ndarray:
    """Gray rendering of the image with the polygon edges painted white."""
    canvas = (image.pixels * np.uint8(128)).astype(np.uint8)
    verts = poly.vertices
    for i in range(len(verts)):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % len(verts)]
        steps = int(max(abs(x2 - x1), abs(y2 - y1)) * 2) + 1
        for t in np.linspace(0.0, 1.0, steps):
            col = int(round(x1 + t * (x2 - x1)))
            row = int(round(y1 + t * (y2 - y1)))
            if 0 <= row < image.height and 0 <= col < image.width:
                canvas[row, col] = 255
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
                       max_n_r: int = 60,
                       out_dir: Path | None = None) -> list[BoundaryRow]:
    """Minimal aligned count detected by each criterion, per rectangle size."""
    rows = []
    for n_r in range(4, max_n_r + 1):
        min_nfa = min_mdl = None
        for k_r in range(0, n_r + 1):
            counts = AlignmentCounts(n_r=n_r, k_r=k_r)
            if min_nfa is None and nfa_rect(n_image, counts, cfg) <= \
                    math.log2(cfg.epsilon):
                min_nfa = k_r
            if min_mdl is None and mdl_rect(n_image, counts, cfg) < 0.0:
                min_mdl = k_r
            if min_nfa is not None and min_mdl is not None:
                break
        rows.append(BoundaryRow(n_r=n_r, min_k_nfa=min_nfa, min_k_mdl=min_mdl))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "lsd_boundary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n_r", "min_k_nfa", "min_k_mdl"])
            for row in rows:
                writer.writerow([row.n_r,
                                 "" if row.min_k_nfa is None else row.min_k_nfa,
                                 "" if row.min_k_mdl is None else row.min_k_mdl])
    return rows


def _h0_map_detections(args) -> int:
    cfg, width, height, seed = args
    omap = isotropic_orientation_map(width, height, seed)
    candidates = region_grow_candidates(omap, cfg)
    detections = score_candidates(omap, candidates, cfg)
    return sum(d.nfa_keep for d in detections)


def h0_false_alarm_counts(cfg: LsdConfig, n_maps: int = 100, width: int = 256,
                          height: int = 256, base_seed: int = 0,
                          workers: int = 1) -> list[int]:
    """NFA detection counts over isotropic random orientation maps."""
    tasks = [(cfg, width, height, _trial_seed(base_seed, 0xFA, i))
             for i in range(n_maps)]
    workers = _resolve_workers(workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_h0_map_detections, tasks, chunksize=2))
    return [_h0_map_detections(t) for t in tasks]


# ---------------------------------------------------------------------------
# Equivalence run
# ---------------------------------------------------------------------------

def default_equivalence_runs() -> list[tuple[int, list[PartSpec]]]:
    """The standard exhaustive family: alphabets {2, 3}, lengths {4, 6, 8},
    three ordering functions, uniform and non-uniform risk weights."""
    runs = []
    for alphabet in (2, 3):
        uniform = []
        for length in (4, 6, 8):
            for name, xi in XI_FAMILIES.items():
                uniform.append(PartSpec(length=length, eta=Fraction(9), xi=xi,
                                        name=f"{name}_{length}"))
        runs.append((alphabet, uniform))
        weights = [Fraction(2), Fraction(4), Fraction(8), Fraction(16),
                   Fraction(32), Fraction(64), Fraction(128), Fraction(256),
                   Fraction(256)]
        nonuniform = []
        for (length, (name, xi)), eta in zip(
                ((l, item) for l in (4, 6, 8) for item in XI_FAMILIES.items()),
                weights):
            nonuniform.append(PartSpec(length=length, eta=eta, xi=xi,
                                       name=f"{name}_{length}_w{eta}"))
        runs.append((alphabet, nonuniform))
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
