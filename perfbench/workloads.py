"""Benchmark workloads: seeded inputs, the public calls each one times, and
the checks on every output.

A workload seed builds one *pass*: a fixed list of calls into
`mdlnfa.experiments`.  The benchmark repeats that pass until its time is up,
so every pass must give the same outputs.  `check` turns one call's output
into `(units, digest)` groups, one per unit of work (one per equivalence
part, whose unit is a configuration); the digest is None where an invariant
broke.  `perfbench/reference/<workload>.json` keeps the digests of pass 0 for
the seeds it lists.

Calls go through the `experiments` module attribute at call time, so the
tracer's rebinding applies to them.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from mdlnfa import experiments
from mdlnfa.equivalence import PartSpec, check_equivalence, xi_count_ones
from mdlnfa.lsd import LsdConfig
from mdlnfa.polygon import polygon_scores

SINGLE_SEEDS_PER_CELL = 2   # 19 sides x 24 noise rates x 2 = 912 trials
MULTI_SEEDS_PER_CELL = 5    # 24 noise rates x 5 = 120 trials
SHAPES_PER_PASS = 3         # seed 0 gives criterion 8's shapes 0-2
MAPS_PER_PASS = 1           # isotropic 256x256 H0 map, ~2 s


@dataclass(frozen=True)
class Call:
    units: int
    run: Callable        # run(out_dir) -> output
    check: Callable      # check(output, out_dir) -> [(units, digest or None)]


@dataclass(frozen=True)
class Workload:
    build: Callable      # build(seed) -> list[Call], one pass
    warm_up: Callable    # warm_up() runs each timed code path once, small


def _digest(*parts) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=4).hexdigest()


def _files_digest(out_dir: Path, names) -> str:
    h = hashlib.blake2b(digest_size=8)
    for name in names:
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# squares: single-square sweep on 100x100, multi-square noise sweep on 256x256
# ---------------------------------------------------------------------------

def _choice_ok(row, log2_eps: float) -> bool:
    """The chosen labels of a multi-sweep row follow from its scores."""
    labels = experiments.HYPOTHESIS_LABELS
    mdl, nfa = row[5:9], row[9:13]
    passing = [i for i in range(4) if nfa[i] <= log2_eps]
    nfa_label = (labels[min(passing, key=nfa.__getitem__)] if passing
                 else "background")
    return row[13] == labels[mdl.index(min(mdl))] and row[14] == nfa_label


def _squares(seed: int) -> list[Call]:
    single = experiments.SingleSweepConfig(
        seeds_per_cell=SINGLE_SEEDS_PER_CELL, base_seed=seed)
    multi = experiments.MultiSweepConfig(
        seeds_per_cell=MULTI_SEEDS_PER_CELL, base_seed=seed)
    log2_eps = math.log2(single.epsilon)

    def check_single(result, out_dir):
        files = _files_digest(out_dir, ("sweep_single.csv",
                                        "sweep_single_rates.csv"))
        return [(1, _digest(row, files)
                 if row[5] == (row[3] < 0.0) and row[6] == (row[4] <= log2_eps)
                 else None) for row in result.rows]

    def check_multi(cells, out_dir):
        files = _files_digest(out_dir, ("sweep_multi_noise.csv",))
        return [(1, _digest(row, files) if _choice_ok(row, log2_eps) else None)
                for cell in cells for row in cell.rows]

    return [
        Call(len(single.sides) * len(single.deltas) * single.seeds_per_cell,
             lambda out: experiments.run_sweep_single(single, out),
             check_single),
        Call(len(multi.deltas) * multi.seeds_per_cell,
             lambda out: experiments.run_sweep_multi(multi, "noise", out),
             check_multi),
    ]


def _warm_squares():
    experiments.run_sweep_single(experiments.SingleSweepConfig(
        sides=(5,), deltas=(0.1,), seeds_per_cell=1))
    experiments.run_sweep_multi(experiments.MultiSweepConfig(
        deltas=(0.1,), seeds_per_cell=1), "noise")


# ---------------------------------------------------------------------------
# bss: backward stepwise selection on synthetic shapes, both criteria
# ---------------------------------------------------------------------------

def _check_bss(initial, criterion, trajectories, out_dir):
    steps = trajectories[criterion].steps
    ok = (steps[0].vertex_count == initial.c
          and trajectories[criterion].chosen_index == len(steps) - 1
          and all(b.score < a.score and b.vertex_count == a.vertex_count - 1
                  for a, b in zip(steps, steps[1:])))
    files = _files_digest(out_dir, (f"bss_{criterion}.csv",
                                    f"chosen_{criterion}.txt"))
    path = [(s.vertex_count, s.score, s.polygon.vertices.tobytes())
            for s in steps]
    return [(1, _digest(path, files) if ok else None)]


def _bss(seed: int) -> list[Call]:
    calls = []
    for j in range(SHAPES_PER_PASS):
        spec = experiments.ShapeSpec(seed=SHAPES_PER_PASS * seed + j)
        image, initial = experiments.make_shape_instance(spec)
        for criterion in ("mdl", "nfa"):
            calls.append(Call(
                1, lambda out, image=image, initial=initial, c=criterion:
                experiments.run_polygon(image, initial, out, criteria=(c,)),
                partial(_check_bss, initial, criterion)))
    return calls


def _warm_bss():
    image, initial = experiments.make_shape_instance(experiments.ShapeSpec())
    polygon_scores(image, initial.without_vertex(0))


# ---------------------------------------------------------------------------
# lsd_h0: region growing and validation on isotropic orientation maps
# ---------------------------------------------------------------------------

@contextmanager
def _capture(name: str, into: list):
    """Keep what `experiments.<name>` returns while the block runs."""
    inner = getattr(experiments, name)

    def keep(*args, **kwargs):
        result = inner(*args, **kwargs)
        into.append(result)
        return result

    setattr(experiments, name, keep)
    try:
        yield
    finally:
        setattr(experiments, name, inner)


def _lsd_h0(seed: int) -> list[Call]:
    cfg = LsdConfig()
    log2_eps = math.log2(cfg.epsilon)

    def run(out_dir):
        grown, scored = [], []
        with _capture("region_grow_candidates", grown), \
                _capture("score_candidates", scored):
            counts = experiments.h0_false_alarm_counts(
                cfg, n_maps=MAPS_PER_PASS, base_seed=seed, workers=1)
        return counts, grown, scored

    def check(output, out_dir):
        groups = []
        for count, candidates, detections in zip(*output):
            ok = (count == sum(d.nfa_keep for d in detections)
                  and all(d.nfa_keep == (d.score.log2_nfa <= log2_eps)
                          and d.mdl_keep == (d.score.mdl_bits < 0.0)
                          for d in detections))
            rects = [(c.ax, c.ay, c.bx, c.by, c.width) for c in candidates]
            scores = [(d.counts, d.score, d.nfa_keep, d.mdl_keep)
                      for d in detections]
            groups.append((1, _digest(count, rects, scores) if ok else None))
        return groups

    return [Call(MAPS_PER_PASS, run, check)]


def _warm_lsd_h0():
    experiments.h0_false_alarm_counts(LsdConfig(), n_maps=1, width=32,
                                      height=32, workers=1)


# ---------------------------------------------------------------------------
# equiv: the exhaustive MDL/NFA equivalence run (no random input)
# ---------------------------------------------------------------------------

def _equiv(seed: int) -> list[Call]:
    units = sum(part.states(alphabet)
                for alphabet, parts in experiments.default_equivalence_runs()
                for part in parts)

    def check(reports, out_dir):
        files = _files_digest(out_dir, ("equivalence_report.txt",))
        return [(part.n_configs, _digest(report.alphabet_size, part, files)
                 if part.mismatches == 0 else None)
                for report in reports for part in report.parts]

    return [Call(units, lambda out: experiments.run_equivalence(out), check)]


def _warm_equiv():
    check_equivalence(2, [PartSpec(length=4, eta=2, xi=xi_count_ones)])


WORKLOADS = {
    "squares": Workload(_squares, _warm_squares),
    "bss": Workload(_bss, _warm_bss),
    "lsd_h0": Workload(_lsd_h0, _warm_lsd_h0),
    "equiv": Workload(_equiv, _warm_equiv),
}
