"""Tests for the experiment drivers and the command-line interface."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mdlnfa.cli import EXIT_CONFIG, EXIT_OK, build_parser, main
from mdlnfa.experiments import (
    HYPOTHESIS_LABELS,
    ConfigError,
    MultiSweepConfig,
    ShapeSpec,
    SingleSweepConfig,
    config_from_dict,
    default_equivalence_runs,
    h0_false_alarm_counts,
    lsd_boundary_table,
    make_shape_instance,
    run_equivalence,
    run_polygon,
    run_sweep_multi,
    run_sweep_single,
    threshold_along,
)
from mdlnfa.lsd import LsdConfig
from mdlnfa.numeric import DomainError, meaningful
from mdlnfa.square_detect import pick_hypothesis
from oracles import pgm_bytes

TINY_SINGLE = SingleSweepConfig(sides=(10, 30), deltas=(0.1, 0.3),
                                seeds_per_cell=4)


class TestConfigs:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(SingleSweepConfig, {"side_lengths": [5]})

    def test_validation(self):
        with pytest.raises(ConfigError):
            SingleSweepConfig(deltas=(0.6,))
        with pytest.raises(ConfigError):
            SingleSweepConfig(sides=())
        with pytest.raises(ConfigError):
            SingleSweepConfig(seeds_per_cell=0)
        with pytest.raises(ConfigError):
            MultiSweepConfig(margin_delta=0.7)
        for epsilon in (0.0, -1.0, math.nan, True, "1"):
            with pytest.raises(ConfigError, match="epsilon"):
                SingleSweepConfig(epsilon=epsilon)
            with pytest.raises(ConfigError, match="epsilon"):
                MultiSweepConfig(epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_every_epsilon_check_keeps_its_error(self, epsilon, tmp_path, capsys):
        # One rule (`numeric.EPSILON`); each caller raises its own type.
        message = f"epsilon must be a finite real number > 0, got {epsilon!r}"
        checks = [(DomainError, lambda: meaningful(-5.0, epsilon)),
                  (ValueError, lambda: pick_hypothesis([], "nfa", epsilon)),
                  (ValueError, lambda: LsdConfig(epsilon=epsilon)),
                  (ConfigError, lambda: SingleSweepConfig(epsilon=epsilon))]
        for error, check in checks:
            with pytest.raises(ValueError) as caught:
                check()
            assert type(caught.value) is error and str(caught.value) == message
        assert main(["polygon", f"--epsilon={epsilon}", "--out",
                     str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("error,refuse", [
        (DomainError, lambda: meaningful(-5.0, math.inf)),
        (ValueError, lambda: pick_hypothesis([], "nfa", math.inf)),
        (ValueError, lambda: LsdConfig(epsilon=math.inf)),
        (ConfigError, lambda: SingleSweepConfig(epsilon=math.inf)),
        (ConfigError, lambda: MultiSweepConfig(epsilon=math.inf)),
    ], ids=["meaningful", "pick_hypothesis", "LsdConfig", "SingleSweepConfig",
            "MultiSweepConfig"])
    def test_infinite_epsilon_refused(self, error, refuse):
        # log2 NFA <= log2(inf) holds for every score, so an infinite epsilon
        # made every hypothesis meaningful.  The commands that read
        # --epsilon are in `BAD_INPUT`.
        with pytest.raises(ValueError) as caught:
            refuse()
        assert type(caught.value) is error
        assert str(caught.value) == "epsilon must be a finite real number > 0, got inf"

    def test_accepts_numpy_integer_geometry(self):
        cfg = MultiSweepConfig(width=np.int64(256), noise_extent=np.int32(70),
                               margins=(np.int64(8),))
        assert (cfg.width, cfg.noise_extent, cfg.margins) == (256, 70, (8,))
        assert SingleSweepConfig(sides=[np.int16(20)]).sides == (20,)

    @pytest.mark.parametrize("cls", [SingleSweepConfig, MultiSweepConfig])
    def test_accepts_numpy_integer_run_fields(self, cls):
        cfg = cls(base_seed=np.int64(3), seeds_per_cell=np.int32(2),
                  workers=np.uint8(1))
        assert (cfg.base_seed, cfg.seeds_per_cell, cfg.workers) == (3, 2, 1)

    @pytest.mark.parametrize("size", [(100, 100), (60, 60)])
    def test_single_rejects_side_covering_the_image(self, size):
        width, height = size
        with pytest.raises(ConfigError, match="background"):
            SingleSweepConfig(width=width, height=height, sides=(10, width))
        # A full-width square on a taller image still leaves background.
        SingleSweepConfig(width=width, height=height + 20, sides=(width,))

    @pytest.mark.parametrize("kwargs,match", [
        (dict(width=50), "noise layout"),
        (dict(height=60), "noise layout"),
        (dict(noise_margin=41), "noise layout"),
        (dict(noise_extent=300), "noise layout"),
        (dict(margins=(0, 26)), "margin layout"),
        (dict(margins=(3,)), "margin layout"),
        (dict(width=70, height=70, noise_extent=70, noise_margin=0),
         "no background"),
    ])
    def test_multi_rejects_layouts_the_sweep_cannot_build(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            MultiSweepConfig(**kwargs)

    def test_multi_accepts_tight_layouts(self):
        cfg = MultiSweepConfig(width=70, height=71, noise_extent=70,
                               margin_extent=26, margins=(0, 24),
                               deltas=(0.1,), seeds_per_cell=1)
        for axis in ("noise", "margin"):
            assert len(run_sweep_multi(cfg, axis)) == 1 + (axis == "margin")

    def test_from_dict_roundtrip(self):
        cfg = config_from_dict(SingleSweepConfig,
                               {"sides": [10], "deltas": [0.2],
                                "seeds_per_cell": 2})
        assert cfg.sides == (10,)

    @pytest.mark.parametrize("cls,data,built", [
        (SingleSweepConfig, {"sides": [10, 20], "deltas": [0.2]},
         SingleSweepConfig(sides=(10, 20), deltas=(0.2,))),
        (MultiSweepConfig, {"deltas": [0.1, 0.3], "margins": [0, 8]},
         MultiSweepConfig(deltas=(0.1, 0.3), margins=(0, 8))),
        (ShapeSpec, {"harmonics": [[2, 6.0], [3, 4.0]]},
         ShapeSpec(harmonics=((2, 6.0), (3, 4.0)))),
    ])
    def test_json_config_equals_tuple_config(self, cls, data, built):
        # JSON gives lists; the config stores tuples, so it hashes and
        # compares equal to the one built in code.
        cfg = config_from_dict(cls, json.loads(json.dumps(data)))
        assert cfg == built and hash(cfg) == hash(built)


class TestSingleSweep:
    def test_rows_and_cells(self, tmp_path):
        result = run_sweep_single(TINY_SINGLE, out_dir=tmp_path)
        assert len(result.rows) == 2 * 2 * 4
        assert len(result.cells) == 4
        # Strong signal cell: side 30 at delta 0.1 detects always.
        cell = next(c for c in result.cells if c.side == 30 and c.delta == 0.1)
        assert cell.mdl_rate == 1.0 and cell.nfa_rate == 1.0
        with open(tmp_path / "sweep_single.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["side", "delta", "seed", "mdl_bits", "log10_nfa",
                           "mdl_detect", "nfa_detect"]
        assert len(rows) == 1 + 16

    def test_bit_for_bit_reproducible(self):
        a = run_sweep_single(TINY_SINGLE)
        b = run_sweep_single(TINY_SINGLE)
        assert a.rows == b.rows

    def test_base_seed_changes_rows(self):
        a = run_sweep_single(TINY_SINGLE)
        b = run_sweep_single(SingleSweepConfig(
            sides=(10, 30), deltas=(0.1, 0.3), seeds_per_cell=4, base_seed=7))
        assert a.rows != b.rows

    def test_csv_outputs_byte_identical(self, tmp_path):
        run_sweep_single(TINY_SINGLE, out_dir=tmp_path / "a")
        run_sweep_single(TINY_SINGLE, out_dir=tmp_path / "b")
        for name in ("sweep_single.csv", "sweep_single_rates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestMultiSweep:
    def test_margin_axis_tiny(self, tmp_path):
        cfg = MultiSweepConfig(margins=(0, 8, 24), seeds_per_cell=3)
        cells = run_sweep_multi(cfg, "margin", out_dir=tmp_path)
        assert [c.value for c in cells] == [0, 8, 24]
        # Tight margins keep a detection, huge margins lose it.
        assert cells[1].majority_mdl == "four"
        assert cells[2].majority_mdl == "background"
        assert (tmp_path / "sweep_multi_margin.csv").exists()
        assert threshold_along(cells, "mdl", ("four",)) == 8
        for criterion in ("MDL", "best"):
            with pytest.raises(ValueError, match="criterion"):
                threshold_along(cells, criterion, ("four",))

    def test_noise_axis_tiny(self):
        cfg = MultiSweepConfig(deltas=(0.1, 0.45), seeds_per_cell=3)
        cells = run_sweep_multi(cfg, "noise")
        assert cells[0].majority_mdl == "four"
        assert cells[0].majority_nfa == "four"
        assert cells[1].majority_mdl == "background"

    def test_bad_axis(self):
        with pytest.raises(ConfigError):
            run_sweep_multi(MultiSweepConfig(), "margins")

    def test_each_hypothesis_scored_once_per_trial(self, monkeypatch):
        import mdlnfa.square_detect as square_detect

        count = square_detect.multi_counts
        calls = []

        def counting(image, hyp):
            calls.append(hyp)
            return count(image, hyp)

        monkeypatch.setattr(square_detect, "multi_counts", counting)
        cfg = MultiSweepConfig(deltas=(0.1, 0.3), seeds_per_cell=3)
        run_sweep_multi(cfg, "noise")
        assert len(calls) == 2 * 3 * len(HYPOTHESIS_LABELS)


@pytest.mark.parametrize("sweep,blocks_per_trial", [("single", 1), ("multi", 6)])
def test_each_square_block_counted_once_per_trial(monkeypatch, sweep,
                                                  blocks_per_trial):
    # A single-sweep trial has one square; a multi trial has 1 + 4 + 1
    # squares over its three non-empty hypotheses.  Both scores of a
    # hypothesis read one count of each block.
    import mdlnfa.square_detect as square_detect

    count = square_detect._square_counts
    calls = []

    def counting(image, sq):
        calls.append(sq)
        return count(image, sq)

    monkeypatch.setattr(square_detect, "_square_counts", counting)
    if sweep == "single":   # 2 sides x 1 noise rate x 3 trials
        run_sweep_single(SingleSweepConfig(sides=(10, 20), deltas=(0.1,),
                                           seeds_per_cell=3))
    else:                   # 2 noise rates x 3 trials
        run_sweep_multi(MultiSweepConfig(deltas=(0.1, 0.3), seeds_per_cell=3),
                        "noise")
    assert len(calls) == blocks_per_trial * 6


class TestPolygonRun:
    def test_shape_instance_deterministic(self):
        img_a, poly_a = make_shape_instance(ShapeSpec(seed=3))
        img_b, poly_b = make_shape_instance(ShapeSpec(seed=3))
        assert np.array_equal(img_a.pixels, img_b.pixels)
        assert np.array_equal(poly_a.vertices, poly_b.vertices)

    @pytest.mark.parametrize("field,value", [
        ("delta", 0.5), ("delta", 0.7), ("delta", -0.1), ("delta", False),
        ("n_vertices", 2),
        ("n_vertices", 3.0), ("n_vertices", True), ("n_vertices", "60"),
        ("seed", -1), ("seed", 1.0), ("seed", True), ("size", 2.5), ("size", 0),
        ("jitter", -1.0), ("jitter", math.nan), ("jitter", "1"),
        ("jitter", math.inf), ("base_radius", "a"), ("base_radius", 0.0),
        ("base_radius", -5.0), ("base_radius", math.nan),
        ("base_radius", math.inf), ("base_radius", True), ("harmonics", 5),
        ("harmonics", ((2, "x"),)), ("harmonics", (2, 6.0)),
        ("harmonics", ((2,),)), ("harmonics", ((2, 6.0, 1.0),)),
        ("harmonics", ((2, math.inf),)), ("harmonics", ((True, 6.0),))])
    def test_shape_spec_rejects_bad_fields(self, field, value):
        # `gen --kind shape --delta 0.7` used to exit 0; a negative seed, a
        # float size, a negative jitter or a non-number harmonic or radius
        # failed later inside numpy, not always with a ValueError.
        with pytest.raises(ValueError, match=field):
            ShapeSpec(**{field: value})

    def test_shape_spec_accepts_field_bounds(self):
        assert ShapeSpec(delta=0.0, n_vertices=3).n_vertices == 3
        assert ShapeSpec(n_vertices=np.int64(5)).n_vertices == 5
        spec = ShapeSpec(seed=np.int64(0), size=1, jitter=0)
        assert (spec.seed, spec.size, spec.jitter) == (0, 1, 0)
        spec = ShapeSpec(base_radius=np.int64(20), harmonics=[[2, 3], (3, 1.5)])
        assert spec.base_radius == 20 and len(spec.harmonics) == 2
        assert ShapeSpec(harmonics=()).harmonics == ()

    @pytest.mark.parametrize("fields,polygon", [
        ({"base_radius": 500.0}, "truth"), ({"size": 1}, "truth"),
        ({"harmonics": ((2, 30.0),)}, "truth"), ({"jitter": 30.0}, "initial")])
    def test_shape_must_lie_inside_the_image(self, fields, polygon):
        # base_radius=500 used to build vertices from -440 to 569 on the
        # 128-pixel image without complaint.
        with pytest.raises(ValueError, match=f"the {polygon} polygon has a "
                                             f"vertex outside"):
            make_shape_instance(ShapeSpec(**fields))

    def test_run_polygon_outputs(self, tmp_path):
        spec = ShapeSpec(seed=0, size=64, n_vertices=24, base_radius=20.0,
                         harmonics=((2, 3.0),), delta=0.1)
        image, initial = make_shape_instance(spec)
        trajs = run_polygon(image, initial, out_dir=tmp_path)
        assert set(trajs) == {"mdl", "nfa"}
        for criterion in ("mdl", "nfa"):
            with open(tmp_path / f"bss_{criterion}.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["step", "vertex_count", "mdl_bits", "log10_nfa"]
            assert len(rows) == 1 + len(trajs[criterion].steps)
            assert (tmp_path / f"chosen_{criterion}.txt").exists()


class TestLsdRuns:
    def test_boundary_table(self, tmp_path):
        rows = lsd_boundary_table(LsdConfig(), out_dir=tmp_path)
        assert rows[0].n_r == 4 and rows[-1].n_r == 60
        row_40 = next(r for r in rows if r.n_r == 40)
        assert row_40.min_k_nfa <= 30 and row_40.min_k_mdl <= 30
        assert (tmp_path / "lsd_boundary.csv").exists()

    def test_h0_counts_small(self):
        counts = h0_false_alarm_counts(LsdConfig(), n_maps=2, width=96,
                                       height=96)
        assert len(counts) == 2
        assert sum(counts) <= 1

    @pytest.mark.parametrize("name,value", [
        ("n_maps", -1), ("n_maps", True), ("n_maps", 2.0), ("width", 0),
        ("width", 1.5), ("height", 0), ("height", False), ("height", None),
        ("workers", 1.5), ("workers", True)])
    def test_h0_counts_refuse_bad_counts(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer >= "):
            h0_false_alarm_counts(LsdConfig(), **{name: value})

    def test_h0_counts_smallest_map(self):
        assert h0_false_alarm_counts(LsdConfig(), n_maps=np.int64(1), width=1,
                                     height=1) == [0]

    @pytest.mark.parametrize("name,value", [
        ("n_image", 0), ("n_image", True), ("n_image", 2.5)])
    def test_boundary_table_refuses_bad_counts(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer >= "):
            lsd_boundary_table(LsdConfig(), **{name: value})

    def test_boundary_table_smallest(self):
        # One pixel and gamma = 1 make one test, so NFA = 1 <= epsilon at
        # k_r = 0 for every size of the fixed range.
        rows = lsd_boundary_table(LsdConfig(), n_image=1)
        assert [row.n_r for row in rows] == list(range(4, 61))
        assert all(row.min_k_nfa == 0 for row in rows)


@pytest.fixture
def pools(monkeypatch):
    """Pin two usable CPUs and record the worker count of every pool made."""
    import mdlnfa.experiments as experiments

    made = []

    class RecordingPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    return made


class TestWorkerPool:
    """workers=2 goes through a process pool and must equal workers=1."""

    def test_sweep_single(self, pools):
        one = run_sweep_single(TINY_SINGLE)
        two = run_sweep_single(replace(TINY_SINGLE, workers=2))
        assert pools == [2]
        assert two.rows == one.rows and two.cells == one.cells

    @pytest.mark.parametrize("axis", ["noise", "margin"])
    def test_sweep_multi(self, pools, axis):
        cfg = MultiSweepConfig(width=96, height=96, deltas=(0.1, 0.3, 0.45),
                               margins=(0, 8, 24), seeds_per_cell=2)
        one = run_sweep_multi(cfg, axis)
        two = run_sweep_multi(replace(cfg, workers=2), axis)
        assert pools == [2]
        assert two == one

    @pytest.mark.parametrize("n_maps", [0, 1, 4])
    def test_h0_counts(self, pools, n_maps):
        # A huge epsilon gives each map a different count, so order shows.
        cfg = LsdConfig(epsilon=1e7)
        kwargs = dict(n_maps=n_maps, width=48, height=48, base_seed=4)
        one = h0_false_alarm_counts(cfg, workers=1, **kwargs)
        two = h0_false_alarm_counts(cfg, workers=2, **kwargs)
        assert pools == ([2] if n_maps > 1 else [])
        assert len(two) == n_maps and two == one

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError):
            h0_false_alarm_counts(LsdConfig(), n_maps=0, workers=0)

    def test_json_workers_reach_the_pool(self, pools, tmp_path):
        # A --workers flag that defaulted to 1 overrode this JSON value.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sides": [10, 20], "deltas": [0.1],
                                        "seeds_per_cell": 2, "workers": 2}))
        assert main(["sweep-single", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert pools == [2]


class TestEquivalenceRun:
    def test_default_runs_clean(self, tmp_path):
        reports = run_equivalence(out_dir=tmp_path)
        assert len(reports) == 4  # two alphabets x {uniform, nonuniform}
        assert all(r.total_mismatches == 0 for r in reports)
        assert all(r.kraft <= 1 for r in reports)
        text = (tmp_path / "equivalence_report.txt").read_text()
        assert "mismatches" in text

    def test_family_structure(self):
        runs = default_equivalence_runs()
        alphabets = sorted({alphabet for alphabet, _ in runs})
        assert alphabets == [2, 3]
        for _, parts in runs:
            assert len(parts) == 9


# (argv, the flag its refusal names or None): each is refused before --out
# is made.
BAD_INPUT = [
    (["sweep-single", "--seeds", "0"], None),
    (["sweep-multi", "--axis", "noise", "--delta", "0.3"], None),
    (["polygon", "--image", "missing.pgm", "--trace"], None),
    (["polygon", "--polygon", "missing.txt"], None),
    (["polygon", "--image", "p2.pgm", "--trace", "--trace-every", "0"], None),
    (["polygon", "--polygon", "tri.txt", "--trace"], None),
    (["lsd", "--image", "missing.pgm"], None),
    (["lsd", "--image", "p2.pgm", "--table-n", "0"], None),
    (["lsd", "--table-n", "-3"], None),
    (["lsd", "--candidates", "missing.txt"], None),
    (["lsd", "--tau", "4"], None),
    (["equiv", "--seed", "1"], None),
    (["gen", "--kind", "single-square", "--delta", "0.7"], None),
    (["gen", "--kind", "four-squares", "--margin", "41"], None),
    (["gen", "--kind", "shape", "--delta", "0.7"], None),
    (["gen", "--kind", "edge", "--width", "-1"], None),
    (["gen", "--kind", "edge", "--height", "0"], None),
    (["gen", "--kind", "edge", "--seed", "5", "--delta", "0.3"], None),
    (["gen", "--kind", "four-squares", "--side", "7"], None),
    (["gen", "--kind", "shape", "--side", "7"], None),
    (["gen", "--kind", "edge", "--extent", "30"], None),
    (["polygon", "--image", "p2.pgm", "--trace", "--seed", "9"], None),
    (["polygon", "--image", "p2.pgm", "--polygon", "tri.txt", "--trace-every", "3"],
     None),
    (["polygon", "--trace-every", "5"], None),
    (["lsd", "--criterion", "nfa", "--table-n", "4096"], None),
    (["sweep-single", "--epsilon", "inf"], "epsilon"),
    (["sweep-multi", "--axis", "noise", "--epsilon", "inf"], "epsilon"),
    (["polygon", "--epsilon", "inf"], "--epsilon"),
    (["polygon", "--criterion", "mdl", "--epsilon", "0.5"], "--epsilon"),
    (["lsd", "--epsilon", "inf"], "epsilon"),
    (["polygon", "--trace", "--trace-every", "0"], "--trace-every"),
    (["gen", "--kind", "single-square", "--side", "0"], "--side"),
    (["lsd", "--table-n", "0"], "--table-n"),
]
BAD_INPUT_IDS = ["-".join(a.lstrip("-") for a in argv) for argv, _ in BAD_INPUT]


class TestCli:
    def test_gen_and_lsd(self, tmp_path):
        out = str(tmp_path)
        assert main(["gen", "--kind", "edge", "--width", "80", "--height",
                     "80", "--out", out]) == EXIT_OK
        assert main(["lsd", "--image", str(tmp_path / "edge.pgm"),
                     "--out", out, "--table-n", str(512 * 512)]) == EXIT_OK
        assert (tmp_path / "segments.txt").exists()
        assert (tmp_path / "lsd_boundary.csv").exists()

    @pytest.mark.parametrize("inputs", ["golden_candidates", "stripes"])
    def test_lsd_criterion_filters_only_the_rows_written(self, tmp_path, capsys,
                                                         inputs):
        # `--criterion nfa` used to print the NFA-kept rows as the candidate
        # count, and `--criterion mdl` to report 0 kept by NFA.
        if inputs == "golden_candidates":    # the golden run `lsd_candidates`
            assert main(["gen", "--kind", "edge", "--width", "48", "--height", "48",
                         "--out", str(tmp_path)]) == EXIT_OK
            image = tmp_path / "edge.pgm"
            cands = tmp_path / "candidates.txt"
            cands.write_text("# ax ay bx by w\n\n"
                             "23.0 2.0 23.0 40.0 1.0 -3.2 -10.1 1 1\n"
                             "10 10 30 12 2\n")
            extra = ["--candidates", str(cands)]
        else:      # vertical stripes 4 pixels wide, where the criteria differ
            rng = np.random.default_rng(1)
            stripes = np.kron((np.arange(96) // 4 % 2)[None, :] * 80 + 100,
                              np.ones((96, 1))) + rng.normal(0, 4, (96, 96))
            image = tmp_path / "stripes.pgm"
            image.write_bytes(pgm_bytes("P5", np.clip(stripes, 0, 255).astype(
                np.uint8), 255))
            extra = []
        capsys.readouterr()
        runs = {}
        for criterion in ("both", "nfa", "mdl"):
            out = tmp_path / criterion
            assert main(["lsd", "--image", str(image), *extra, "--criterion",
                         criterion, "--table-n", "4096", "--out", str(out)]) == EXIT_OK
            summary = capsys.readouterr().out.splitlines()[0]
            rows = (out / "segments.txt").read_text().splitlines()[1:]
            runs[criterion] = summary, [row.split() for row in rows]
        summary, rows = runs["both"]
        for criterion, column in (("nfa", 7), ("mdl", 8)):
            assert runs[criterion] == (summary,
                                       [row for row in rows if row[column] == "1"])
        if inputs == "golden_candidates":
            assert summary == "lsd: 2 candidates, 1 kept by NFA, 1 kept by MDL"
        else:
            assert runs["mdl"][1] and runs["nfa"][1] != runs["mdl"][1]

    @pytest.mark.parametrize("line", ["0 0 10 10 inf", "0 0 nan 10 2"])
    def test_lsd_rejects_non_finite_candidates(self, tmp_path, capsys, line):
        assert main(["gen", "--kind", "edge", "--out", str(tmp_path)]) == EXIT_OK
        cands = tmp_path / "c.txt"
        cands.write_text(f"49 5 49 90 1\n{line}\n")
        assert main(["lsd", "--image", str(tmp_path / "edge.pgm"),
                     "--candidates", str(cands), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "c.txt:2: " in capsys.readouterr().err
        assert not (tmp_path / "segments.txt").exists()

    @pytest.mark.parametrize("line", ["inf 40", "30 40 5"])
    def test_polygon_rejects_bad_vertex_lines(self, tmp_path, capsys, line):
        assert main(["gen", "--kind", "shape", "--out", str(tmp_path)]) == EXIT_OK
        poly = tmp_path / "p.txt"
        poly.write_text(f"10 10\n50 10\n{line}\n")
        assert main(["polygon", "--image", str(tmp_path / "shape.pgm"),
                     "--polygon", str(poly), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "p.txt:3: " in capsys.readouterr().err

    def test_gen_kinds(self, tmp_path):
        out = str(tmp_path)
        assert main(["gen", "--kind", "single-square", "--out", out,
                     "--delta", "0.2"]) == EXIT_OK
        assert main(["gen", "--kind", "four-squares", "--out", out,
                     "--width", "256", "--height", "256"]) == EXIT_OK
        assert main(["gen", "--kind", "shape", "--out", out]) == EXIT_OK
        assert (tmp_path / "single_square.pgm").exists()
        assert (tmp_path / "four_squares.pgm").exists()
        assert (tmp_path / "shape_polygon.txt").exists()

    @pytest.mark.parametrize("side", ["0", "-4"])
    def test_gen_rejects_side_below_one(self, tmp_path, capsys, side):
        # `--side 0` used to write a square of side 40.
        out = tmp_path / "out"
        assert main(["gen", "--kind", "single-square", f"--side={side}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert (f"--side must be an integer >= 1, got {side}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_lsd_table_n_error_names_the_flag(self, tmp_path, capsys):
        # The flag follows the rule of lsd_boundary_table's n_image.
        out = tmp_path / "out"
        assert main(["lsd", "--table-n", "-3", "--out", str(out)]) == EXIT_CONFIG
        assert "--table-n must be an integer >= 1, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("magic", ["P2", "P5"])
    def test_maxval_1_pgm_runs_like_its_maxval_255_twin(self, tmp_path, magic):
        # Read as raw samples, a maxval-1 image thresholded to all zeros:
        # `polygon --trace` found no foreground (exit 2) and `lsd` saw a
        # flat image.
        mask = np.zeros((24, 24), dtype=np.uint8)
        mask[5:19, 4:20] = 1
        mask[9:12, 17:20] = 0
        for levels, maxval in ((mask * 255, 255), (mask, 1)):
            path = tmp_path / f"m{maxval}.pgm"
            path.write_bytes(pgm_bytes(magic, levels, maxval))
            assert main(["polygon", "--image", str(path), "--trace",
                         "--criterion", "mdl", "--out",
                         str(tmp_path / f"poly{maxval}")]) == EXIT_OK
            assert main(["lsd", "--image", str(path), "--table-n", "4096",
                         "--out", str(tmp_path / f"lsd{maxval}")]) == EXIT_OK
        for run in ("poly", "lsd"):
            files = sorted(p.name for p in (tmp_path / f"{run}255").iterdir())
            assert files
            for name in files:
                assert ((tmp_path / f"{run}1" / name).read_bytes()
                        == (tmp_path / f"{run}255" / name).read_bytes()), name

    @pytest.mark.parametrize("command", [["polygon", "--trace"], ["lsd"]])
    def test_sample_above_maxval_names_the_file(self, tmp_path, capsys, command):
        # A P2 sample of 300 used to escape as an OverflowError (exit 1).
        path = tmp_path / "over.pgm"
        levels = np.zeros((8, 8), dtype=np.int64)
        levels[2:6, 2:6] = 255
        levels[4, 4] = 300
        path.write_bytes(pgm_bytes("P2", levels, 255))
        assert main([command[0], "--image", str(path), *command[1:],
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "over.pgm" in capsys.readouterr().err

    def test_sweep_single_with_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sides": [20], "deltas": [0.1],
                                        "seeds_per_cell": 2}))
        assert main(["sweep-single", "--config", str(cfg_path), "--out",
                     str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "sweep_single.csv").exists()

    def test_sweep_multi_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"margins": [8], "seeds_per_cell": 2}))
        assert main(["sweep-multi", "--axis", "margin", "--config",
                     str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK

    def test_polygon_cli_synthetic(self, tmp_path):
        assert main(["polygon", "--out", str(tmp_path), "--criterion", "mdl",
                     "--overlay"]) == EXIT_OK
        assert (tmp_path / "shape.pgm").exists()
        assert (tmp_path / "bss_mdl.csv").exists()
        assert (tmp_path / "overlay_mdl.pgm").exists()

    def test_polygon_cli_traced_contour(self, tmp_path):
        assert main(["gen", "--kind", "single-square", "--delta", "0.02",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert main(["polygon", "--image",
                     str(tmp_path / "single_square.pgm"), "--trace",
                     "--criterion", "mdl", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "bss_mdl.csv").exists()

    def test_polygon_cli_with_files(self, tmp_path):
        assert main(["gen", "--kind", "shape", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["polygon", "--image", str(tmp_path / "shape.pgm"),
                     "--polygon", str(tmp_path / "shape_polygon.txt"),
                     "--criterion", "nfa", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "chosen_nfa.txt").exists()

    def test_equiv_cli(self, tmp_path):
        assert main(["equiv", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "equivalence_report.txt").exists()

    def test_sweep_multi_noise_axis_rejects_delta(self, tmp_path):
        assert main(["sweep-multi", "--axis", "noise", "--delta", "0.3",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "sweep_multi_noise.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--theta", "0"),
                                            ("--theta", "1.0")])
    def test_lsd_rejects_theta_at_least_one(self, tmp_path, flag, value):
        assert main(["lsd", flag, value, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "lsd_boundary.csv").exists()

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
    def test_lsd_rejects_bad_tau(self, tmp_path, capsys, tau):
        # `magnitude > nan` is false everywhere: without the check this run
        # exits 0 and reports 0 candidates.
        assert main(["gen", "--kind", "edge", "--width", "40", "--height",
                     "40", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["lsd", "--image", str(tmp_path / "edge.pgm"),
                     f"--tau={tau}", "--out", str(tmp_path)]) == 2
        assert "tau" in capsys.readouterr().err
        assert not (tmp_path / "segments.txt").exists()

    @pytest.mark.parametrize("argv,flag", BAD_INPUT, ids=BAD_INPUT_IDS)
    def test_bad_input_makes_no_output_directory(self, tmp_path, monkeypatch,
                                                 capsys, argv, flag):
        # Every subcommand checks all of its inputs and flags before it
        # creates --out; `equiv` has no input but its flags.  Where `flag`
        # is given, the refusal names it.
        monkeypatch.chdir(tmp_path)
        Path("p2.pgm").write_text("P2 2 2 255 0 255 255 0")
        Path("tri.txt").write_text("10 10\n50 10\n30 50\n")
        out = tmp_path / "out"
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:   # argparse's usage error
            code = exc.code
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert flag is None or flag in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_key": 1}))
        assert main(["sweep-single", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        cfg_path.write_text(json.dumps({"deltas": [0.9]}))
        assert main(["sweep-single", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command,small,csv_name", [
        (["sweep-single"], {"sides": [20], "deltas": [0.1]}, "sweep_single.csv"),
        (["sweep-multi", "--axis", "margin"], {"margins": [8]},
         "sweep_multi_margin.csv")])
    @pytest.mark.parametrize("config,flags,field", [
        ({"base_seed": 1.5}, [], "base_seed"),
        ({"base_seed": True}, [], "base_seed"),
        ({}, ["--seed", "-1"], "base_seed"),
        ({"seeds_per_cell": 2.5}, [], "seeds_per_cell"),
        ({}, ["--seeds", "0"], "seeds_per_cell"),
        ({}, ["--workers", "0"], "workers"),
        ({"workers": 0}, [], "workers")])
    def test_sweeps_reject_bad_run_fields(self, tmp_path, capsys, command, small,
                                          csv_name, config, flags, field):
        # Without the checks a float base_seed runs as its integer part
        # (exit 0), a negative --seed fails inside numpy's SeedSequence and
        # a float seeds_per_cell crashes the sweep with a TypeError.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**small, **config}))
        out = tmp_path / "out"
        assert main(command + ["--config", str(cfg_path), *flags,
                               "--out", str(out)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (out / csv_name).exists()

    @pytest.mark.parametrize("command,config,field,csv_name", [
        (["sweep-single"], {"sides": [5.5]}, "sides", "sweep_single.csv"),
        (["sweep-multi", "--axis", "noise"], {"noise_extent": 70.0},
         "noise_extent", "sweep_multi_noise.csv")])
    def test_sweeps_reject_non_integer_geometry(self, tmp_path, capsys, command,
                                                config, field, csv_name):
        # Without the checks both commands crash with a TypeError traceback
        # and exit 1.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**config, "seeds_per_cell": 1}))
        out = tmp_path / "out"
        assert main(command + ["--config", str(cfg_path),
                               "--out", str(out)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (out / csv_name).exists()

    @pytest.mark.parametrize("command,config,field", [
        (["sweep-single"], {"deltas": [None]}, "deltas"),
        (["sweep-single"], {"epsilon": "x"}, "epsilon"),
        (["sweep-multi", "--axis", "margin"], {"margin_delta": "a"}, "margin_delta"),
        (["sweep-single"], {"deltas": 0.1}, "deltas"),
        (["sweep-single"], {"sides": 20}, "sides")])
    def test_sweeps_reject_non_numeric_fields(self, tmp_path, capsys, command,
                                              config, field):
        # Without the checks each comparison, or iterating a grid given as
        # one number, raised a TypeError whose message named no field
        # ("'<' not supported between instances of ...").
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(command + ["--config", str(cfg_path),
                               "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{field} must be" in err and "not supported" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--epsilon", "0"), ("--epsilon", "-1"),
                                            ("--epsilon", "nan"),
                                            ("--trace-every", "0"),
                                            ("--trace-every", "-3"),
                                            ("--seed", "-1")])
    def test_polygon_rejects_bad_flags_before_any_work(self, tmp_path, capsys,
                                                       flag, value):
        # Without the checks a bad epsilon fails only after both BSS runs
        # wrote their files (nan never fails), and a trace step below 1
        # runs as 1; a negative seed failed inside numpy with a message
        # that did not name it.
        assert main(["polygon", f"{flag}={value}", "--out",
                     str(tmp_path)]) == EXIT_CONFIG
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not list(tmp_path.glob("bss_*.csv"))

    def test_polygon_requires_initial_source(self, tmp_path):
        assert main(["gen", "--kind", "single-square", "--out",
                     str(tmp_path)]) == EXIT_OK
        assert main(["polygon", "--image",
                     str(tmp_path / "single_square.pgm"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["polygon", "--config", "c.json"],
        ["lsd", "--config", "c.json"],
        ["equiv", "--config", "c.json"],
        ["gen", "--kind", "edge", "--config", "c.json"],
        ["lsd", "--seed", "9"],
        ["equiv", "--seed", "9"],
        ["equiv", "--epsilon", "0.5"],
        ["gen", "--kind", "edge", "--epsilon", "-3"],
        ["lsd", "--rho", "0.2"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind,unread", [
        ("single-square", ["extent", "margin"]),
        ("four-squares", ["side"]),
        ("shape", ["width", "height", "side", "extent", "margin"]),
        ("edge", ["side", "extent", "margin", "delta", "seed"])])
    def test_gen_rejects_each_flag_its_kind_does_not_read(self, tmp_path, capsys,
                                                          kind, unread):
        values = {"width": "40", "height": "40", "side": "7", "extent": "30",
                  "margin": "8", "delta": "0.1", "seed": "1"}
        for flag in unread:
            out = tmp_path / flag
            assert main(["gen", "--kind", kind, f"--{flag}", values[flag],
                         "--out", str(out)]) == EXIT_CONFIG
            assert f"does not read --{flag}" in capsys.readouterr().err
            assert not out.exists()

    def test_config_flags_default_to_none(self):
        # A flag that sets a config field passes its value only when given,
        # so the JSON config, then the config class, supplies the default.
        config_flags = {"workers", "seed", "seeds", "epsilon", "gamma", "tau",
                        "theta"}
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        seen = set()
        for command, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.dest in config_flags:
                    seen.add(action.dest)
                    assert action.default is None, (command, action.dest)
        assert seen == config_flags

    def test_console_script_help(self):
        import mdlnfa

        # The child finds the package where this process found it, whether
        # it is installed or only on the pytest path.
        src = str(Path(mdlnfa.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "mdlnfa.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "sweep-single" in proc.stdout

    def test_equiv_mismatch_exit_code(self, tmp_path, monkeypatch):
        # The theorem holds, so a violation has to be injected to check the
        # exit-code contract.
        import mdlnfa.cli as cli

        class BrokenReport:
            total_mismatches = 1
            total_configs = 16
            total_boundary_exact = 0

            def format(self):
                return "injected mismatch"

        monkeypatch.setattr(cli.ex, "run_equivalence",
                            lambda out_dir=None: [BrokenReport()])
        assert cli.main(["equiv", "--out", str(tmp_path)]) == 3
