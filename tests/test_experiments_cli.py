"""Tests for the experiment drivers and the command-line interface."""

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

from mdlnfa.cli import EXIT_CONFIG, EXIT_OK, main
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
        for epsilon in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError, match="epsilon"):
                SingleSweepConfig(epsilon=epsilon)
            with pytest.raises(ConfigError, match="epsilon"):
                MultiSweepConfig(epsilon=epsilon)

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
        assert cfg.sides == [10]


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

        score = square_detect.mdl_score_multi
        calls = []

        def counting(image, hyp):
            calls.append(hyp)
            return score(image, hyp)

        monkeypatch.setattr(square_detect, "mdl_score_multi", counting)
        cfg = MultiSweepConfig(deltas=(0.1, 0.3), seeds_per_cell=3)
        run_sweep_multi(cfg, "noise")
        assert len(calls) == 2 * 3 * len(HYPOTHESIS_LABELS)


class TestPolygonRun:
    def test_shape_instance_deterministic(self):
        img_a, poly_a = make_shape_instance(ShapeSpec(seed=3))
        img_b, poly_b = make_shape_instance(ShapeSpec(seed=3))
        assert np.array_equal(img_a.pixels, img_b.pixels)
        assert np.array_equal(poly_a.vertices, poly_b.vertices)

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


class TestCli:
    def test_gen_and_lsd(self, tmp_path):
        out = str(tmp_path)
        assert main(["gen", "--kind", "edge", "--width", "80", "--height",
                     "80", "--out", out]) == EXIT_OK
        assert main(["lsd", "--image", str(tmp_path / "edge.pgm"),
                     "--out", out, "--table-n", str(512 * 512)]) == EXIT_OK
        assert (tmp_path / "segments.txt").exists()
        assert (tmp_path / "lsd_boundary.csv").exists()

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

    @pytest.mark.parametrize("flag,value", [("--rho", "2.0"),
                                            ("--theta", "1.0")])
    def test_lsd_rejects_theta_at_least_one(self, tmp_path, flag, value):
        assert main(["lsd", flag, value, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "lsd_boundary.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_key": 1}))
        assert main(["sweep-single", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        cfg_path.write_text(json.dumps({"deltas": [0.9]}))
        assert main(["sweep-single", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

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
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2

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
