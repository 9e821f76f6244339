"""Command-line experiment driver.

Subcommands map one-to-one onto the experiment drivers: `sweep-single`,
`sweep-multi`, `polygon`, `lsd`, `equiv`, and `gen` for synthesizing test
inputs.  All sweeps are seeded and reproducible; outputs are CSV, PGM, and
plain-text files under --out.

Exit codes: 0 success, 2 configuration/usage error, 3 equivalence-theorem
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from .imaging import (
    NoiseConfig,
    read_binary_pgm,
    read_pgm,
    read_polygon_file,
    synthesize_squares,
    trace_contour,
    write_binary_pgm,
    write_pgm,
    write_polygon_file,
)
from .lsd import (
    LsdConfig,
    detect_segments,
    read_candidates_file,
    write_segments_file,
)
from .polygon import PolygonHypothesis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EQUIV = 3


def _load_json_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ex.ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ex.ConfigError(f"config {path} must hold a JSON object")
    return data


def _merge_config(cls, json_data: dict, overrides: dict):
    data = dict(json_data)
    data.update({k: v for k, v in overrides.items() if v is not None})
    return ex.config_from_dict(cls, data)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_sweep_single(args) -> int:
    overrides = {"base_seed": args.seed, "epsilon": args.epsilon,
                 "seeds_per_cell": args.seeds, "workers": args.workers}
    cfg = _merge_config(ex.SingleSweepConfig, _load_json_config(args.config),
                        overrides)
    result = ex.run_sweep_single(cfg, out_dir=_out_dir(args))
    cells = result.cells
    agree = sum(c.agree_rate >= 0.9 for c in cells) / len(cells)
    print(f"sweep-single: {len(cells)} cells, {len(result.rows)} trials; "
          f"{agree:.0%} of cells have >=90% per-seed agreement")
    return EXIT_OK


def cmd_sweep_multi(args) -> int:
    overrides = {"base_seed": args.seed, "epsilon": args.epsilon,
                 "seeds_per_cell": args.seeds, "workers": args.workers}
    if args.delta is not None:
        if args.axis == "noise":
            raise ex.ConfigError("--delta sets the noise level of the margin "
                                 "axis; the noise axis sweeps its own deltas")
        overrides["margin_delta"] = args.delta
    cfg = _merge_config(ex.MultiSweepConfig, _load_json_config(args.config),
                        overrides)
    cells = ex.run_sweep_multi(cfg, args.axis, out_dir=_out_dir(args))
    for criterion in ("mdl", "nfa"):
        four = ex.threshold_along(cells, criterion, ("four",))
        large = ex.threshold_along(cells, criterion, ("large",))
        print(f"sweep-multi[{args.axis}] {criterion}: four-square majority up "
              f"to {four}, large-square up to {large}")
    return EXIT_OK


def cmd_polygon(args) -> int:
    out = _out_dir(args)
    if args.image:
        image = read_binary_pgm(args.image)
    else:
        image, initial = ex.make_shape_instance(
            ex.ShapeSpec(seed=args.seed or 0))
        write_binary_pgm(out / "shape.pgm", image)
    if args.polygon:
        initial = PolygonHypothesis(read_polygon_file(args.polygon))
    elif args.trace:
        initial = PolygonHypothesis(trace_contour(image, every=args.trace_every))
    elif args.image:   # a synthetic instance comes with its initial polygon
        raise ex.ConfigError("provide --polygon FILE or --trace with --image")
    criteria = ("mdl", "nfa") if args.criterion == "both" else (args.criterion,)
    trajectories = ex.run_polygon(image, initial, out_dir=out, criteria=criteria)
    epsilon = 1.0 if args.epsilon is None else args.epsilon
    for criterion, traj in trajectories.items():
        chosen = traj.chosen
        flag = ""
        if criterion == "nfa" and chosen.score > math.log2(epsilon):
            flag = " (minimum not meaningful at this epsilon)"
        print(f"polygon[{criterion}]: {traj.steps[0].vertex_count} -> "
              f"{chosen.vertex_count} vertices, score {chosen.score:.2f} "
              f"bits{flag}")
        if args.overlay:
            overlay = ex.render_polygon_overlay(image, chosen.polygon)
            write_pgm(out / f"overlay_{criterion}.pgm", overlay)
    return EXIT_OK


def cmd_lsd(args) -> int:
    out = _out_dir(args)
    kwargs = {"gamma": args.gamma, "tau": args.tau}
    if args.epsilon is not None:
        kwargs["epsilon"] = args.epsilon
    if args.theta is not None:
        cfg = LsdConfig.from_theta(args.theta, **kwargs)
    elif args.rho is not None:
        cfg = LsdConfig(rho=args.rho, **kwargs)
    else:
        cfg = LsdConfig(**kwargs)
    if args.image:
        gray = read_pgm(args.image)
        candidates = read_candidates_file(args.candidates) if args.candidates \
            else None
        detections = detect_segments(gray, cfg, criterion=args.criterion,
                                     candidates=candidates)
        write_segments_file(out / "segments.txt", detections)
        kept_nfa = sum(d.nfa_keep for d in detections)
        kept_mdl = sum(d.mdl_keep for d in detections)
        print(f"lsd: {len(detections)} candidates, {kept_nfa} kept by NFA, "
              f"{kept_mdl} kept by MDL")
    rows = ex.lsd_boundary_table(cfg, n_image=args.table_n, out_dir=out)
    detectable = [r for r in rows if r.min_k_nfa is not None]
    if detectable:
        first = detectable[0]
        print(f"lsd boundary table: detection starts at n_r={first.n_r} "
              f"(NFA k={first.min_k_nfa}, MDL k={first.min_k_mdl})")
    return EXIT_OK


def cmd_equiv(args) -> int:
    reports = ex.run_equivalence(out_dir=_out_dir(args))
    mismatches = sum(r.total_mismatches for r in reports)
    configs = sum(r.total_configs for r in reports)
    boundary = sum(r.total_boundary_exact for r in reports)
    print(f"equiv: {configs} configurations over {len(reports)} runs, "
          f"{mismatches} mismatches, {boundary} boundary-exact cases")
    if mismatches:
        for r in reports:
            print(r.format())
        return EXIT_EQUIV
    return EXIT_OK


def cmd_gen(args) -> int:
    out = _out_dir(args)
    seed = args.seed or 0
    if args.kind == "single-square":
        side = args.side or 40
        row = (args.height - side) // 2
        col = (args.width - side) // 2
        image = synthesize_squares([(row, col, side)], args.width, args.height,
                                   NoiseConfig(args.delta, seed=seed))
        write_binary_pgm(out / "single_square.pgm", image)
        print(f"gen: single_square.pgm ({args.width}x{args.height}, "
              f"side {side}, delta {args.delta})")
    elif args.kind == "four-squares":
        from .square_detect import four_square_layout
        hyps = four_square_layout(extent=args.extent, margin=args.margin,
                                  width=args.width, height=args.height)
        image = synthesize_squares(hyps[2].squares, args.width, args.height,
                                   NoiseConfig(args.delta, seed=seed))
        write_binary_pgm(out / "four_squares.pgm", image)
        print(f"gen: four_squares.pgm (extent {args.extent}, margin "
              f"{args.margin}, delta {args.delta})")
    elif args.kind == "shape":
        image, initial = ex.make_shape_instance(
            ex.ShapeSpec(seed=seed, delta=args.delta))
        write_binary_pgm(out / "shape.pgm", image)
        write_polygon_file(out / "shape_polygon.txt", initial.vertices)
        print("gen: shape.pgm + shape_polygon.txt")
    elif args.kind == "edge":
        gray = np.zeros((args.height, args.width), dtype=np.uint8)
        gray[:, args.width // 2:] = 255
        write_pgm(out / "edge.pgm", gray)
        print("gen: edge.pgm")
    else:  # pragma: no cover - argparse restricts choices
        raise ex.ConfigError(f"unknown kind {args.kind!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlnfa",
        description="Side-by-side MDL and a-contrario structure detection "
                    "experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "config": dict(help="JSON file overriding config defaults"),
        "seed": dict(type=int, help="base seed"),
        "epsilon": dict(type=float, help="NFA detection threshold (default 1)"),
    }

    def common(p, *flags):
        """--out, plus those of --config/--seed/--epsilon the command reads."""
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("sweep-single", help="side x noise detection-rate grid")
    common(p, "config", "seed", "epsilon")
    p.add_argument("--seeds", type=int, help="seeds per cell")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep_single)

    p = sub.add_parser("sweep-multi", help="four-square model selection sweep")
    common(p, "config", "seed", "epsilon")
    p.add_argument("--axis", choices=("noise", "margin"), required=True)
    p.add_argument("--delta", type=float,
                   help="noise level for the margin axis")
    p.add_argument("--seeds", type=int, help="seeds per cell")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep_multi)

    p = sub.add_parser("polygon", help="backward-stepwise polygon selection")
    common(p, "seed", "epsilon")
    p.add_argument("--image", help="binary PGM input (synthetic if omitted)")
    p.add_argument("--polygon", help="initial polygon vertex file")
    p.add_argument("--trace", action="store_true",
                   help="trace the initial polygon from the image")
    p.add_argument("--trace-every", type=int, default=2,
                   help="keep every k-th traced boundary pixel")
    p.add_argument("--criterion", choices=("mdl", "nfa", "both"),
                   default="both")
    p.add_argument("--overlay", action="store_true",
                   help="emit PGM overlays of the chosen polygons")
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("lsd", help="line-segment validation experiments")
    common(p, "epsilon")
    p.add_argument("--image", help="grayscale PGM input")
    p.add_argument("--candidates", help="rectangle candidate file "
                                        "(ax ay bx by w per line)")
    p.add_argument("--criterion", choices=("mdl", "nfa", "both"),
                   default="both")
    p.add_argument("--rho", type=float, help="alignment tolerance (radians)")
    p.add_argument("--theta", type=float,
                   help="alignment probability (overrides --rho)")
    p.add_argument("--gamma", type=int, default=1,
                   help="number of tolerance values tested")
    p.add_argument("--tau", type=float, default=2.0,
                   help="gradient magnitude threshold")
    p.add_argument("--table-n", type=int, default=512 * 512,
                   help="image size n for the boundary table")
    p.set_defaults(func=cmd_lsd)

    p = sub.add_parser("equiv", help="exhaustive decision-equivalence check")
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("gen", help="synthesize test inputs")
    common(p, "seed")
    p.add_argument("--kind", choices=("single-square", "four-squares",
                                      "shape", "edge"), required=True)
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--height", type=int, default=100)
    p.add_argument("--side", type=int, help="square side (single-square)")
    p.add_argument("--extent", type=int, default=70,
                   help="array extent (four-squares)")
    p.add_argument("--margin", type=int, default=40,
                   help="margin between squares (four-squares)")
    p.add_argument("--delta", type=float, default=0.1, help="flip probability")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ex.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
