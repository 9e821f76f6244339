"""Golden outputs: every subcommand on a tiny fixed config, hashed byte for byte.

Each run writes into its own directory; the SHA-256 of every file it leaves
there must match the recorded digest.  A refactor that changes any score
bit, CSV row, PGM byte or report line shows up here.  After a deliberate
output change, print the new digests with `golden_digests(tmp_dir)` and
say in the change log why the bytes moved.
"""

import hashlib
import json
from pathlib import Path

from mdlnfa.cli import EXIT_OK, main

TINY_SINGLE = {"sides": [10, 30], "deltas": [0.1, 0.3], "seeds_per_cell": 3}
TINY_MULTI = {"width": 96, "height": 96, "deltas": [0.1, 0.3],
              "seeds_per_cell": 2}


def _runs(root: Path):
    """(run name, argv) pairs; inputs are generated by earlier runs."""
    cfg_single = root / "single.json"
    cfg_single.write_text(json.dumps(TINY_SINGLE))
    cfg_multi = root / "multi.json"
    cfg_multi.write_text(json.dumps(TINY_MULTI))
    square = root / "gen_square" / "single_square.pgm"
    shape = root / "gen_shape" / "shape.pgm"
    shape_polygon = root / "gen_shape" / "shape_polygon.txt"
    edge = root / "gen_edge" / "edge.pgm"
    # Extra columns past the fifth are ignored; the first row is kept by both
    # criteria, the second rejected by both.
    candidates = root / "candidates.txt"
    candidates.write_text("# ax ay bx by w\n\n"
                          "23.0 2.0 23.0 40.0 1.0 -3.2 -10.1 1 1\n"
                          "10 10 30 12 2\n")
    return [
        ("gen_square", ["gen", "--kind", "single-square", "--width", "40",
                        "--height", "40", "--side", "16", "--delta", "0.05",
                        "--seed", "3"]),
        ("gen_four", ["gen", "--kind", "four-squares", "--width", "96",
                      "--height", "96", "--delta", "0.2", "--seed", "1"]),
        ("gen_shape", ["gen", "--kind", "shape", "--seed", "2"]),
        ("gen_edge", ["gen", "--kind", "edge", "--width", "48",
                      "--height", "48"]),
        ("sweep_single", ["sweep-single", "--config", str(cfg_single),
                          "--seed", "5"]),
        ("sweep_multi", ["sweep-multi", "--axis", "noise", "--config",
                         str(cfg_multi), "--seed", "5"]),
        ("polygon", ["polygon", "--image", str(square), "--trace",
                     "--trace-every", "3", "--overlay"]),
        ("polygon_file", ["polygon", "--image", str(shape), "--polygon",
                          str(shape_polygon)]),
        ("lsd", ["lsd", "--image", str(edge), "--table-n", "4096"]),
        ("lsd_candidates", ["lsd", "--image", str(edge), "--candidates",
                            str(candidates), "--table-n", "4096"]),
        ("lsd_theta", ["lsd", "--image", str(edge), "--theta", "0.25",
                       "--gamma", "2", "--tau", "4", "--table-n", "4096"]),
        ("equiv", ["equiv"]),
    ]


def golden_digests(root: Path) -> dict[str, str]:
    """Run every subcommand under `root`; map 'run/file' to its SHA-256."""
    digests = {}
    for name, argv in _runs(root):
        out = root / name
        assert main(argv + ["--out", str(out)]) == EXIT_OK, name
        for path in sorted(out.iterdir()):
            key = f"{name}/{path.name}"
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


GOLDEN = {
    "gen_square/single_square.pgm": "87f11019e4c2b584e8bd2c244d30c5209008147c844bda1f4bbe1c458eecc3ca",
    "gen_four/four_squares.pgm": "ded0f82619d413698ef58396e41da9ec0f134b729699e52b63392e08dd75dedc",
    "gen_shape/shape.pgm": "d549165eb39ad70b4f0a0979594e1ae3d9e5badac568a1687057bcd46a018d57",
    "gen_shape/shape_polygon.txt": "d746341e1c235c85e3cd26b04e4725dcdd5e82a2ec96814f99df163b9483433d",
    "gen_edge/edge.pgm": "4e947fbfe0bbdfbd8a25396238335683f4b6aa3fb552ca3750154d08c221a9e3",
    "sweep_single/sweep_single.csv": "e3e127a205e4f8951cb6430b217014f32488c4f45d618b2a6fe3d19bd2cbe0d5",
    "sweep_single/sweep_single_rates.csv": "cac1851e14e2ea299e1fca4a4cb2bd278c9d259b9b650cab4589f0bb79c96418",
    "sweep_multi/sweep_multi_noise.csv": "df18487aaf0bf01571a357b62c29f5651735cdb90bd38f94ab44bc7b8c43d0a8",
    "polygon/bss_mdl.csv": "e9fddaeee53c712d38283ca804656c0e749c0ea1950ce67129bfdc0634b5c084",
    "polygon/bss_nfa.csv": "e9fddaeee53c712d38283ca804656c0e749c0ea1950ce67129bfdc0634b5c084",
    "polygon/chosen_mdl.txt": "ac1e13300fe4c39d83fb328f97e4b68ffeb7a5c491b0542f2c2b917e4bfc1eec",
    "polygon/chosen_nfa.txt": "ac1e13300fe4c39d83fb328f97e4b68ffeb7a5c491b0542f2c2b917e4bfc1eec",
    "polygon/overlay_mdl.pgm": "de27a1ec66cdf8c04bbbfe7cd4d64179774379b85ceb2f99302d3e990f625581",
    "polygon/overlay_nfa.pgm": "de27a1ec66cdf8c04bbbfe7cd4d64179774379b85ceb2f99302d3e990f625581",
    "polygon_file/bss_mdl.csv": "58bc5892ec891f1677efe328bbe0140a16c4f53496504ab606853eec1c13419a",
    "polygon_file/bss_nfa.csv": "caa2af9182b82d471aaa8175eda0d56c12aa1d3f62fde0734490f2edb66de013",
    "polygon_file/chosen_mdl.txt": "74285a68ef84cd01566ac7afe67e0b8313814a20382eb916cca0b049eb92e803",
    "polygon_file/chosen_nfa.txt": "49550e6160de3b8407f99e5d69dbcd4a66f35f52a5cbe50dd965ed14c15b40e6",
    "lsd/lsd_boundary.csv": "49e874bc844ffcbeac793a0441b44fa994617986b1d27a7238f4500e9f84ceb4",
    "lsd/segments.txt": "0dd5415137e7078d62ea33fd40174beb3431324e8d4abbcd9b418f91b3c32e05",
    "lsd_candidates/lsd_boundary.csv": "49e874bc844ffcbeac793a0441b44fa994617986b1d27a7238f4500e9f84ceb4",
    "lsd_candidates/segments.txt": "c885c8fd408335cadcca9d6350c4f88fe251bb375630b7766feec8b3bad5564c",
    "lsd_theta/lsd_boundary.csv": "07ea80c8669e77999afbdcbdcf558fc1b9fabec1aca244eba3efb0a96c2aedb0",
    "lsd_theta/segments.txt": "1471fea809db3917af7380d769e687cdffd81efbc5036c0f3fb77926f9e369e6",
    "equiv/equivalence_report.txt": "e554871609528cf139a5777b61bac3701efa84a09c6430c0f224967a216391d5",
}


def test_golden_outputs(tmp_path):
    assert golden_digests(tmp_path) == GOLDEN
