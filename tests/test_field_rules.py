"""One zoo of bad values against every declared field rule, checked argument
and command-line flag.

Each entry below states, in this file, which zoo values its field must
refuse; nothing here reads the declarations in `src/`, so a wrong
declaration (a bound moved or an open end closed, a bool let through)
fails it.  A refusal must raise the layer's error type, exactly, with a
message that names the field; every other zoo value must build.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from mdlnfa.cli import EXIT_CONFIG, main
from mdlnfa.equivalence import PartSpec, enumerate_configs, xi_count_ones
from mdlnfa.experiments import (
    ConfigError,
    MultiSweepConfig,
    ShapeSpec,
    SingleSweepConfig,
    h0_false_alarm_counts,
    lsd_boundary_table,
    threshold_along,
)
from mdlnfa.imaging import (
    BinaryImage,
    NoiseConfig,
    Square,
    flip_noise,
    gradient_orientation,
    synthesize_squares,
    trace_contour,
)
from mdlnfa.lsd import (
    AlignmentCounts,
    LsdConfig,
    RectangleCandidate,
    isotropic_orientation_map,
    region_grow_candidates,
)
from mdlnfa.numeric import DomainError, Score, meaningful
from mdlnfa.polygon import PolygonHypothesis, bss_simplify
from mdlnfa.square_detect import SquareHypothesis, pick_hypothesis

ZOO = {
    "True": True, "False": False, "None": None, "str": "3", "nan": math.nan,
    "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0, "0.0": 0.0,
    "1.0": 1.0, "2.5": 2.5, "1e300": 1e300, "np.int64(-1)": np.int64(-1),
    "np.nan": np.float64("nan"), "tuple": (1, 2), "list": [1, 2],
}
ALL = frozenset(ZOO)
# What each field refuses, written as the zoo less what it accepts.
COUNT_0 = ALL - {"0"}                  # an integer >= 0
COUNT_1 = ALL                          # an integer >= 1 (or more)
FINITE = ALL - {"-1", "0", "0.0", "1.0", "2.5", "1e300", "np.int64(-1)"}
POSITIVE = ALL - {"1.0", "2.5", "1e300"}           # finite, > 0
NON_NEGATIVE = POSITIVE - {"0", "0.0"}             # finite, >= 0
NOISE = ALL - {"0", "0.0"}                         # [0, 0.5)
OPEN_NOISE = ALL                                   # (0, 0.5)
CHOICE = ALL

IMAGE = BinaryImage(np.pad(np.ones((6, 6), dtype=np.uint8), 2))
TRIANGLE = PolygonHypothesis([(2.0, 2.0), (7.0, 2.0), (4.0, 7.0)])
OMAP = isotropic_orientation_map(8, 8, seed=0)


def record(cls, **base):
    return lambda field, value: cls(**{**base, field: value})


def call(fn):
    return lambda field, value: fn(**{field: value})


# (label, build(field, value), error type, {field: refused zoo keys}, grids)
RECORDS = [
    ("LsdConfig", record(LsdConfig), ValueError,
     {"theta": ALL, "gamma": ALL - {"1.0", "1e300"}, "epsilon": POSITIVE,
      "tau": NON_NEGATIVE}, ()),
    ("RectangleCandidate",
     record(RectangleCandidate, ax=3.0, ay=4.0, bx=10.0, by=20.0, width=1.0),
     ValueError, {"ax": FINITE, "ay": FINITE, "bx": FINITE, "by": FINITE,
                  "width": POSITIVE}, ()),
    ("AlignmentCounts", record(AlignmentCounts, n_r=10, k_r=0, u_r=0), ValueError,
     {"n_r": COUNT_0, "k_r": COUNT_0, "u_r": COUNT_0}, ()),
    ("NoiseConfig", record(NoiseConfig, delta=0.1), ValueError,
     {"delta": NOISE, "seed": COUNT_0}, ()),
    ("PartSpec", record(PartSpec, length=3, eta=2, xi=xi_count_ones), ValueError,
     {"length": COUNT_1, "eta": POSITIVE}, ()),
    ("Square", record(Square, row=0, col=0, side=1), ValueError,
     {"row": COUNT_0, "col": COUNT_0, "side": COUNT_1}, ()),
    ("ShapeSpec", record(ShapeSpec), ConfigError,
     {"seed": COUNT_0, "size": COUNT_1, "n_vertices": COUNT_1,
      "base_radius": POSITIVE, "jitter": NON_NEGATIVE, "delta": NOISE,
      "harmonics": ALL - {"tuple", "list"}}, {"harmonics": (2, 6.0)}),
    ("SingleSweepConfig", record(SingleSweepConfig), ConfigError,
     {"width": COUNT_1, "height": COUNT_1, "sides": COUNT_1,
      "deltas": OPEN_NOISE, "seeds_per_cell": COUNT_1, "base_seed": COUNT_0,
      "epsilon": POSITIVE, "workers": COUNT_1},
     {"sides": 10, "deltas": 0.1}),
    ("MultiSweepConfig", record(MultiSweepConfig), ConfigError,
     {"width": COUNT_1, "height": COUNT_1, "noise_extent": COUNT_1,
      "noise_margin": COUNT_0, "deltas": OPEN_NOISE, "margin_extent": COUNT_1,
      "margins": COUNT_0, "margin_delta": OPEN_NOISE,
      "seeds_per_cell": COUNT_1, "base_seed": COUNT_0, "epsilon": POSITIVE,
      "workers": COUNT_1},
     {"deltas": 0.1, "margins": 2}),
]

# Checked arguments of functions: (label, call(field, value), error type,
# {argument: refused zoo keys}).
ARGUMENTS = [
    ("meaningful", call(lambda epsilon: meaningful(-5.0, epsilon)), DomainError,
     {"epsilon": POSITIVE}),
    ("Score.nfa_detects",
     call(lambda epsilon: Score(0.0, -5.0).nfa_detects(epsilon)), DomainError,
     {"epsilon": POSITIVE}),
    ("pick_hypothesis",
     call(lambda criterion="nfa", epsilon=1.0: pick_hypothesis(
         [(SquareHypothesis(), Score(0.0, 0.0))], criterion, epsilon)),
     ValueError, {"criterion": CHOICE, "epsilon": POSITIVE}),
    ("bss_simplify", call(lambda criterion: bss_simplify(IMAGE, TRIANGLE, criterion)),
     ValueError, {"criterion": CHOICE}),
    ("threshold_along", call(lambda criterion: threshold_along([], criterion)),
     ValueError, {"criterion": CHOICE}),
    ("isotropic_orientation_map",
     call(lambda width=1, height=1, seed=0: isotropic_orientation_map(width, height,
                                                                      seed)),
     ValueError, {"width": COUNT_1, "height": COUNT_1, "seed": COUNT_0}),
    ("region_grow_candidates",
     call(lambda min_region_size: region_grow_candidates(OMAP, LsdConfig(),
                                                         min_region_size)),
     ValueError, {"min_region_size": COUNT_1}),
    ("trace_contour", call(lambda every: trace_contour(IMAGE, every)), ValueError,
     {"every": COUNT_1}),
    ("flip_noise", call(lambda delta=0.0, seed=0: flip_noise(IMAGE, delta, seed)),
     ValueError, {"delta": ALL - {"0", "0.0", "1.0"}, "seed": COUNT_0}),
    ("gradient_orientation",
     call(lambda tau: gradient_orientation(np.zeros((4, 4)), tau)), ValueError,
     {"tau": NON_NEGATIVE}),
    ("synthesize_squares",
     call(lambda row=0, col=0, side=1: synthesize_squares(
         [(row, col, side)], 10, 10, NoiseConfig(0.0))),
     ValueError, {"row": COUNT_0, "col": COUNT_0, "side": COUNT_1}),
    ("enumerate_configs",
     call(lambda alphabet_size=2, length=1: enumerate_configs(alphabet_size, length)),
     ValueError, {"alphabet_size": COUNT_1, "length": COUNT_0}),
    ("lsd_boundary_table",
     call(lambda n_image=1: lsd_boundary_table(LsdConfig(), n_image)),
     ConfigError, {"n_image": COUNT_1}),
    ("h0_false_alarm_counts",
     call(lambda n_maps=0, width=1, height=1, workers=1: h0_false_alarm_counts(
         LsdConfig(), n_maps, width, height, workers=workers)),
     ConfigError, {"n_maps": COUNT_0, "width": COUNT_1, "height": COUNT_1,
                   "workers": COUNT_1}),
]


def _cases(table):
    return [pytest.param(build, error, field, refused, *rest, id=f"{label}.{field}")
            for label, build, error, fields, *rest in table
            for field, refused in fields.items()]


def _refuses(build, error, field, value):
    with pytest.raises(ValueError) as caught:
        build(field, value)
    assert type(caught.value) is error, (value, caught.value)
    assert field in str(caught.value), (value, caught.value)


@pytest.mark.parametrize("build,error,field,refused,grids", _cases(RECORDS))
def test_record_field_refuses_the_zoo(build, error, field, refused, grids):
    # A grid field gets each zoo value as an entry, alone in a tuple and
    # after a good entry in a list; a bare value that is no tuple or list
    # is refused.
    grid = field in grids
    for key, value in ZOO.items():
        values = [(value,), [grids[field], value]] if grid else [value]
        for value in values:
            if key in refused:
                _refuses(build, error, field, value)
            else:
                build(field, value)
        if grid and not isinstance(ZOO[key], (tuple, list)):
            _refuses(build, error, field, ZOO[key])


@pytest.mark.parametrize("build,error,field,refused,grids", [
    case for case in _cases(RECORDS)
    if case.id in ("RectangleCandidate.ax", "RectangleCandidate.width",
                   "ShapeSpec.base_radius", "ShapeSpec.jitter", "ShapeSpec.harmonics")])
def test_float_field_refuses_an_int_past_the_float_range(build, error, field, refused,
                                                         grids):
    # math.isfinite(10**400) raised OverflowError, past every `except ValueError`
    # (and past the CLI, for a JSON `base_radius`).
    _refuses(build, error, field, ((2, 10**400),) if field in grids else 10**400)


@pytest.mark.parametrize("build,error,field,refused", _cases(ARGUMENTS))
def test_argument_refuses_the_zoo(build, error, field, refused):
    for key, value in ZOO.items():
        if key in refused:
            _refuses(build, error, field, value)
        else:
            build(field, value)


# Flags as the command line spells the zoo; argparse refuses what its int
# or float type cannot read, with a message that names the flag too.
INT_FLAG = ALL - {"str"}                          # "3" reads as 3
EPSILON_FLAG = ALL - {"str", "1.0", "2.5", "1e300"}


@pytest.mark.parametrize("argv,refused", [
    (["lsd", "--table-n"], INT_FLAG),
    (["polygon", "--trace", "--trace-every"], INT_FLAG),
    (["gen", "--kind", "single-square", "--side"], INT_FLAG),
    (["gen", "--kind", "edge", "--width"], INT_FLAG),
    (["gen", "--kind", "edge", "--height"], INT_FLAG),
    (["polygon", "--epsilon"], EPSILON_FLAG),
    (["lsd", "--epsilon"], EPSILON_FLAG),
    (["sweep-single", "--epsilon"], EPSILON_FLAG),
    (["sweep-multi", "--axis", "noise", "--epsilon"], EPSILON_FLAG),
], ids=lambda v: "-".join(a.lstrip("-") for a in v) if isinstance(v, list) else "")
def test_flag_refuses_the_zoo(tmp_path, capsys, argv, refused):
    *command, flag = argv
    out = tmp_path / "out"
    for key in sorted(refused):
        try:
            code = main([*command, f"{flag}={ZOO[key]}", "--out", str(out)])
        except SystemExit as exc:   # argparse's usage error
            code = exc.code
        assert code == EXIT_CONFIG, key
        assert flag.lstrip("-") in capsys.readouterr().err, key
        assert not out.exists(), key


def test_readme_table_matches_the_declarations():
    # The README's table of field rules is the declarations, row for row.
    classes = [LsdConfig, RectangleCandidate, AlignmentCounts, NoiseConfig,
               PartSpec, Square, ShapeSpec, SingleSweepConfig, MultiSweepConfig]
    want = [f"| `{cls.__name__}` | `{name}` | {rule.text} | "
            f"`{cls.FIELDS.error.__name__}` |"
            for cls in classes for name, rule in cls.FIELDS.rules.items()]
    readme = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    rows = [line for line in readme
            if line.startswith("| `") and line.count("|") == 5]
    assert rows == want
