"""Exhaustive check that by-parts code-length selection and the a-contrario
decision coincide at threshold 1.

For a part of length n over an alphabet of size |X|, under the uniform null
model, the a-contrario rule detects configuration x when

    eta * |{v : xi(v) >= xi(x)}| / |X|^n  <  1,

while the coding rule describes x apart from the background when

    log2(eta) + l(x)  <  n * log2 |X|,     l(x) = log2 |{v : xi(v) >= xi(x)}| ,

the admissible set being coded uniformly (the shortest equal code length
consistent with coding all at-least-as-extreme configurations alike).  Both
comparisons reduce to the same exact rational inequality; the checker
evaluates them in exact arithmetic so that boundary ties (eta * tail equal to
|X|^n) are decided by arithmetic rather than floating-point rounding, and it
reports how many such boundary-exact configurations occur.

Both decisions depend on a configuration only through its tail, so the
checker decides each distinct tail of a part once and weights the outcome by
the number of configurations that share it.

Configurations are enumerated as digit matrices: `enumerate_configs` yields
int64 blocks of at most `BLOCK_ROWS` rows, one configuration per row, in
lexicographic order.  An ordering function `xi` takes such a matrix and
returns one value per row, so each part costs one `xi` call per block.  A
single configuration `x` is scored as a one-row matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

MAX_STATES = 2**24   # desk-scale exhaustiveness cap per part
BLOCK_ROWS = 2**16   # rows per digit-matrix block: bounds enumeration memory


class EnumerationRefused(ValueError):
    """The requested check violates an enumerability or budget constraint."""


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PartSpec:
    """One tested part: its length, risk weight, and ordering function.

    `xi` maps an int64 matrix with one configuration per row to one float
    per row.
    """

    length: int
    eta: Fraction
    xi: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if not _is_count(self.length) or self.length < 1:
            raise ValueError(f"part length must be an integer >= 1, "
                             f"got {self.length!r}")
        if isinstance(self.eta, bool):
            raise ValueError(f"risk weight eta must be a number, "
                             f"got {self.eta!r}")
        eta = Fraction(self.eta)
        if eta <= 0:
            raise ValueError(f"risk weight eta must be positive, got {self.eta}")
        object.__setattr__(self, "eta", eta)

    def states(self, alphabet_size: int) -> int:
        return alphabet_size ** self.length


def _check_alphabet(alphabet_size: int) -> None:
    if not _is_count(alphabet_size) or alphabet_size < 2:
        raise ValueError(f"alphabet size must be an integer >= 2, "
                         f"got {alphabet_size!r}")


def enumerate_configs(alphabet_size: int, length: int):
    """All |X|^length configurations, lexicographically, as int64 digit
    matrices of at most `BLOCK_ROWS` rows (one configuration per row)."""
    _check_alphabet(alphabet_size)
    if not _is_count(length) or length < 0:
        raise ValueError(f"length must be an integer >= 0, got {length!r}")
    trailing = 0
    while trailing < length and alphabet_size ** (trailing + 1) <= BLOCK_ROWS:
        trailing += 1
    leading = length - trailing
    # Column-major, so that each digit column is contiguous.
    tail = np.indices((alphabet_size,) * trailing, dtype=np.int64).reshape(
        trailing, alphabet_size ** trailing).T
    return (_with_prefix(tail, prefix, leading, alphabet_size)
            for prefix in range(alphabet_size ** leading))


def _with_prefix(tail: np.ndarray, prefix: int, leading: int,
                 alphabet_size: int) -> np.ndarray:
    """The block of configurations whose `leading` digits spell `prefix`."""
    if not leading:
        return tail
    block = np.empty((len(tail), leading + tail.shape[1]), dtype=np.int64,
                     order="F")
    block[:, leading:] = tail
    for j in range(leading - 1, -1, -1):
        prefix, block[:, j] = divmod(prefix, alphabet_size)
    return block


def _name(spec: PartSpec):
    return spec.name or spec.length


def _xi_rows(spec: PartSpec, rows: np.ndarray) -> np.ndarray:
    values = np.asarray(spec.xi(rows), dtype=np.float64)
    if values.shape != (len(rows),):
        raise ValueError(f"part {_name(spec)}: xi must return one value per "
                         f"row, got shape {values.shape} for {len(rows)} rows")
    return values


def _xi_values(spec: PartSpec, alphabet_size: int) -> np.ndarray:
    _check_alphabet(alphabet_size)
    states = spec.states(alphabet_size)
    if states > MAX_STATES:
        raise EnumerationRefused(
            f"part {_name(spec)} has {states} configurations, "
            f"beyond the {MAX_STATES} exhaustive-enumeration cap")
    values = np.concatenate([_xi_rows(spec, block) for block in
                             enumerate_configs(alphabet_size, spec.length)])
    if not np.isfinite(values).all():
        raise ValueError(f"part {_name(spec)}: xi values must be "
                         f"finite (NaN or infinity found)")
    return values


def tail_count(spec: PartSpec, alphabet_size: int, threshold: float) -> int:
    """Exact count of configurations v with xi(v) >= threshold.

    A threshold of +inf counts none and -inf counts all; NaN is refused.
    """
    values = _xi_values(spec, alphabet_size)
    if math.isnan(threshold):
        raise ValueError(f"part {_name(spec)}: threshold must be a number, got NaN")
    return int((values >= threshold).sum())


def _tail_of(spec: PartSpec, alphabet_size: int, x) -> int:
    """tail_count at xi(x), once x is checked to be a configuration of the
    part: `spec.length` integer digits in [0, alphabet_size)."""
    _check_alphabet(alphabet_size)
    row = np.asarray(x)
    if (row.dtype.kind not in "iu" or row.shape != (spec.length,)
            or not ((row >= 0) & (row < alphabet_size)).all()):
        raise ValueError(f"part {_name(spec)}: x must be {spec.length} integer "
                         f"digits in [0, {alphabet_size}), got {x!r}")
    threshold = float(_xi_rows(spec, row.astype(np.int64).reshape(1, -1))[0])
    return tail_count(spec, alphabet_size, threshold)


def _nfa_detects(eta: Fraction, tail: int, states: int) -> bool:
    # eta * P[xi >= threshold] < 1 in exact rational arithmetic.
    return eta * Fraction(tail, states) < 1


def _mdl_detects(eta: Fraction, tail: int, states: int) -> bool:
    # log2(eta) + log2(tail) < log2(states), compared as eta * tail < states
    # by integer cross-multiplication (the logs are monotone).
    return eta.numerator * tail < eta.denominator * states


def nfa_decision(spec: PartSpec, alphabet_size: int, x) -> bool:
    """True iff eta * P[xi(V) >= xi(x)] < 1 under the uniform null model."""
    tail = _tail_of(spec, alphabet_size, x)
    return _nfa_detects(spec.eta, tail, spec.states(alphabet_size))


def part_code_length(spec: PartSpec, alphabet_size: int, x) -> float:
    """Ideal code length of describing x as a part: log2(eta) + log2(tail)."""
    tail = _tail_of(spec, alphabet_size, x)
    return math.log2(spec.eta) + math.log2(tail)


def mdl_parts_decision(spec: PartSpec, alphabet_size: int, x) -> bool:
    """True iff log2(eta) + l(x) < length * log2 |X|.

    l(x) is the uniform code over the configurations scoring at least xi(x);
    x always belongs to its own admissible set, so the tail is never empty.
    The inequality is evaluated in exact rational form (it is the log of
    eta * tail < |X|^n), keeping boundary ties rounding-free.
    """
    tail = _tail_of(spec, alphabet_size, x)
    return _mdl_detects(spec.eta, tail, spec.states(alphabet_size))


def kraft_sum(parts) -> Fraction:
    return sum((Fraction(1, 1) / Fraction(p.eta) for p in parts), Fraction(0))


@dataclass(frozen=True)
class PartReport:
    name: str
    length: int
    eta: Fraction
    n_configs: int
    detections: int
    mismatches: int
    boundary_exact: int


@dataclass(frozen=True)
class EquivalenceReport:
    alphabet_size: int
    parts: tuple[PartReport, ...]
    kraft: Fraction

    @property
    def total_configs(self) -> int:
        return sum(p.n_configs for p in self.parts)

    @property
    def total_mismatches(self) -> int:
        return sum(p.mismatches for p in self.parts)

    @property
    def total_boundary_exact(self) -> int:
        return sum(p.boundary_exact for p in self.parts)

    def format(self) -> str:
        lines = [f"alphabet size {self.alphabet_size}, "
                 f"{len(self.parts)} parts, kraft sum {self.kraft} "
                 f"({'ok' if self.kraft <= 1 else 'VIOLATED'})"]
        for p in self.parts:
            lines.append(f"  part {p.name or p.length}: length {p.length}, "
                         f"eta {p.eta}, {p.n_configs} configurations, "
                         f"{p.detections} detections, "
                         f"{p.mismatches} mismatches, "
                         f"{p.boundary_exact} boundary-exact")
        lines.append(f"total: {self.total_configs} configurations, "
                     f"{self.total_mismatches} mismatches, "
                     f"{self.total_boundary_exact} boundary-exact")
        return "\n".join(lines)


def check_equivalence(alphabet_size: int, parts) -> EquivalenceReport:
    """Run both decisions on every configuration of every part (each
    distinct tail is decided once and counted for all its configurations).

    Requires the risk weights to satisfy the Kraft-style budget
    sum(1/eta) <= 1 (otherwise the weight family is not a valid allocation
    and the check is refused).  The theorem asserts zero mismatches.
    """
    _check_alphabet(alphabet_size)
    parts = list(parts)
    if not parts:
        raise ValueError("at least one part is required")
    budget = kraft_sum(parts)
    if budget > 1:
        raise EnumerationRefused(f"risk weights violate sum(1/eta) <= 1: "
                                 f"sum is {budget}")
    reports = []
    for spec in parts:
        states = spec.states(alphabet_size)
        values = _xi_values(spec, alphabet_size)
        # Both decisions read only tail(v) = #configs with value >= xi(v),
        # so the tail of each distinct value is decided once and counted
        # for each of the `weight` configurations that have that value.
        weights = np.unique(values, return_counts=True)[1]
        tails = np.cumsum(weights[::-1])[::-1]
        detections = mismatches = boundary = 0
        eta = spec.eta
        for tail, weight in zip(tails.tolist(), weights.tolist()):
            nfa_detect = _nfa_detects(eta, tail, states)
            mdl_detect = _mdl_detects(eta, tail, states)
            if eta.numerator * tail == eta.denominator * states:
                boundary += weight
            detections += weight * nfa_detect
            mismatches += weight * (nfa_detect != mdl_detect)
        reports.append(PartReport(name=spec.name, length=spec.length,
                                  eta=eta, n_configs=states,
                                  detections=detections,
                                  mismatches=mismatches,
                                  boundary_exact=boundary))
    return EquivalenceReport(alphabet_size=alphabet_size, parts=tuple(reports),
                             kraft=budget)


# Standard ordering-function families for the exhaustive runs: each takes
# a digit matrix and returns one float per row.

def xi_count_ones(v: np.ndarray) -> np.ndarray:
    return np.count_nonzero(v == 1, axis=1).astype(np.float64)


def xi_longest_run(v: np.ndarray) -> np.ndarray:
    best = run = np.ones(len(v), dtype=np.int64)
    for j in range(1, v.shape[1]):
        run = np.where(v[:, j] == v[:, j - 1], run + 1, 1)
        best = np.maximum(best, run)
    return best.astype(np.float64)


def xi_weighted_sum(v: np.ndarray) -> np.ndarray:
    return (v @ np.arange(1, v.shape[1] + 1)).astype(np.float64)


def make_random_xi(seed: int, low: int = 0, high: int = 100):
    """Deterministic random integer-valued ordering function (memoized per
    configuration; values are drawn in the order rows are first seen)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    table: dict[tuple, float] = {}

    def xi(v: np.ndarray) -> np.ndarray:
        out = np.empty(len(v))
        for i, row in enumerate(map(tuple, v.tolist())):
            if row not in table:
                table[row] = float(rng.integers(low, high + 1))
            out[i] = table[row]
        return out

    return xi


XI_FAMILIES = {
    "count_ones": xi_count_ones,
    "longest_run": xi_longest_run,
    "weighted_sum": xi_weighted_sum,
}
