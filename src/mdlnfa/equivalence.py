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

The checker is a producer and a decider.  Both decisions read a
configuration only through its tail, so a part enters them only through the
histogram of its `xi` values: its distinct values in increasing order, each
with the number of configurations that take it.

The producer enumerates configurations as digit matrices:
`enumerate_configs` yields int64 blocks of at most `BLOCK_ROWS` rows, one
configuration per row, in lexicographic order.  An ordering function `xi`
takes such a matrix and returns one value per row.  Each block of a length
is made once and handed to every part of that length, so a part costs one
`xi` call per block, and its histogram is merged block by block from
`np.unique` counts (memory grows with its distinct values, not with |X|^n).
Past the enumeration cap, `count_ones_histogram` gives the `count_ones`
histogram in closed form, up to `MAX_HISTOGRAM_LENGTH`.

The decider forms the tails as exact suffix sums of the counts.  Both rules
are monotone in the tail, so `decide` bisects for each rule's first
detecting tail, evaluating that rule and nothing else: the mismatches are
the configurations between the two thresholds, and the boundary-exact tail
(eta * tail = |X|^n) is found by an integer search of its own.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable

import numpy as np

from .numeric import Fields, rule

MAX_STATES = 2**24   # desk-scale exhaustiveness cap per part
MAX_HISTOGRAM_LENGTH = 4096   # count_ones_histogram's cap: L + 1 exact big terms
BLOCK_ROWS = 2**16   # rows per digit-matrix block: bounds enumeration memory


class EnumerationRefused(ValueError):
    """The requested check violates an enumerability or budget constraint."""


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

    FIELDS = Fields(ValueError, length=rule("count", ge=1), eta=rule("finite", gt=0))

    def __post_init__(self):
        PartSpec.FIELDS.check(self)
        eta = self.eta   # Fraction reads a numpy float only as a float
        object.__setattr__(self, "eta", Fraction(
            eta if isinstance(eta, (int, np.integer, Fraction)) else float(eta)))

    def states(self, alphabet_size: int) -> int:
        return alphabet_size ** self.length




def enumerate_configs(alphabet_size: int, length: int):
    """All |X|^length configurations, lexicographically, as int64 digit
    matrices of at most `BLOCK_ROWS` rows (one configuration per row).

    Raises EnumerationRefused where |X|^length would pass `MAX_STATES`."""
    rule("count", ge=2).check("alphabet_size", alphabet_size)
    rule("count", ge=0).check("length", length)
    if length > _max_length(alphabet_size):
        raise EnumerationRefused(
            f"length {length} over an alphabet of {alphabet_size} has more "
            f"configurations than the {MAX_STATES} exhaustive-enumeration cap")
    trailing = 0
    while trailing < length and alphabet_size ** (trailing + 1) <= BLOCK_ROWS:
        trailing += 1
    leading = length - trailing
    # Column-major, so that each digit column is contiguous.
    tail = np.indices((alphabet_size,) * trailing, dtype=np.int64).reshape(
        trailing, alphabet_size ** trailing).T
    return (_with_prefix(tail, prefix, leading, alphabet_size)
            for prefix in range(alphabet_size ** leading))


def _max_length(alphabet_size: int) -> int:
    """The largest length of at most `MAX_STATES` configurations, found with
    integers and no power past |X| * MAX_STATES, so that a huge length is
    refused without forming |X|^length."""
    fits, states = 0, alphabet_size
    while states <= MAX_STATES:
        fits, states = fits + 1, states * alphabet_size
    return fits


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


def _histograms(alphabet_size: int, specs) -> list:
    """Each part's xi histogram, as a sorted float64 array of its distinct
    values and an int64 array of their counts.

    Every part is checked against the cap before any is enumerated.  Each
    distinct length is enumerated once, and each of its blocks is scored by
    every part of that length.
    """
    rule("count", ge=2).check("alphabet_size", alphabet_size)
    fits = _max_length(alphabet_size)
    for spec in specs:
        if spec.length > fits:
            # |X|^length in full only while it has at most 64 times the digits of |X|.
            states = (spec.states(alphabet_size) if spec.length <= 64
                      else f"{alphabet_size}^{spec.length}")
            raise EnumerationRefused(
                f"part {_name(spec)} has {states} configurations, "
                f"beyond the {MAX_STATES} exhaustive-enumeration cap")
    by_length: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        by_length.setdefault(spec.length, []).append(i)
    out = [None] * len(specs)
    for length, members in by_length.items():
        for block in enumerate_configs(alphabet_size, length):
            for i in members:
                seen = np.unique(_xi_rows(specs[i], block), return_counts=True)
                out[i] = seen if out[i] is None else _merge(out[i], seen)
        for i in members:
            if not np.isfinite(out[i][0]).all():
                raise ValueError(f"part {_name(specs[i])}: xi values must be "
                                 f"finite (NaN or infinity found)")
    return out


def _merge(held, seen):
    """The histogram of two sets of configurations from their histograms."""
    values, where = np.unique(np.concatenate((held[0], seen[0])),
                              return_inverse=True)
    counts = np.bincount(where, np.concatenate((held[1], seen[1])),
                         minlength=len(values))
    return values, counts.astype(np.int64)


def value_histogram(spec: PartSpec, alphabet_size: int) -> list[tuple[float, int]]:
    """(value, count) for each distinct xi value of the part, by enumeration,
    in increasing order of value."""
    values, counts = _histograms(alphabet_size, [spec])[0]
    return list(zip(values.tolist(), counts.tolist()))


def count_ones_histogram(alphabet_size: int, length: int) -> list[tuple[float, int]]:
    """`value_histogram` of `xi_count_ones` in closed form, for a length up
    to `MAX_HISTOGRAM_LENGTH`: T(j) = C(L, j) * (|X| - 1)^(L - j)
    configurations have j ones.  T(0) = (|X| - 1)^L, and T(j + 1) =
    T(j) (L - j) / ((j + 1) (|X| - 1)) is an exact integer division."""
    rule("count", ge=2).check("alphabet_size", alphabet_size)
    rule("count", ge=0, le=MAX_HISTOGRAM_LENGTH).check("length", length)
    other = alphabet_size - 1
    counts = [other ** length]
    for j in range(length):
        counts.append(counts[-1] * (length - j) // ((j + 1) * other))
    return [(float(j), count) for j, count in enumerate(counts)]


def _nfa_detects(eta: Fraction, tail: int, states: int) -> bool:
    # eta * P[xi >= threshold] < 1 in exact rational arithmetic.
    return eta * Fraction(tail, states) < 1


def _mdl_detects(eta: Fraction, tail: int, states: int) -> bool:
    # log2(eta) + log2(tail) < log2(states), compared as eta * tail < states
    # by integer cross-multiplication (the logs are monotone).
    return eta.numerator * tail < eta.denominator * states


def decide(eta: Fraction, states: int, weights) -> tuple[int, int, int]:
    """(detections, mismatches, boundary_exact) of a part of `states`
    configurations whose distinct xi values, in increasing order, are taken
    by `weights[i]` configurations each (positive ints).

    tails[i] = sum(weights[i:]) falls as i grows, and each rule detects
    exactly the tails below its own threshold, so one bisection per rule
    finds its first detecting index.
    """
    n = len(weights)
    tails = list(accumulate(reversed(weights), initial=0))[::-1]

    def first(detects):
        return bisect_left(range(n), True,
                           key=lambda i: detects(eta, tails[i], states))

    # Each rule is read from the module at call time and evaluated on its
    # own: merged into one inequality, the check would test nothing.
    nfa, mdl = first(_nfa_detects), first(_mdl_detects)
    num, den = eta.numerator, eta.denominator
    edge = bisect_left(range(n), True,
                       key=lambda i: num * tails[i] <= den * states)
    boundary = (weights[edge]
                if edge < n and num * tails[edge] == den * states else 0)
    return tails[nfa], abs(tails[nfa] - tails[mdl]), boundary


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
    """Run both decisions on every configuration of every part: each part's
    histogram goes to `decide`, which finds one threshold per rule.

    Every part is checked against `MAX_STATES` before any is enumerated.
    Requires the risk weights to satisfy the Kraft-style budget
    sum(1/eta) <= 1 (otherwise the weight family is not a valid allocation
    and the check is refused).  The theorem asserts zero mismatches.
    """
    rule("count", ge=2).check("alphabet_size", alphabet_size)
    parts = list(parts)
    if not parts:
        raise ValueError("at least one part is required")
    budget = kraft_sum(parts)
    if budget > 1:
        raise EnumerationRefused(f"risk weights violate sum(1/eta) <= 1: "
                                 f"sum is {budget}")
    reports = []
    for spec, (_, counts) in zip(parts, _histograms(alphabet_size, parts)):
        states = spec.states(alphabet_size)
        detections, mismatches, boundary = decide(spec.eta, states,
                                                  counts.tolist())
        reports.append(PartReport(name=spec.name, length=spec.length,
                                  eta=spec.eta, n_configs=states,
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
    configuration; values are drawn in the order rows are first seen, all
    new rows of a call in one draw, which gives the values of one scalar
    draw per row)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    table: dict[bytes, int] = {}

    def xi(v: np.ndarray) -> np.ndarray:
        keys = list(map(bytes, np.ascontiguousarray(v, dtype=np.int64)))
        new = [key for key in dict.fromkeys(keys) if key not in table]
        table.update(zip(new, rng.integers(low, high + 1, size=len(new)).tolist()))
        return np.fromiter(map(table.__getitem__, keys), np.float64, len(keys))

    return xi


XI_FAMILIES = {
    "count_ones": xi_count_ones,
    "longest_run": xi_longest_run,
    "weighted_sum": xi_weighted_sum,
}
