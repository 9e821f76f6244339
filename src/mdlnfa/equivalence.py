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

The producer of a standard family's histogram computes it exactly, with
no enumeration: `count_ones_histogram` in closed form (up to
`MAX_HISTOGRAM_LENGTH`), `weighted_sum_histogram` by a DP over the
positions (within `MAX_SUM_BYTES`) and `longest_run_histogram` by a
run-length recurrence for each bound (up to `MAX_RUN_LENGTH`).
`check_equivalence` takes the histogram of a part whose `xi` is one of
these families (`XI_HISTOGRAMS`, by identity) from its producer.  Called
directly, the producers reach past the enumeration cap, and `decide` reads
those long parts as it reads any other.

Any other part is enumerated by `value_histogram`, the producers' oracle:
`enumerate_configs` yields the configurations as int64 digit matrices of at
most `BLOCK_ROWS` rows, one configuration per row, in lexicographic order,
and `xi` returns one value per row of each.  `check_equivalence` checks
every part against the enumeration cap `MAX_STATES` before any work, so it
refuses the same parts whichever path serves them.

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
MAX_RUN_LENGTH = 1024   # longest_run_histogram's cap: L^2 exact big sums
MAX_SUM_BYTES = 2**29   # weighted_sum_histogram's cap: L times its packed counts' bytes
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
        object.__setattr__(self, "length", int(self.length))   # no numpy wrap

    def states(self, alphabet_size: int) -> int:
        return alphabet_size ** self.length


def _alphabet(alphabet_size) -> int:
    """|X| checked, as a Python int: a numpy int of a narrow dtype wraps."""
    rule("count", ge=2).check("alphabet_size", alphabet_size)
    return int(alphabet_size)


def enumerate_configs(alphabet_size: int, length: int):
    """All |X|^length configurations, lexicographically, as int64 digit
    matrices of at most `BLOCK_ROWS` rows (one configuration per row).

    Raises EnumerationRefused where |X|^length would pass `MAX_STATES`."""
    alphabet_size = _alphabet(alphabet_size)
    rule("count", ge=0).check("length", length)
    length = int(length)
    if length > _max_length(alphabet_size):
        raise EnumerationRefused(
            f"length {length} over an alphabet of {alphabet_size} has more "
            f"configurations than the {MAX_STATES} exhaustive-enumeration cap")
    trailing = 0
    while trailing < length and alphabet_size ** (trailing + 1) <= BLOCK_ROWS:
        trailing += 1
    leading, prefixes = length - trailing, alphabet_size ** (length - trailing)
    # Column-major, so that each digit column is contiguous.
    tail = np.indices((alphabet_size,) * trailing, dtype=np.int64).reshape(
        trailing, alphabet_size ** trailing).T
    # A block puts the tail under `step` consecutive prefixes, so a short
    # tail (none at all where |X| > BLOCK_ROWS) still fills its block.
    step = BLOCK_ROWS // len(tail)
    place = np.array([alphabet_size ** k for k in range(leading, -1, -1)])
    return (_with_prefixes(tail, np.arange(first, min(first + step, prefixes))[:, None]
                           % place[:-1] // place[1:])
            for first in range(0, prefixes, step))


def _max_length(alphabet_size: int) -> int:
    """The largest length of at most `MAX_STATES` configurations, found with
    integers and no power past |X| * MAX_STATES, so that a huge length is
    refused without forming |X|^length."""
    fits, states = 0, alphabet_size
    while states <= MAX_STATES:
        fits, states = fits + 1, states * alphabet_size
    return fits


def _with_prefixes(tail: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """The block of each row of `prefixes` (leading digits) followed by every
    row of `tail`, in that order."""
    (count, leading), (rows, trailing) = prefixes.shape, tail.shape
    block = np.empty((count * rows, leading + trailing), dtype=np.int64, order="F")
    by_prefix = block.reshape(count, rows, leading + trailing)   # a view
    by_prefix[:, :, :leading] = prefixes[:, None]
    by_prefix[:, :, leading:] = tail
    return block


def _name(spec: PartSpec):
    return spec.name or spec.length


def _refuse_past_the_cap(alphabet_size: int, specs) -> None:
    """Raise EnumerationRefused for the first part of more than `MAX_STATES`
    configurations."""
    fits = _max_length(alphabet_size)
    for spec in specs:
        if spec.length > fits:
            # |X|^length in full only while it has at most 64 times the digits of |X|.
            states = (spec.states(alphabet_size) if spec.length <= 64
                      else f"{alphabet_size}^{spec.length}")
            raise EnumerationRefused(
                f"part {_name(spec)} has {states} configurations, "
                f"beyond the {MAX_STATES} exhaustive-enumeration cap")


def value_histogram(spec: PartSpec, alphabet_size: int) -> list[tuple[float, int]]:
    """(value, count) for each distinct xi value of the part, by enumeration,
    in increasing order of value: one `xi` call per block, and the blocks'
    `np.unique` counts merged once (memory grows with their distinct
    values, not with |X|^n)."""
    alphabet_size = _alphabet(alphabet_size)
    _refuse_past_the_cap(alphabet_size, [spec])
    seen = []
    for block in enumerate_configs(alphabet_size, spec.length):
        values = np.asarray(spec.xi(block), dtype=np.float64)
        if values.shape != (len(block),):
            raise ValueError(f"part {_name(spec)}: xi must return one value per "
                             f"row, got shape {values.shape} for {len(block)} rows")
        seen.append(np.unique(values, return_counts=True))
    values, counts = map(np.concatenate, zip(*seen))
    values, where = np.unique(values, return_inverse=True)
    if not np.isfinite(values).all():
        raise ValueError(f"part {_name(spec)}: xi values must be finite "
                         f"(NaN or infinity found)")
    counts = np.bincount(where, counts).astype(np.int64)
    return list(zip(values.tolist(), counts.tolist()))


def count_ones_histogram(alphabet_size: int, length: int) -> list[tuple[float, int]]:
    """`value_histogram` of `xi_count_ones` in closed form, for a length up
    to `MAX_HISTOGRAM_LENGTH`: T(j) = C(L, j) * (|X| - 1)^(L - j)
    configurations have j ones.  T(0) = (|X| - 1)^L, and T(j + 1) =
    T(j) (L - j) / ((j + 1) (|X| - 1)) is an exact integer division."""
    rule("count", ge=2).check("alphabet_size", alphabet_size)
    rule("count", ge=0, le=MAX_HISTOGRAM_LENGTH).check("length", length)
    alphabet_size, length = int(alphabet_size), int(length)   # no int64 overflow
    other = alphabet_size - 1
    counts = [other ** length]
    for j in range(length):
        counts.append(counts[-1] * (length - j) // ((j + 1) * other))
    return [(float(j), count) for j, count in enumerate(counts)]


def weighted_sum_histogram(alphabet_size: int, length: int) -> list[tuple[float, int]]:
    """`value_histogram` of `xi_weighted_sum` by a DP over the positions,
    within `MAX_STATES` sums and `MAX_SUM_BYTES`: the counts of the sums
    s = sum_p p d_p are the coefficients of prod_{p=1..L} (1 + z^p + ... +
    z^((|X| - 1) p)), and the product up to position p counts the partial
    sums.  It is held as one int whose base-256^w digits are those
    coefficients, w bytes holding |X|^L so that no digit carries into the
    next; each factor is `_times_repunit`.  Every sum from 0 to
    (|X| - 1) L (L + 1) / 2 is taken.

    Any part within `MAX_STATES` configurations fits both caps: it has at
    most |X|^L sums, of at most 4 bytes each, and L times their bytes is
    largest at L = 1, |X| = 2^24 (2^26 bytes)."""
    rule("count", ge=2).check("alphabet_size", alphabet_size)
    rule("count", ge=0).check("length", length)
    alphabet_size, length = int(alphabet_size), int(length)
    sums = (alphabet_size - 1) * length * (length + 1) // 2 + 1
    # Checked first, `sums` bounds L and |X| before |X|^L is formed.
    if sums > MAX_STATES or length * sums * (
            width := (alphabet_size ** length).bit_length() // 8 + 1) > MAX_SUM_BYTES:
        raise ValueError(f"the weighted_sum histogram of length {length} over an "
                         f"alphabet of {alphabet_size} passes its caps: more "
                         f"than {MAX_STATES} sums, or L times their packed "
                         f"bytes more than {MAX_SUM_BYTES}")
    counts = 1
    for p in range(1, length + 1):
        counts = _times_repunit(counts, 8 * width * p, alphabet_size)
    raw = counts.to_bytes(sums * width, "little")
    return [(float(s), int.from_bytes(raw[s * width:(s + 1) * width], "little"))
            for s in range(sums)]


def _times_repunit(x: int, shift: int, n: int) -> int:
    """x * (1 + y + ... + y^(n - 1)) for y = 2^shift, by O(log n) shifted
    adds: doubling the repunit's length multiplies it by 1 + y^m, and one
    more term is 1 + y times it."""
    out, m = 0, 0
    for bit in bin(n)[2:]:
        out, m = out + (out << shift * m), 2 * m
        if bit == "1":
            out, m = x + (out << shift), m + 1
    return out


def longest_run_histogram(alphabet_size: int, length: int) -> list[tuple[float, int]]:
    """`value_histogram` of `xi_longest_run` by a run-length recurrence for
    each bound, for a length up to `MAX_RUN_LENGTH` and an alphabet of at
    most `MAX_STATES`.  With runs of at most m, T(n) ways fill n positions
    after a run ends: T(0) = 1 and T(n) = (|X| - 1) S(n), where the window
    S(n) = T(n - 1) + ... + T(max(0, n - m)); then A_m = |X| S(L)
    configurations have no run longer than m, and A_m - A_(m-1) have a
    longest run of m.  The empty configuration's longest run is 1, as
    `xi_longest_run` gives it."""
    rule("count", ge=2, le=MAX_STATES).check("alphabet_size", alphabet_size)
    rule("count", ge=0, le=MAX_RUN_LENGTH).check("length", length)
    alphabet_size, length = int(alphabet_size), int(length)
    if not length:
        return [(1.0, 1)]
    within = [0]   # within[m] = A_m
    for bound in range(1, length + 1):
        fills, window = [1], 0
        for n in range(1, length + 1):
            window += fills[n - 1] - (fills[n - 1 - bound] if n > bound else 0)
            fills.append((alphabet_size - 1) * window)
        within.append(alphabet_size * window)
    return [(float(m), within[m] - within[m - 1]) for m in range(1, length + 1)]


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

    Every part is checked against `MAX_STATES` before any histogram is
    made; then each part's histogram comes from its family's
    `XI_HISTOGRAMS` producer, or else from `value_histogram`.  Requires the
    risk weights to satisfy the Kraft-style budget sum(1/eta) <= 1
    (otherwise the weight family is not a valid allocation and the check is
    refused).  The theorem asserts zero mismatches.
    """
    alphabet_size = _alphabet(alphabet_size)
    parts = list(parts)
    if not parts:
        raise ValueError("at least one part is required")
    budget = kraft_sum(parts)
    if budget > 1:
        raise EnumerationRefused(f"risk weights violate sum(1/eta) <= 1: "
                                 f"sum is {budget}")
    _refuse_past_the_cap(alphabet_size, parts)
    reports = []
    for spec in parts:
        # A producer is found by identity: an xi need not be hashable.
        make = next((make for xi, make in XI_HISTOGRAMS.items() if xi is spec.xi),
                    None)
        histogram = (value_histogram(spec, alphabet_size) if make is None
                     else make(alphabet_size, spec.length))
        states = spec.states(alphabet_size)
        detections, mismatches, boundary = decide(
            spec.eta, states, [count for _, count in histogram])
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

# Each standard family's exact histogram producer, which `check_equivalence`
# uses in place of enumeration (`value_histogram` is its oracle).  A wrapper
# of a family function, such as a tracer installs, is not a key: its parts
# are enumerated.
XI_HISTOGRAMS = {
    xi_count_ones: count_ones_histogram,
    xi_longest_run: longest_run_histogram,
    xi_weighted_sum: weighted_sum_histogram,
}
