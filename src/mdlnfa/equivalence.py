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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

MAX_STATES = 2**24   # desk-scale exhaustiveness cap per part


class EnumerationRefused(ValueError):
    """The requested check violates an enumerability or budget constraint."""


@dataclass(frozen=True)
class PartSpec:
    """One tested part: its length, risk weight, and ordering function."""

    length: int
    eta: Fraction
    xi: Callable[[tuple[int, ...]], float]
    name: str = ""

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"part length must be >= 1, got {self.length}")
        eta = Fraction(self.eta)
        if eta <= 0:
            raise ValueError(f"risk weight eta must be positive, got {self.eta}")
        object.__setattr__(self, "eta", eta)

    def states(self, alphabet_size: int) -> int:
        return alphabet_size ** self.length


def _check_alphabet(alphabet_size: int) -> None:
    if alphabet_size < 2:
        raise ValueError(f"alphabet size must be >= 2, got {alphabet_size}")


def enumerate_configs(alphabet_size: int, length: int):
    """All |X|^length configurations, lexicographically."""
    _check_alphabet(alphabet_size)
    return product(range(alphabet_size), repeat=length)


def _xi_values(spec: PartSpec, alphabet_size: int) -> np.ndarray:
    states = spec.states(alphabet_size)
    if states > MAX_STATES:
        raise EnumerationRefused(
            f"part {spec.name or spec.length} has {states} configurations, "
            f"beyond the {MAX_STATES} exhaustive-enumeration cap")
    values = np.array([spec.xi(v) for v in enumerate_configs(alphabet_size,
                                                             spec.length)],
                      dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"part {spec.name or spec.length}: xi values must be "
                         f"finite (NaN or infinity found)")
    return values


def tail_count(spec: PartSpec, alphabet_size: int, threshold: float) -> int:
    """Exact count of configurations v with xi(v) >= threshold."""
    values = _xi_values(spec, alphabet_size)
    return int((values >= threshold).sum())


def _nfa_detects(eta: Fraction, tail: int, states: int) -> bool:
    # eta * P[xi >= threshold] < 1 in exact rational arithmetic.
    return eta * Fraction(tail, states) < 1


def _mdl_detects(eta: Fraction, tail: int, states: int) -> bool:
    # log2(eta) + log2(tail) < log2(states), compared as eta * tail < states
    # by integer cross-multiplication (the logs are monotone).
    return eta.numerator * tail < eta.denominator * states


def nfa_decision(spec: PartSpec, alphabet_size: int, x) -> bool:
    """True iff eta * P[xi(V) >= xi(x)] < 1 under the uniform null model."""
    tail = tail_count(spec, alphabet_size, spec.xi(tuple(x)))
    return _nfa_detects(spec.eta, tail, spec.states(alphabet_size))


def part_code_length(spec: PartSpec, alphabet_size: int, x) -> float:
    """Ideal code length of describing x as a part: log2(eta) + log2(tail)."""
    tail = tail_count(spec, alphabet_size, spec.xi(tuple(x)))
    return math.log2(spec.eta) + math.log2(tail)


def mdl_parts_decision(spec: PartSpec, alphabet_size: int, x) -> bool:
    """True iff log2(eta) + l(x) < length * log2 |X|.

    l(x) is the uniform code over the configurations scoring at least xi(x);
    x always belongs to its own admissible set, so the tail is never empty.
    The inequality is evaluated in exact rational form (it is the log of
    eta * tail < |X|^n), keeping boundary ties rounding-free.
    """
    tail = tail_count(spec, alphabet_size, spec.xi(tuple(x)))
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
        order = np.sort(values)
        # tail(v) = #configs with value >= xi(v), via binary search.  Both
        # decisions read only the tail, so each distinct tail is decided
        # once and counted for each of the weights[tail] configurations
        # that have it.
        weights = np.bincount(states - np.searchsorted(order, values, side="left"))
        tails = np.flatnonzero(weights)
        detections = mismatches = boundary = 0
        eta = spec.eta
        for tail, weight in zip(tails.tolist(), weights[tails].tolist()):
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


# Standard ordering-function families for the exhaustive runs.

def xi_count_ones(v) -> float:
    return float(v.count(1))


def xi_longest_run(v) -> float:
    best = run = 1
    prev = None   # equal to no symbol, so the first one starts a run
    for s in v:
        if s == prev:
            run += 1
            if run > best:
                best = run
        else:
            prev, run = s, 1
    return float(best)


def xi_weighted_sum(v) -> float:
    return float(sum((j + 1) * s for j, s in enumerate(v)))


def make_random_xi(seed: int, low: int = 0, high: int = 100):
    """Deterministic random integer-valued ordering function (memoized)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    table: dict[tuple, float] = {}

    def xi(v) -> float:
        key = tuple(v)
        if key not in table:
            table[key] = float(rng.integers(low, high + 1))
        return table[key]

    return xi


XI_FAMILIES = {
    "count_ones": xi_count_ones,
    "longest_run": xi_longest_run,
    "weighted_sum": xi_weighted_sum,
}
