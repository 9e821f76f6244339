"""Code-length (MDL) and false-alarm (NFA) scores for square hypotheses.

Single-square detection compares the enumerative two-part code of the image
under "background only" against "one square plus background"; the a-contrario
counterpart weighs the binomial tail of the ones count inside the square
against the n^(3/2) candidate squares.  The multi-square variant extends both
to hypotheses holding c disjoint squares.

Decision conventions: MDL detects/selects iff the score is negative; NFA
detects iff NFA <= epsilon (`numeric.meaningful`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import BinaryImage, Square
from .numeric import CRITERION, EPSILON, HypothesisCounts, RegionCounts, Score, complement


@dataclass(frozen=True)
class SquareHypothesis:
    """A set of c >= 0 pairwise-disjoint squares (c = 0 means background only)."""

    squares: tuple[Square, ...] = ()

    def __post_init__(self):
        squares = tuple(self.squares)
        object.__setattr__(self, "squares", squares)
        for i, a in enumerate(squares):
            for b in squares[i + 1:]:
                if a.overlaps(b):
                    raise ValueError(f"squares overlap: {a} and {b}")

    @property
    def c(self) -> int:
        return len(self.squares)


def _square_counts(image: BinaryImage, sq: Square) -> RegionCounts:
    if sq.row + sq.side > image.height or sq.col + sq.side > image.width:
        raise ValueError(f"{sq} does not fit in {image.width}x{image.height}")
    block = image.pixels[sq.row:sq.row + sq.side, sq.col:sq.col + sq.side]
    return RegionCounts(n=sq.n1, k=int(np.count_nonzero(block)))


def single_counts(image: BinaryImage, sq: Square) -> HypothesisCounts:
    """Counts of one square against background only: `single_record` of
    the square's counts in `image`."""
    inside = _square_counts(image, sq)
    total = image.counts
    return single_record(inside, complement(total, [inside]), total)


def single_record(square: RegionCounts, background: RegionCounts,
                  image: RegionCounts) -> HypothesisCounts:
    """Counts of one square against the rest of the image, `background`,
    from counts alone.

    MDL: L1 - L0, with L1 = 3/2 log2 n (position and side) plus separate
    enumerative codes for the background and square interiors.  NFA:
    log2 NFA = 3/2 log2 n + log2 B(n1, k1, q), with q the image density.
    The Stirling form `approx_mdl_bits` is defined only where no count is 0
    or n; the Hoeffding bound `approx_log2_nfa` only where k1/n1 > q.
    """
    header = 1.5 * math.log2(image.n)
    return HypothesisCounts(((header, (background, square)),), header,
                            (*square, image.q), whole=image)


def mdl_score_single(image: BinaryImage, sq: Square) -> float:
    """`single_counts(image, sq).mdl_bits()`, a perfbench span until ROADMAP item 1."""
    return single_counts(image, sq).mdl_bits()


def nfa_score_single(image: BinaryImage, sq: Square) -> float:
    """`single_counts(image, sq).log2_nfa()`, a perfbench span until ROADMAP item 1."""
    return single_counts(image, sq).log2_nfa()


def multi_counts(image: BinaryImage, hyp: SquareHypothesis) -> HypothesisCounts:
    """Counts of c >= 0 disjoint squares.

    MDL: L_H - L0, each square costing 3/2 log2 n for its geometry plus its
    own enumerative code, and c sent with the geometric prior (c + 1 bits).
    NFA: log2 NFA = c + (3c/2) log2 n + log2 B(sum n_i, sum k_i, q); the 2^c
    factor spreads the false-alarm budget over sub-families by square count,
    and pooled counts are meaningful because the squares are disjoint.
    The empty hypothesis (c = 0) costs L0 + 1 bit, 1 bit relative, and makes
    no test: its log2 NFA is +inf, infinite tests over the tail from k = 0.
    """
    total = image.counts
    if hyp.c == 0:
        return HypothesisCounts(((1.0, ()),), math.inf, (total.n, 0, total.q))
    log2_tests = hyp.c + 1.5 * hyp.c * math.log2(total.n)
    if hyp.c == 1:
        # The single-square code, then the 2 count bits: keeps the c=1
        # identity (multi = single + 2) exact in floating point.
        return single_counts(image, hyp.squares[0])._replace(log2_tests=log2_tests,
                                                              extra=2.0)
    insides = [_square_counts(image, sq) for sq in hyp.squares]
    geometry = 1.5 * math.log2(total.n)
    return HypothesisCounts(
        ((0.0, (complement(total, insides),)), (hyp.c, ()), (1.0, ()),
         *((geometry, (c,)) for c in insides)),
        log2_tests, (sum(c.n for c in insides), sum(c.k for c in insides), total.q),
        whole=total)


@dataclass(frozen=True)
class SelectionResult:
    """The scored candidates, in order, and the choice of each criterion
    from that one table."""

    table: tuple[tuple[SquareHypothesis, Score], ...]
    mdl: SquareHypothesis
    nfa: SquareHypothesis


def select_hypothesis(image: BinaryImage, candidates,
                      epsilon: float = 1.0) -> SelectionResult:
    """Score every candidate once and pick under both criteria with
    `pick_hypothesis`."""
    table = tuple((hyp, multi_counts(image, hyp).score()) for hyp in candidates)
    if not table:
        raise ValueError("candidate list must not be empty")
    return SelectionResult(table, pick_hypothesis(table, "mdl", epsilon),
                           pick_hypothesis(table, "nfa", epsilon))


def pick_hypothesis(table, criterion: str,
                    epsilon: float = 1.0) -> SquareHypothesis:
    """Pick the best hypothesis from a scored `(hypothesis, Score)` table.

    MDL: minimal code length, the empty hypothesis (cost L0 + 1) playing the
    role of "no detection".  NFA: minimal log2 NFA among candidates passing
    the epsilon threshold; if none passes, the empty hypothesis is returned.
    An empty table is refused under both criteria.
    """
    CRITERION.check("criterion", criterion)
    EPSILON.check("epsilon", epsilon)
    table = tuple(table)
    if not table:
        raise ValueError("the table of scored hypotheses is empty")
    if criterion == "mdl":
        return min(table, key=lambda item: item[1].mdl_bits)[0]
    passing = [item for item in table if item[1].nfa_detects(epsilon)]
    return min(passing, key=lambda item: item[1].log2_nfa,
               default=(SquareHypothesis(),))[0]


def four_square_layout(extent: int, margin: int, width: int,
                       height: int) -> tuple[SquareHypothesis, ...]:
    """The four standard hypotheses for a centered 2x2 array of squares.

    The array occupies a fixed extent x extent region; growing the margin
    shrinks the small squares (side = (extent - margin) / 2).  Returns
    (background, one small square, four small squares, one large square).
    """
    if (extent - margin) % 2 != 0:
        raise ValueError("extent - margin must be even so squares have "
                         "integer sides")
    side = (extent - margin) // 2
    if side < 1:
        raise ValueError(f"margin {margin} leaves no room for squares")
    base_r = (height - extent) // 2
    base_c = (width - extent) // 2
    offset = side + margin
    small = [Square(base_r, base_c, side),
             Square(base_r, base_c + offset, side),
             Square(base_r + offset, base_c, side),
             Square(base_r + offset, base_c + offset, side)]
    return (SquareHypothesis(),
            SquareHypothesis((small[0],)),
            SquareHypothesis(tuple(small)),
            SquareHypothesis((Square(base_r, base_c, extent),)))
