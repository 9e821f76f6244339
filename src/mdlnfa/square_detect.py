"""Code-length (MDL) and false-alarm (NFA) scores for square hypotheses.

Single-square detection compares the enumerative two-part code of the image
under "background only" against "one square plus background"; the a-contrario
counterpart weighs the binomial tail of the ones count inside the square
against the n^(3/2) candidate squares.  The multi-square variant extends both
to hypotheses holding c disjoint squares.

Decision conventions: MDL detects/selects iff the score is negative; NFA
detects iff log2(NFA) <= log2(epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .imaging import BinaryImage
from .numeric import (
    DomainError,
    RegionCounts,
    Score,
    bernoulli_kld,
    binomial_tail_log,
    code_length,
    complement,
    g_term,
    l0_code_length,
)

_HALF_LOG2_2PI = 0.5 * math.log2(2.0 * math.pi)


@dataclass(frozen=True)
class Square:
    """Axis-aligned square: top-left pixel (row, col) and side length."""

    row: int
    col: int
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise ValueError(f"square side must be >= 1, got {self.side}")
        if self.row < 0 or self.col < 0:
            raise ValueError(f"square corner must be non-negative, got "
                             f"({self.row}, {self.col})")

    @property
    def n1(self) -> int:
        return self.side * self.side

    def overlaps(self, other: "Square") -> bool:
        return not (self.row + self.side <= other.row
                    or other.row + other.side <= self.row
                    or self.col + self.side <= other.col
                    or other.col + other.side <= self.col)


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
    return RegionCounts(n=sq.n1, k=int(block.sum()))


def mdl_score_single(image: BinaryImage, sq: Square) -> float:
    """L1 - L0 for a single square hypothesis.

    L1 = 3/2 log n (position and side) plus separate enumerative codes for
    the background and square interiors.
    """
    inside = _square_counts(image, sq)
    total = image.counts
    l1 = code_length(1.5 * math.log2(total.n),
                     [complement(total, [inside]), (inside.n, inside.k)])
    return l1 - l0_code_length(total)


def nfa_score_single(image: BinaryImage, sq: Square) -> float:
    """log2 NFA = 3/2 log2 n + log2 B(n1, k1, q) with q the image density."""
    inside = _square_counts(image, sq)
    total = image.counts
    return 1.5 * math.log2(total.n) + binomial_tail_log(inside.n, inside.k, total.q)


def approx_log_nfa(square: RegionCounts, image: RegionCounts) -> float:
    """Hoeffding/KLD approximation: 3/2 log2 n - n1 D(q1 || q).

    Valid only when the square is denser than the image (q1 > q); an upper
    bound on (and large-n proxy for) nfa_score_single.
    """
    if not square.q > image.q:
        raise DomainError(f"approximation requires q1 > q, got q1={square.q}, "
                          f"q={image.q}")
    return 1.5 * math.log2(image.n) - square.n * bernoulli_kld(square.q, image.q)


def approx_mdl_score(square: RegionCounts, background: RegionCounts,
                     image: RegionCounts) -> float:
    """Stirling-expanded MDL score.

    3/2 log2 n - n0 D(q0||q) - n1 D(q1||q)
      + (g(k0,n0) + g(k1,n1) - g(k,n)) / 2 - log2(2 pi)/2.
    Boundary counts (k hitting 0 or n in any part) fall outside the
    expansion's domain; the exact mdl_score_single has no such limit.
    """
    for part in (square, background, image):
        if part.k == 0 or part.k == part.n:
            raise DomainError("Stirling expansion undefined at boundary counts")
    n = image.n
    residual = 0.5 * (g_term(background.k, background.n)
                      + g_term(square.k, square.n)
                      - g_term(image.k, image.n))
    return (1.5 * math.log2(n)
            - background.n * bernoulli_kld(background.q, image.q)
            - square.n * bernoulli_kld(square.q, image.q)
            + residual - _HALF_LOG2_2PI)


def mdl_score_multi(image: BinaryImage, hyp: SquareHypothesis) -> float:
    """L_H - L0 for a hypothesis of c disjoint squares.

    Each square costs 3/2 log n for its geometry plus its own enumerative
    code; the count c is sent with the geometric prior (c + 1 bits).  The
    empty hypothesis therefore scores exactly +1.
    """
    total = image.counts
    if hyp.c == 0:
        return 1.0
    if hyp.c == 1:
        # Same counts path as the single-square score; keeps the c=1
        # identity (multi = single + 2) exact in floating point.
        return mdl_score_single(image, hyp.squares[0]) + 2.0
    insides = [_square_counts(image, sq) for sq in hyp.squares]
    l_h = code_length(0.0, [complement(total, insides)]) + hyp.c + 1.0
    for counts in insides:
        l_h += code_length(1.5 * math.log2(total.n), [(counts.n, counts.k)])
    return l_h - l0_code_length(total)


def nfa_score_multi(image: BinaryImage, hyp: SquareHypothesis) -> float:
    """log2 NFA = c + (3c/2) log2 n + log2 B(sum n_i, sum k_i, q).

    The 2^c factor spreads the false-alarm budget over sub-families by
    square count; pooled counts are meaningful because squares are disjoint.
    """
    if hyp.c == 0:
        raise DomainError("no NFA test is defined for the empty hypothesis")
    total = image.counts
    insides = [_square_counts(image, sq) for sq in hyp.squares]
    pooled_n = sum(c.n for c in insides)
    pooled_k = sum(c.k for c in insides)
    return (hyp.c + 1.5 * hyp.c * math.log2(total.n)
            + binomial_tail_log(pooled_n, pooled_k, total.q))


@dataclass(frozen=True)
class SelectionResult:
    chosen: SquareHypothesis
    table: tuple[tuple[SquareHypothesis, Score], ...]


def select_hypothesis(image: BinaryImage, candidates, criterion: str,
                      epsilon: float = 1.0) -> SelectionResult:
    """Score every candidate and pick one with `pick_hypothesis`."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list must not be empty")
    table = []
    for hyp in candidates:
        mdl = mdl_score_multi(image, hyp)
        nfa = nfa_score_multi(image, hyp) if hyp.c > 0 else math.inf
        table.append((hyp, Score(mdl_bits=mdl, log2_nfa=nfa)))
    return SelectionResult(chosen=pick_hypothesis(table, criterion, epsilon),
                           table=tuple(table))


def pick_hypothesis(table, criterion: str,
                    epsilon: float = 1.0) -> SquareHypothesis:
    """Pick the best hypothesis from a scored `(hypothesis, Score)` table.

    MDL: minimal code length, the empty hypothesis (cost L0 + 1) playing the
    role of "no detection".  NFA: minimal log2 NFA among candidates passing
    the epsilon threshold; if none passes, the empty hypothesis is returned.
    """
    if criterion not in ("mdl", "nfa"):
        raise ValueError(f"criterion must be 'mdl' or 'nfa', got {criterion!r}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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
