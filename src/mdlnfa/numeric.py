"""Log-domain coding-length and probability primitives.

Everything is expressed in bits (base-2 logarithms): code lengths are
non-negative, log-probabilities are non-positive.  The information-theoretic
convention 0*log(0) = 0 applies throughout.

Every operation takes scalars and returns a float: counts are Python or
numpy integers or integral floats, densities real numbers in [0, 1]; an
array is rejected like any other value outside the domain.

`rule` and `Fields` check every record field, argument and command-line
flag that has a rule: `<name> must be <kind> <bound>, got <value!r>`.

`code_length` is the two-part code every MDL score is built from, and
`Score` pairs such a code-length delta with a log2 NFA and holds both
decision rules.  `HypothesisCounts` turns the counts of one hypothesis
into both scores and their approximations; the scenario modules only turn
geometry into counts.  A scorer of many counts (BSS) forms the same floats
from (n, k) alone, with the NFA tail memo `memo_tail` and its bound
`tail_bound`.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

Bits = float

_LN2 = math.log(2.0)
LOG10_2 = math.log10(2.0)   # a log2 NFA times this is its log10
_TABLE_SIZE = 10_000   # exact cumulative-log path below this n
_CHUNK = 4096          # tail terms evaluated per vectorized block


class DomainError(ValueError):
    """Arguments outside an operation's mathematical domain."""


def is_count(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python, numpy or other `numbers.Real` number; a bool is not."""
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))


# The names a rule's test reads; each kind's test of a value v, the fast
# path of its common type first, and its words for a value and for entries.
_NAMES = {"is_count": is_count, "is_real": is_real, "inf": math.inf, "np": np}
_INT, _REAL = "(type(v) is int or is_count(v))", "(type(v) is float or is_real(v))"
_FINITE, _MAX = f"{_REAL} and -inf < v < inf", repr(float(np.finfo(float).max))
# Only an int or a Fraction can be finite yet past the float range; a numpy
# float always fits, and would warn if compared with the largest float.
_FLOAT = (f"{_FINITE} and (type(v) is float or isinstance(v, np.floating) "
          f"or -{_MAX} <= v <= {_MAX})")
_KINDS = {
    "count": (_INT, "an integer", "integers"),
    "whole": (f"{_FINITE} and v % 1 == 0", "a whole number", "whole numbers"),
    "real": (_REAL, "a real number", "real numbers"),
    "finite": (_FINITE, "a finite real number", "finite real numbers"),
    "float": (_FLOAT, "a finite float", "finite floats"),
    # A SeedSequence, or an integer within the bounds: `and` binds first.
    # `np.random` is looked up at each check, as importing it costs 6 MB.
    "seed": (f"isinstance(v, np.random.SeedSequence) or {_INT}",
             "a SeedSequence or an integer", ""),
    "pair": (f"isinstance(v, (tuple, list)) and len(v) == 2 and all([{_FLOAT} for v in v])",
             "a pair of finite floats", "pairs of finite floats"),
}


class Rule(NamedTuple):
    """A rule: `test`, an expression in `v` true iff a value passes; `check(name,
    value, error=ValueError)`, which raises `error` naming `name` unless `value`
    passes; `text`, the rule in words ('an integer >= 1'); and `grid`."""

    test: str
    check: Callable[..., None]
    text: str
    grid: bool = False


@functools.lru_cache(maxsize=None, typed=True)
def rule(kind: str, *choices, ge=None, gt=None, le=None, lt=None,
         grid: bool = False) -> Rule:
    """The rule of a 'count' (a Python or numpy integer), 'whole' (a finite
    real with no fractional part), 'real' (a `numbers.Real`), 'finite' real,
    'float' (a real in the float range), 'seed' (a `numpy.random.SeedSequence`
    or a count), 'pair' (a tuple or list of two floats) or 'choice' (one of
    the strings `choices`), never a bool.  `ge`, `gt`, `le` and `lt` bound it;
    NaN fails each bound.  A rule is built once: ask for it on every call."""
    if kind == "choice":
        words = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
        test = f"isinstance(v, str) and v in {choices!r}"
    else:
        test, one, many = _KINDS[kind]
        bounds = [f"{op} {b!r}" for op, b in ((">=", ge), (">", gt), ("<=", le),
                                               ("<", lt)) if b is not None]
        test += "".join(f" and v {bound}" for bound in bounds)
        words = " ".join([many if grid else one, " and ".join(bounds)]).rstrip()
    if grid:    # a tuple or list of such entries
        test = f"isinstance(v, (tuple, list)) and all([{test} for v in v])"
    names = dict(_NAMES, text=words)
    exec(f"def check(name, v, error=ValueError):\n    if not ({test}): "
         "raise error(f'{name} must be {text}, got {v!r}')", names)
    return Rule(f"({test})", names["check"], words, grid)


class Fields:
    """A record class's `Rule` per field, in order, and its layer's error type.
    `check(record)` raises that error naming the first field that breaks its
    rule, and stores a grid field (a tuple or list) as a tuple of tuples, so
    a record read from JSON hashes like one built in code.  It is a function
    compiled as `dataclasses` compiles `__init__`, to cost what tests written
    out by hand would."""

    def __init__(self, error: type[Exception], **rules: Rule):
        self.error, self.rules = error, rules
        lines = ["def check(record):"]
        for name, r in rules.items():     # on a refusal, the rule's check raises
            lines += [f"    v = record.{name}",
                      f"    if not {r.test}: rules[{name!r}].check({name!r}, v, error)"]
            if r.grid:
                lines.append(f"    store(record, {name!r}, tuple("
                             f"tuple(v) if isinstance(v, list) else v for v in v))")
        names = dict(_NAMES, store=object.__setattr__, rules=rules, error=error)
        exec("\n".join(lines), names)
        self.check = names["check"]


# The NFA threshold of every decision, and the criteria a choice names.
EPSILON = rule("finite", gt=0)
CRITERION = rule("choice", "mdl", "nfa")


# log2(m!) for 0 <= m <= _TABLE_SIZE, as Python floats.
_LOG2_FACT = [0.0] + np.cumsum(np.log2(np.arange(1, _TABLE_SIZE + 1,
                                                  dtype=np.float64))).tolist()


class RegionCounts(NamedTuple("RegionCounts", [("n", int), ("k", int)])):
    """Pixel count n and ones count k of a region, a validated (n, k) tuple;
    the density q is derived."""

    __slots__ = ()

    def __new__(cls, n: int, k: int):
        # `type(v) is int` first: BSS builds thousands of records per run.
        if not ((type(n) is int or is_count(n)) and (type(k) is int or is_count(k))):
            raise DomainError(f"region counts must be integers, got n={n!r}, k={k!r}")
        if n < 1:
            raise DomainError(f"region must contain at least one pixel, got n={n}")
        if not 0 <= k <= n:
            raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
        return tuple.__new__(cls, (n, k))

    @classmethod
    def _make(cls, iterable):
        """Validated, so `_replace` checks its result too."""
        return cls(*iterable)

    @property
    def q(self) -> float:
        return self.k / self.n


def _count(x, name: str) -> int:
    """`x` as an int: a Python or numpy integer, or a finite integral float.
    A bool, an array or any other value raises DomainError naming `name`."""
    if is_count(x) or (isinstance(x, (float, np.floating)) and float(x).is_integer()):
        return int(x)
    raise DomainError(f"{name} must be integral, got {x!r}")


def log_binomial(n, k) -> Bits:
    """log2 of the binomial coefficient C(n, k).

    Uses an exact cumulative log2-factorial table for n < 10^4 and a
    log-gamma difference above, so accuracy is limited only by float64
    rounding where tests bite and large sweeps stay cheap.

    Counts other than two Python ints go through `_count` first.
    """
    if not (type(n) is int and type(k) is int):
        n, k = _count(n, "n"), _count(k, "k")
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got n={n!r}, k={k!r}")
    if n < _TABLE_SIZE:
        t = _LOG2_FACT
        return t[n] - t[k] - t[n - k]
    nf, kf = float(n), float(k)
    return (math.lgamma(nf + 1.0) - math.lgamma(kf + 1.0)
            - math.lgamma(nf - kf + 1.0)) / _LN2


def code_length(header: Bits, parts) -> Bits:
    """Two-part code length: `header` bits for the model, then for each
    (n, k) part log2(n) bits for its ones count and log2 C(n, k) for the
    enumerative rank of its pattern.

    Terms are summed left to right in that order, so every scorer written
    as this expression gets the same float bit for bit.  A part with n < 1
    raises DomainError; the check is the `try`, free on a valid part.
    """
    bits = header
    for n, k in parts:
        try:
            bits += math.log2(n)
        except ValueError:
            raise DomainError(f"part n must be >= 1, got {n!r}") from None
        bits += log_binomial(n, k)
    return bits


def complement(total: RegionCounts, parts) -> RegionCounts:
    """Counts of `total` outside the disjoint regions `parts`."""
    n0 = total.n - sum(p.n for p in parts)
    if n0 == 0:
        raise DomainError("regions cover the whole image; no background left")
    return RegionCounts(n0, total.k - sum(p.k for p in parts))


def l0_code_length(counts: RegionCounts) -> Bits:
    """Background code length: the whole image as a single part."""
    return code_length(0.0, [counts])


@dataclass(frozen=True)
class Score:
    """Paired decision record: code-length delta and log2 NFA, both in bits."""

    mdl_bits: float
    log2_nfa: float

    def mdl_detects(self) -> bool:
        return self.mdl_bits < 0.0

    def nfa_detects(self, epsilon: float = 1.0) -> bool:
        return meaningful(self.log2_nfa, epsilon)


def meaningful(log2_nfa: Bits, epsilon: float = 1.0) -> bool:
    """The a-contrario decision NFA <= epsilon, read on the log2 NFA."""
    EPSILON.check("epsilon", epsilon, DomainError)
    return log2_nfa <= math.log2(epsilon)


class HypothesisCounts(NamedTuple):
    """The counts of one hypothesis, which are all that its two scores read.

    MDL codes the whole image as the two-part codes `codes`, each a (header,
    parts) pair for `code_length`; less L0 of the `whole` image's counts,
    when given; plus `extra` bits.  NFA tests one part: `log2_tests` plus
    the log2 binomial tail of `tail` = (n, k, q).  The terms are added in
    that order.
    """

    codes: tuple
    log2_tests: Bits
    tail: tuple
    whole: RegionCounts | None = None
    extra: Bits = 0.0

    def mdl_bits(self) -> Bits:
        # A loop, not sum(): from Python 3.12 sum() compensates float
        # rounding, and every scorer adds its terms left to right.
        bits = 0.0
        for header, parts in self.codes:
            bits += code_length(header, parts)
        if self.whole is not None:
            bits -= l0_code_length(self.whole)
        return bits + self.extra

    def log2_nfa(self) -> Bits:
        return self.log2_tests + binomial_tail_log(*self.tail)

    def score(self) -> Score:
        return Score(mdl_bits=self.mdl_bits(), log2_nfa=self.log2_nfa())

    def approx_mdl_bits(self) -> Bits:
        """Stirling expansion of `mdl_bits` for parts coded against the
        `whole` image (n, k), with a single code and no `extra`, and q = k/n:
        header - sum n_i D(q_i || q) + (sum g(k_i, n_i) - g(k, n)) / 2
        - log2(2 pi) / 2.  Undefined where a count is 0 or n."""
        (bits, parts), = self.codes
        q = self.whole.q
        for n, k in parts:
            bits -= n * bernoulli_kld(k / n, q)
        residual = 0.5 * (sum(g_term(k, n) for n, k in parts)
                          - g_term(self.whole.k, self.whole.n))
        return bits + residual - 0.5 * math.log2(2.0 * math.pi)

    def approx_log2_nfa(self) -> Bits:
        """Hoeffding upper bound on `log2_nfa`: `log2_tests` - n D(k/n || q)
        for the `tail` (n, k, q), defined only for k/n > q."""
        return self.log2_tests + hoeffding_tail_bound(*self.tail)


def binomial_first_term_log(n: int, k: int, q: float) -> Bits:
    """log2 of the first term C(n, k) q^k (1-q)^(n-k) of the tail B(n, k, q),
    or -inf where q is 0 or 1."""
    if q == 0.0 or q == 1.0:
        return -math.inf
    return log_binomial(n, k) + k * math.log2(q) + (n - k) * math.log2(1.0 - q)


def memo_tail(tail: tuple, tails: dict) -> Bits:
    """`binomial_tail_log(*tail)` of `tail` = (n, k, q), computed once per
    `tails` memo."""
    if tail not in tails:
        tails[tail] = binomial_tail_log(*tail)
    return tails[tail]


def tail_bound(tail: tuple, tails: dict) -> Bits:
    """A value never above `memo_tail(tail, tails)`: that value where `tails`
    holds it, else min(0, `binomial_first_term_log(*tail)`), which
    `binomial_tail_log` starts its sum from and only adds to."""
    bound = tails.get(tail)
    if bound is None:
        bound = min(0.0, binomial_first_term_log(*tail))
    return bound


def _check_tail(n: int, k: int, q: float) -> None:
    if n < 1 or not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n with n >= 1, got n={n}, k={k}")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got q={q}")


def binomial_tail_log(n: int, k: int, q: float) -> Bits:
    """log2 of the binomial tail B(n, k, q) = sum_{i>=k} C(n,i) q^i (1-q)^(n-i).

    Computed entirely in log space via the term-ratio recursion starting at
    i = k, with streaming log-sum-exp accumulation and a geometric-series
    stopping bound once past the mode.  Stays finite for n up to 10^6 and
    beyond whenever the true tail is nonzero.
    """
    _check_tail(n, k, q)
    if k == 0:
        return 0.0          # tail from zero is the total mass
    if q == 0.0:
        return -math.inf    # P(X >= k) = 0 for k >= 1
    if q == 1.0:
        return 0.0          # all mass at i = n >= k

    log_odds = math.log2(q) - math.log2(1.0 - q)

    # Streaming log-sum-exp state: total = 2**m * s.
    m = binomial_first_term_log(n, k, q)
    s = 1.0
    last = m     # log2 of the most recent term
    i0 = k
    while i0 < n:
        count = min(_CHUNK, n - i0)
        i = np.arange(i0, i0 + count, dtype=np.float64)
        # log2 of t_{i+1}/t_i = (n-i)/(i+1) * q/(1-q)
        log_ratios = np.log2((n - i) / (i + 1.0)) + log_odds
        terms = last + np.cumsum(log_ratios)
        chunk_max = float(terms.max())
        if chunk_max > m:
            s = s * 2.0 ** (m - chunk_max) + float(np.exp2(terms - chunk_max).sum())
            m = chunk_max
        else:
            s += float(np.exp2(terms - m).sum())
        last = float(terms[-1])
        i0 += count
        if i0 >= n:
            break
        ratio = (n - i0) / (i0 + 1.0) * q / (1.0 - q)
        if ratio < 1.0:
            # Remaining terms are below last * ratio^j; bound the series.
            bound = last + math.log2(ratio) - math.log2(1.0 - ratio)
            if bound < m + math.log2(s) - 80.0:
                break
    return min(0.0, m + math.log2(s))


def hoeffding_tail_bound(n: int, k: int, q: float) -> Bits:
    """Hoeffding upper bound on log2 B(n, k, q): returns -n * D(k/n || q).

    Only defined for k/n > q; the opposite case is the uninteresting half
    where the tail is at least 1/2 and callers must branch.
    """
    _check_tail(n, k, q)
    q1 = k / n
    if not q1 > q:
        raise DomainError(f"bound requires k/n > q, got k/n={q1}, q={q}")
    return -n * bernoulli_kld(q1, q)


def _density(p, name: str) -> float:
    """`p` as a float, if it is a real number in [0, 1]; NaN is not."""
    if not (is_real(p) and 0.0 <= p <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {p!r}")
    return float(p)


def binary_entropy(q) -> Bits:
    """Binary entropy h(q) = -q log2 q - (1-q) log2 (1-q), with h(0)=h(1)=0."""
    q = _density(q, "q")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def bernoulli_kld(p, q) -> Bits:
    """KL divergence D(p || q) between Bernoulli(p) and Bernoulli(q), in bits.

    Non-negative, zero iff p == q.  A reference q in {0, 1} with mismatched p
    yields infinite divergence, reported as +inf.
    """
    p, q = _density(p, "p"), _density(q, "q")
    if (p > 0.0 and q == 0.0) or (p < 1.0 and q == 1.0):
        return math.inf
    bits = p * (math.log2(p) - math.log2(q)) if p > 0.0 else 0.0
    if p < 1.0:
        bits += (1.0 - p) * (math.log2(1.0 - p) - math.log2(1.0 - q))
    return max(0.0, bits)   # clip float rounding below zero at p ~ q


def _inner_counts(n, k) -> tuple[float, float]:
    """n and k as floats, checked by `_count` and for 0 < k < n."""
    n, k = _count(n, "n"), _count(k, "k")
    if not 0 < k < n:
        raise DomainError(f"need 0 < k < n, got n={n!r}, k={k!r}")
    return float(n), float(k)


def stirling_log_binomial(n, k) -> Bits:
    """Stirling approximation of log2 C(n, k).

    0.5*log2(1/2pi) + 0.5*log2(n/(k(n-k))) + k*log2(n/k) + (n-k)*log2(n/(n-k)).
    Undefined at k in {0, n}; callers needing the boundary use the exact path.
    """
    n, k = _inner_counts(n, k)
    nk = n - k
    return (0.5 * math.log2(1.0 / (2.0 * math.pi))
            + 0.5 * math.log2(n / (k * nk))
            + k * math.log2(n / k)
            + nk * math.log2(n / nk))


def g_term(k, n) -> Bits:
    """log2(n^3 / (k (n-k))), the residual term of the Stirling-expanded score."""
    n, k = _inner_counts(n, k)
    return 3.0 * math.log2(n) - math.log2(k) - math.log2(n - k)
