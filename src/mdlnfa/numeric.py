"""Log-domain coding-length and probability primitives.

Everything is expressed in bits (base-2 logarithms): code lengths are
non-negative, log-probabilities are non-positive.  The information-theoretic
convention 0*log(0) = 0 applies throughout.

The elementwise operations (`log_binomial`, `binary_entropy`, `bernoulli_kld`,
`g_term`, `stirling_log_binomial`) accept scalars or numpy arrays and return
the matching kind; `log_binomial` maps arrays over its Python-int code.
`binomial_tail_log` is a scalar reduction.

`code_length` is the two-part code every MDL score is built from, and
`Score` pairs such a code-length delta with a log2 NFA and holds both
decision rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Bits = float

_LN2 = math.log(2.0)
_TABLE_SIZE = 10_000   # exact cumulative-log path below this n
_CHUNK = 4096          # tail terms evaluated per vectorized block


class DomainError(ValueError):
    """Arguments outside an operation's mathematical domain."""


# log2(m!) for 0 <= m <= _TABLE_SIZE, as Python floats.
_LOG2_FACT = [0.0] + np.cumsum(np.log2(np.arange(1, _TABLE_SIZE + 1,
                                                  dtype=np.float64))).tolist()


@dataclass(frozen=True)
class RegionCounts:
    """Pixel count n and ones count k of a region; the density q is derived."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"region must contain at least one pixel, got n={self.n}")
        if not 0 <= self.k <= self.n:
            raise DomainError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def q(self) -> float:
        return self.k / self.n


def _as_count_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise DomainError(f"{name} must be integral, got {x!r}")
        arr = arr.astype(np.int64)
    elif arr.dtype.kind not in "iu":
        raise DomainError(f"{name} must be integral, got {x!r}")
    return arr.astype(np.int64, copy=False)


def log_binomial(n, k) -> Bits:
    """log2 of the binomial coefficient C(n, k).

    Uses an exact cumulative log2-factorial table for n < 10^4 and a
    log-gamma difference above, so accuracy is limited only by float64
    rounding where tests bite and large sweeps stay cheap.

    Two Python `int` arguments are computed directly on Python floats;
    arrays, numpy integers and integral floats are checked, broadcast and
    mapped over that code, giving a float64 array of the broadcast shape (a
    float when both are 0-d).  Bools are rejected.
    """
    if type(n) is int and type(k) is int:
        if n < 0 or k < 0 or k > n:
            raise DomainError(f"need 0 <= k <= n, got n={n!r}, k={k!r}")
        if n < _TABLE_SIZE:
            t = _LOG2_FACT
            return t[n] - t[k] - t[n - k]
        nf, kf = float(n), float(k)
        return (math.lgamma(nf + 1.0) - math.lgamma(kf + 1.0)
                - math.lgamma(nf - kf + 1.0)) / _LN2
    n_arr = _as_count_array(n, "n")
    k_arr = _as_count_array(k, "k")
    if np.any(n_arr < 0) or np.any(k_arr < 0) or np.any(k_arr > n_arr):
        raise DomainError(f"need 0 <= k <= n, got n={n!r}, k={k!r}")
    n_arr, k_arr = np.broadcast_arrays(n_arr, k_arr)
    bits = map(log_binomial, n_arr.ravel().tolist(), k_arr.ravel().tolist())
    out = np.array(list(bits), dtype=np.float64).reshape(n_arr.shape)
    return float(out) if out.ndim == 0 else out


def code_length(header: Bits, parts) -> Bits:
    """Two-part code length: `header` bits for the model, then for each
    (n, k) part log2(n) bits for its ones count and log2 C(n, k) for the
    enumerative rank of its pattern.

    Terms are summed left to right in that order, so every scorer written
    as this expression gets the same float bit for bit.
    """
    bits = header
    for n, k in parts:
        bits += math.log2(n)
        bits += log_binomial(n, k)
    return bits


def complement(total: RegionCounts, parts) -> tuple[int, int]:
    """Counts (n, k) of `total` outside the disjoint regions `parts`."""
    n0 = total.n - sum(p.n for p in parts)
    if n0 == 0:
        raise DomainError("regions cover the whole image; no background left")
    return n0, total.k - sum(p.k for p in parts)


def l0_code_length(counts: RegionCounts) -> Bits:
    """Background code length: the whole image as a single part."""
    return code_length(0.0, [(counts.n, counts.k)])


@dataclass(frozen=True)
class Score:
    """Paired decision record: code-length delta and log2 NFA, both in bits."""

    mdl_bits: float
    log2_nfa: float

    def mdl_detects(self) -> bool:
        return self.mdl_bits < 0.0

    def nfa_detects(self, epsilon: float = 1.0) -> bool:
        if not epsilon > 0.0:
            raise DomainError(f"epsilon must be positive, got {epsilon}")
        return self.log2_nfa <= math.log2(epsilon)


def binomial_tail_log(n: int, k: int, q: float) -> Bits:
    """log2 of the binomial tail B(n, k, q) = sum_{i>=k} C(n,i) q^i (1-q)^(n-i).

    Computed entirely in log space via the term-ratio recursion starting at
    i = k, with streaming log-sum-exp accumulation and a geometric-series
    stopping bound once past the mode.  Stays finite for n up to 10^6 and
    beyond whenever the true tail is nonzero.
    """
    if n < 1 or not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n with n >= 1, got n={n}, k={k}")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got q={q}")
    if k == 0:
        return 0.0          # tail from zero is the total mass
    if q == 0.0:
        return -math.inf    # P(X >= k) = 0 for k >= 1
    if q == 1.0:
        return 0.0          # all mass at i = n >= k

    log2_q = math.log2(q)
    log2_1mq = math.log2(1.0 - q)
    log_odds = log2_q - log2_1mq

    # Streaming log-sum-exp state: total = 2**m * s.
    m = log_binomial(n, k) + k * log2_q + (n - k) * log2_1mq
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
    if n < 1 or not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n with n >= 1, got n={n}, k={k}")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got q={q}")
    q1 = k / n
    if not q1 > q:
        raise DomainError(f"bound requires k/n > q, got k/n={q1}, q={q}")
    return -n * bernoulli_kld(q1, q)


def binary_entropy(q) -> Bits:
    """Binary entropy h(q) = -q log2 q - (1-q) log2 (1-q), with h(0)=h(1)=0."""
    arr = np.asarray(q, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros(arr.shape)
    inner = (arr > 0.0) & (arr < 1.0)
    p = arr[inner]
    out[inner] = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return float(out[0]) if scalar else out


def bernoulli_kld(p, q) -> Bits:
    """KL divergence D(p || q) between Bernoulli(p) and Bernoulli(q), in bits.

    Non-negative, zero iff p == q.  A reference q in {0, 1} with mismatched p
    yields infinite divergence, reported as +inf.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    q_arr = np.asarray(q, dtype=np.float64)
    if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
        raise DomainError(f"p must lie in [0, 1], got {p!r}")
    if np.any(q_arr < 0.0) or np.any(q_arr > 1.0):
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    scalar = p_arr.ndim == 0 and q_arr.ndim == 0
    p_arr, q_arr = np.broadcast_arrays(*np.atleast_1d(p_arr, q_arr))
    out = np.zeros(p_arr.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        top = p_arr > 0.0
        term = np.where(top, p_arr * (np.log2(np.where(top, p_arr, 1.0))
                                      - np.log2(q_arr)), 0.0)
        bot = p_arr < 1.0
        term = term + np.where(bot, (1.0 - p_arr) * (np.log2(np.where(bot, 1.0 - p_arr, 1.0))
                                                     - np.log2(1.0 - q_arr)), 0.0)
    out = np.where(np.isnan(term), np.inf, term)
    out = np.maximum(out, 0.0)   # clip float rounding below zero at p ~ q
    return float(out[0]) if scalar else out


def stirling_log_binomial(n, k) -> Bits:
    """Stirling approximation of log2 C(n, k).

    0.5*log2(1/2pi) + 0.5*log2(n/(k(n-k))) + k*log2(n/k) + (n-k)*log2(n/(n-k)).
    Undefined at k in {0, n}; callers needing the boundary use the exact path.
    """
    n_arr = _as_count_array(n, "n").astype(np.float64)
    k_arr = _as_count_array(k, "k").astype(np.float64)
    if np.any(k_arr <= 0) or np.any(k_arr >= n_arr):
        raise DomainError(f"approximation needs 0 < k < n, got n={n!r}, k={k!r}")
    scalar = n_arr.ndim == 0 and k_arr.ndim == 0
    n_arr, k_arr = np.broadcast_arrays(*np.atleast_1d(n_arr, k_arr))
    nk = n_arr - k_arr
    out = (0.5 * math.log2(1.0 / (2.0 * math.pi))
           + 0.5 * np.log2(n_arr / (k_arr * nk))
           + k_arr * np.log2(n_arr / k_arr)
           + nk * np.log2(n_arr / nk))
    return float(out[0]) if scalar else out


def g_term(k, n) -> Bits:
    """log2(n^3 / (k (n-k))), the residual term of the Stirling-expanded score."""
    n_arr = _as_count_array(n, "n").astype(np.float64)
    k_arr = _as_count_array(k, "k").astype(np.float64)
    if np.any(k_arr <= 0) or np.any(k_arr >= n_arr):
        raise DomainError(f"need 0 < k < n, got n={n!r}, k={k!r}")
    scalar = n_arr.ndim == 0 and k_arr.ndim == 0
    n_arr, k_arr = np.broadcast_arrays(*np.atleast_1d(n_arr, k_arr))
    out = 3.0 * np.log2(n_arr) - np.log2(k_arr) - np.log2(n_arr - k_arr)
    return float(out[0]) if scalar else out
