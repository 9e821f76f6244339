"""Tests for the log-domain coding/probability primitives."""

import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlnfa.numeric import (
    DomainError,
    RegionCounts,
    bernoulli_kld,
    binary_entropy,
    binomial_first_term_log,
    binomial_tail_log,
    g_term,
    hoeffding_tail_bound,
    is_count,
    is_real,
    log_binomial,
    stirling_log_binomial,
)
from oracles import exact_log2_binomial_tail, log_binomial_numpy


@pytest.mark.parametrize("value,want", [
    (0, True), (-3, True), (2**70, True), (np.int64(5), True), (np.uint8(1), True),
    (True, False), (np.bool_(True), False), (2.0, False), (np.float64(2.0), False),
    (Fraction(2), False), ("2", False), (None, False)])
def test_is_count(value, want):
    # The one integer test of the input checks: bools are not counts.
    assert is_count(value) is want


@pytest.mark.parametrize("value,want", [
    (0.5, True), (-3, True), (math.nan, True), (np.float32(0.1), True), (np.int64(5), True),
    (Fraction(1, 3), True), (True, False), (np.bool_(True), False), ("0.1", False),
    (None, False), (1j, False)])
def test_is_real(value, want):
    # The number test of the epsilon and noise-level checks; the range check
    # (which rejects NaN) is the caller's.
    assert is_real(value) is want


class TestRegionCounts:
    def test_density_is_derived(self):
        rc = RegionCounts(n=10, k=3)
        assert rc.q == 0.3
        assert rc.q * rc.n == rc.k

    def test_invalid_counts_rejected(self):
        with pytest.raises(DomainError, match="at least one pixel, got n=0"):
            RegionCounts(n=0, k=0)
        with pytest.raises(DomainError, match="at least one pixel, got n=-2"):
            RegionCounts(-2, 0)
        with pytest.raises(DomainError, match="got k=6, n=5"):
            RegionCounts(n=5, k=6)
        with pytest.raises(DomainError, match="got k=-1, n=5"):
            RegionCounts(n=5, k=-1)
        # Counts are integers (`is_count`): no bools, no floats, even integral.
        for n, k in [(True, False), (2, True), (2.5, 1), (5, 2.0), (np.float64(4), 1),
                     ("5", 1), (5, None)]:
            with pytest.raises(DomainError, match="region counts must be integers"):
                RegionCounts(n, k)
        rc = RegionCounts(np.int64(5), np.uint8(2))
        assert rc == (5, 2) and rc.q == 0.4

    def test_is_a_validated_pair(self):
        rc = RegionCounts(10, 3)
        assert rc == (10, 3) and hash(rc) == hash((10, 3))
        n, k = rc
        assert (n, k) == (rc.n, rc.k) == (10, 3)
        assert repr(rc) == "RegionCounts(n=10, k=3)"
        assert rc._replace(k=5) == (10, 5)
        with pytest.raises(DomainError, match="got k=11, n=10"):
            rc._replace(k=11)

    def test_survives_pickle(self):
        rc = RegionCounts(10, 3)
        back = pickle.loads(pickle.dumps(rc))
        assert type(back) is RegionCounts and back == rc and back.q == 0.3


class TestLogBinomial:
    def test_examples(self):
        assert log_binomial(10, 3) == pytest.approx(math.log2(120), abs=1e-12)
        assert log_binomial(4, 2) == pytest.approx(math.log2(6), abs=1e-12)
        for n in (1, 7, 100, 12345):
            assert log_binomial(n, 0) == 0.0
            assert log_binomial(n, n) == 0.0

    def test_matches_exact_integers_up_to_30(self):
        for n in range(31):
            for k in range(n + 1):
                exact = math.log2(math.comb(n, k)) if math.comb(n, k) > 1 else 0.0
                assert log_binomial(n, k) == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_bit_exact_integer_oracle_up_to_64(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            k = int(rng.integers(0, n + 1))
            assert 2.0 ** log_binomial(n, k) == pytest.approx(math.comb(n, k), rel=1e-10)

    def test_large_n_lgamma_path(self):
        # math.log2 of an exact big integer is the oracle.
        for n, k in [(10_000, 5000), (50_000, 17), (10**6, 100), (123_456, 1000)]:
            exact = math.log2(math.comb(n, k))
            assert log_binomial(n, k) == pytest.approx(exact, rel=1e-10)

    def test_table_and_lgamma_paths_agree_at_boundary(self):
        for n in (9_998, 9_999, 10_000, 10_001):
            for k in (1, n // 3, n // 2):
                exact = math.log2(math.comb(n, k))
                assert log_binomial(n, k) == pytest.approx(exact, rel=1e-9)

    def test_scalar_path_matches_array_path_small_n(self):
        # The numpy reference gathers from a numpy table; Python ints must
        # give the same bits.
        for n in range(301):
            ks = np.arange(n + 1)
            expected = log_binomial_numpy(np.full(n + 1, n), ks).tolist()
            assert [log_binomial(n, int(k)) for k in ks] == expected, n

    def test_scalar_path_matches_array_path_at_table_edge_and_large_n(self):
        rng = np.random.default_rng(11)
        for n in (9_999, 10_000, 10_001, 65_536, 10**6):
            ks = [0, 1, n // 2, n - 1, n] + [int(k) for k in rng.integers(0, n + 1, 50)]
            expected = log_binomial_numpy(np.full(len(ks), n), np.array(ks)).tolist()
            assert [log_binomial(n, k) for k in ks] == expected, n

    def test_grid_matches_reference(self):
        ns = np.array([[3], [50], [9_999], [10_000], [123_456]])
        ks = np.array([0, 1, 2, 3])
        expected = log_binomial_numpy(ns, ks)
        for i, n in enumerate(ns[:, 0].tolist()):
            for j, k in enumerate(ks.tolist()):
                got = log_binomial(n, k)
                assert type(got) is float and got == expected[i, j], (n, k)
            # Integral floats give the same bits.
            assert log_binomial(float(n), 2.0) == expected[i, 2], n

    def test_numpy_integers_and_bools(self):
        for n, k in [(0, 0), (20, 7), (9_999, 4_000), (10_000, 3), (65_536, 1234)]:
            scalar = log_binomial(n, k)
            assert type(scalar) is float
            assert log_binomial(np.int64(n), np.int64(k)) == scalar
            assert log_binomial(n, np.int64(k)) == scalar
            assert log_binomial(np.int32(n), k) == scalar
        # bool is an int subclass but never was a count.
        with pytest.raises(DomainError):
            log_binomial(True, False)
        with pytest.raises(DomainError):
            log_binomial(5, True)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_binomial(5, 6)
        with pytest.raises(DomainError):
            log_binomial(-1, 0)
        with pytest.raises(DomainError):
            log_binomial(5, -2)
        with pytest.raises(DomainError):
            log_binomial(5.5, 2)
        with pytest.raises(DomainError, match=r"need 0 <= k <= n"):
            log_binomial(np.int64(3), np.int64(4))
        with pytest.raises(DomainError, match=r"n must be integral"):
            log_binomial(np.float64(5.5), 2)
        with pytest.raises(DomainError, match=r"k must be integral"):
            log_binomial(5, np.bool_(True))


class TestBinomialTailLog:
    def test_trivial_examples(self):
        for n, q in [(5, 0.2), (100, 0.9), (17, 0.5)]:
            assert binomial_tail_log(n, 0, q) == 0.0
        assert binomial_tail_log(4, 4, 0.5) == pytest.approx(-4.0, abs=1e-12)

    def test_frozen_derived_example(self):
        # Exact rational summation gives log2 B(20, 15, 0.3) = -14.507317545645037.
        assert binomial_tail_log(20, 15, 0.3) == pytest.approx(-14.507317545645037,
                                                               rel=1e-12)

    def test_matches_exact_rational_summation(self):
        for n in range(1, 26):
            for k in range(n + 1):
                for q in (0.1, 0.3, 0.5, 0.7, 0.9):
                    expected = exact_log2_binomial_tail(n, k, q)
                    got = binomial_tail_log(n, k, q)
                    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9), \
                        (n, k, q)

    def test_edge_probabilities(self):
        assert binomial_tail_log(10, 3, 0.0) == -math.inf
        assert binomial_tail_log(10, 0, 0.0) == 0.0
        assert binomial_tail_log(10, 3, 1.0) == 0.0

    def test_no_underflow_for_large_n(self):
        val = binomial_tail_log(10**6, 600_000, 0.5)
        assert math.isfinite(val)
        # Large-deviation scale: about -n*D(0.6||0.5) = -29049 bits.
        assert val == pytest.approx(-10**6 * bernoulli_kld(0.6, 0.5), rel=0.01)
        assert val <= hoeffding_tail_bound(10**6, 600_000, 0.5)

    def test_monotone_decreasing_in_k(self):
        vals = [binomial_tail_log(50, k, 0.3) for k in range(51)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binomial_tail_log(10, 11, 0.5)
        with pytest.raises(DomainError):
            binomial_tail_log(10, 3, 1.5)
        with pytest.raises(DomainError):
            binomial_tail_log(10, 3, -0.1)


class TestBinomialFirstTermLog:
    def test_matches_exact_first_term(self):
        for n in range(1, 26):
            for k in range(n + 1):
                for q in (0.1, 0.3, 0.5, 0.7, 0.9):
                    qf = Fraction(q)
                    term = math.comb(n, k) * qf**k * (1 - qf) ** (n - k)
                    expected = (math.log2(term.numerator)
                                - math.log2(term.denominator))
                    assert binomial_first_term_log(n, k, q) == pytest.approx(
                        expected, rel=1e-9, abs=1e-9), (n, k, q)

    def test_minus_infinity_at_the_edge_probabilities(self):
        for k in (0, 3, 10):
            assert binomial_first_term_log(10, k, 0.0) == -math.inf
            assert binomial_first_term_log(10, k, 1.0) == -math.inf


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=3000),
       st.integers(min_value=0, max_value=3000),
       st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 0.999999, 1.0 - 2**-53])
       | st.floats(min_value=0.0, max_value=1.0))
def test_first_term_bounds_the_tail_in_floats(n, k, q):
    # BSS ranks NFA children by min(0, first term) before their tails are
    # computed, so the bound must hold exactly, not only to rounding.
    k = min(k, n)
    assert min(0.0, binomial_first_term_log(n, k, q)) <= binomial_tail_log(n, k, q)


class TestHoeffdingBound:
    def test_dominates_exact_tail(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(1, 1000))
            q = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(math.floor(n * q) + 1, n + 1))
            if k / n <= q:
                continue
            assert binomial_tail_log(n, k, q) <= hoeffding_tail_bound(n, k, q) + 1e-9

    def test_limit_toward_equal_densities(self):
        # q1 -> q+ drives the bound to zero.
        n = 1000
        assert hoeffding_tail_bound(n, 501, 0.5) == pytest.approx(0.0, abs=1e-2)
        assert abs(hoeffding_tail_bound(n, 600, 0.5)) > abs(
            hoeffding_tail_bound(n, 510, 0.5))

    def test_examples(self):
        assert hoeffding_tail_bound(100, 80, 0.5) == pytest.approx(
            -100 * bernoulli_kld(0.8, 0.5))
        assert hoeffding_tail_bound(100, 80, 0.5) >= binomial_tail_log(100, 80, 0.5)
        # Tight at q1 = 1: both sides equal n*log2(q).
        assert hoeffding_tail_bound(4, 4, 0.5) == pytest.approx(-4.0, abs=1e-12)
        assert binomial_tail_log(4, 4, 0.5) == pytest.approx(-4.0, abs=1e-12)

    def test_requires_q1_above_q(self):
        with pytest.raises(DomainError):
            hoeffding_tail_bound(100, 50, 0.5)
        with pytest.raises(DomainError):
            hoeffding_tail_bound(100, 20, 0.5)


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_and_range(self, q):
        h = binary_entropy(q)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - q), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(1.2)
        # NaN compares false with both bounds; it used to give h = 0.
        with pytest.raises(DomainError, match=r"^q must lie in \[0, 1\], got nan"):
            binary_entropy(math.nan)


class TestBernoulliKld:
    def test_known_values(self):
        assert bernoulli_kld(1.0, 0.5) == pytest.approx(1.0)
        assert bernoulli_kld(0.8, 0.5) == pytest.approx(0.27807190511263774, rel=1e-12)
        for q in (0.1, 0.42, 0.9):
            assert bernoulli_kld(q, q) == 0.0

    def test_nonnegative_grid_zero_iff_equal(self):
        for p in np.linspace(0.0, 1.0, 100).tolist():
            for q in np.linspace(0.005, 0.995, 100).tolist():
                d = bernoulli_kld(p, q)
                assert d >= 0.0
                assert np.isclose(d, 0.0, atol=1e-12) == np.isclose(p, q, atol=1e-12), \
                    (p, q)

    def test_infinite_divergence_at_degenerate_reference(self):
        assert bernoulli_kld(0.5, 0.0) == math.inf
        assert bernoulli_kld(0.5, 1.0) == math.inf
        assert bernoulli_kld(0.0, 0.0) == 0.0
        assert bernoulli_kld(1.0, 1.0) == 0.0

    def test_nan_densities_rejected(self):
        # NaN used to give D = 0 as p and D = inf as q.
        with pytest.raises(DomainError, match=r"^p must lie in \[0, 1\], got nan"):
            bernoulli_kld(math.nan, 0.5)
        with pytest.raises(DomainError, match=r"^q must lie in \[0, 1\], got nan"):
            bernoulli_kld(0.5, math.nan)
        with pytest.raises(DomainError, match=r"^q must lie in \[0, 1\]"):
            bernoulli_kld(0.5, -0.1)

    def test_entropy_kld_split_identity(self):
        # n0*h(q0) + n1*h(q1) - n*h(q) = -n0*D(q0||q) - n1*D(q1||q) for q the mix.
        rng = np.random.default_rng(3)
        for _ in range(200):
            n0 = int(rng.integers(1, 5000))
            n1 = int(rng.integers(1, 5000))
            k0 = int(rng.integers(0, n0 + 1))
            k1 = int(rng.integers(0, n1 + 1))
            n, k = n0 + n1, k0 + k1
            if k == 0 or k == n:
                continue
            q0, q1, q = k0 / n0, k1 / n1, k / n
            lhs = n0 * binary_entropy(q0) + n1 * binary_entropy(q1) - n * binary_entropy(q)
            rhs = -n0 * bernoulli_kld(q0, q) - n1 * bernoulli_kld(q1, q)
            assert lhs == pytest.approx(rhs, abs=1e-6)


class TestStirlingLogBinomial:
    def test_accuracy_examples(self):
        assert abs(stirling_log_binomial(100, 50) - log_binomial(100, 50)) < 0.05
        assert abs(stirling_log_binomial(1000, 10) - log_binomial(1000, 10)) < 0.2
        assert stirling_log_binomial(4, 2) == pytest.approx(2.585, abs=0.15)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            stirling_log_binomial(10, 0)
        with pytest.raises(DomainError):
            stirling_log_binomial(10, 10)


class TestGTerm:
    def test_examples(self):
        assert g_term(3, 6) == pytest.approx(math.log2(216 / 9), rel=1e-12)
        for n in (8, 100, 4096):
            assert g_term(n // 2, n) == pytest.approx(2 + math.log2(n), rel=1e-12)
            assert g_term(1, n) == pytest.approx(math.log2(n**3 / (n - 1)), rel=1e-12)

    def test_extremes_are_maxima(self):
        n = 50
        vals = [g_term(k, n) for k in range(1, n)]
        assert vals.index(max(vals)) in (0, n - 2)
        assert vals.index(min(vals)) == n // 2 - 1

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            g_term(0, 6)
        with pytest.raises(DomainError):
            g_term(6, 6)


# Each function of one argument x, and a value of x in its domain.
SCALAR_FUNCTIONS = {
    "log_binomial": (lambda x: log_binomial(x, 2), 10),
    "binary_entropy": (binary_entropy, 0.25),
    "bernoulli_kld": (lambda x: bernoulli_kld(x, 0.5), 0.25),
    "stirling_log_binomial": (lambda x: stirling_log_binomial(x, 2), 10),
    "g_term": (lambda x: g_term(2, x), 10),
}


@pytest.mark.parametrize("shape", [(2,), (), (0,)], ids=["1d", "0d", "empty"])
@pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
def test_arrays_rejected_without_warning(name, shape):
    # The functions take scalars: an array of in-domain values is rejected
    # as a whole, with the error every other out-of-domain value gets.
    fn, x = SCALAR_FUNCTIONS[name]
    assert type(fn(x)) is float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"must (be integral|lie in)"):
            fn(np.full(shape, x))


COUNT_FUNCTIONS = {
    "log_binomial": log_binomial,
    "stirling_log_binomial": stirling_log_binomial,
    "g_term": lambda n, k: g_term(k, n),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(COUNT_FUNCTIONS))
def test_non_finite_counts_rejected_without_warning(name, value):
    fn = COUNT_FUNCTIONS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^n must be integral"):
            fn(value, 2.0)
        with pytest.raises(DomainError, match=r"^k must be integral"):
            fn(10.0, value)
        with pytest.raises(DomainError, match=r"^n must be integral"):
            fn(np.array([6.0, value]), 2.0)


def split_term_extrema(n: int):
    """Exhaustive min/max of 0.5*(g(k0,n0)+g(k1,n1)-g(k,n)) over feasible splits."""
    best_min, best_max = math.inf, -math.inf
    n0s = np.arange(2, n - 1)
    k0_grid = np.arange(1, n)
    for k in range(2, n - 1):
        k0 = k0_grid[:, None].astype(float)
        n0 = n0s[None, :].astype(float)
        k1 = k - k0
        n1 = n - n0
        feasible = (k0 >= 1) & (k0 <= n0 - 1) & (k1 >= 1) & (k1 <= n1 - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = 0.5 * (3 * np.log2(n0) - np.log2(k0) - np.log2(n0 - k0)
                          + 3 * np.log2(n1) - np.log2(k1) - np.log2(n1 - k1)
                          - g_term(k, n))
        vals = term[feasible]
        if vals.size:
            best_min = min(best_min, float(vals.min()))
            best_max = max(best_max, float(vals.max()))
    return best_min, best_max


class TestSplitTermBounds:
    """Small-n version of the residual-term bound check (full range in acceptance).

    The often-quoted lower bounds 0.5*log2(n) and log2(n) both fail: the
    midpoint split attains 0.5*log2(n), but the extreme split n0=2, k0=1 with
    k = n/2 goes lower, to 0.5*log2(8(n-2)/n) < 1.5 bits.  That boundary value
    is the exhaustively confirmed minimum.
    """

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24, 28, 32, 36, 40, 41])
    def test_bounds_and_tightness(self, n):
        lo, hi = split_term_extrema(n)
        boundary_split_bound = 0.5 * math.log2(8 * (n - 2) / n)
        assert lo >= boundary_split_bound - 1e-9
        assert hi <= math.log2(n**2.5 / (4 * (n - 2))) - 1 + 1e-9
        if n % 2 == 0:
            assert lo == pytest.approx(boundary_split_bound, abs=1e-9)
        # Neither candidate constant survives the exhaustive minimization.
        assert lo < 0.5 * math.log2(n) < math.log2(n)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=0, max_value=400),
       st.floats(min_value=0.001, max_value=0.999))
def test_tail_is_a_probability(n, k, q):
    k = min(k, n)
    val = binomial_tail_log(n, k, q)
    assert val <= 0.0
    if k == 0:
        assert val == 0.0
