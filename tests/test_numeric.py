"""Tests for the log-domain coding/probability primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlnfa.numeric import (
    DomainError,
    RegionCounts,
    bernoulli_kld,
    binary_entropy,
    binomial_tail_log,
    g_term,
    hoeffding_tail_bound,
    log_binomial,
    stirling_log_binomial,
)
from oracles import exact_log2_binomial_tail, log_binomial_numpy


class TestRegionCounts:
    def test_density_is_derived(self):
        rc = RegionCounts(n=10, k=3)
        assert rc.q == 0.3
        assert rc.q * rc.n == rc.k

    def test_invalid_counts_rejected(self):
        with pytest.raises(DomainError):
            RegionCounts(n=0, k=0)
        with pytest.raises(DomainError):
            RegionCounts(n=5, k=6)
        with pytest.raises(DomainError):
            RegionCounts(n=5, k=-1)


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

    def test_array_input(self):
        ks = np.arange(0, 21)
        vals = log_binomial(20, ks)
        expected = [math.log2(math.comb(20, int(k))) for k in ks]
        np.testing.assert_allclose(vals, expected, atol=1e-10)

    def test_scalar_path_matches_array_path_small_n(self):
        # The numpy reference gathers from a numpy table; Python ints and
        # arrays mapped over them must give the same bits.
        for n in range(301):
            ks = np.arange(n + 1)
            expected = log_binomial_numpy(np.full(n + 1, n), ks).tolist()
            assert [log_binomial(n, int(k)) for k in ks] == expected, n
            assert log_binomial(np.full(n + 1, n), ks).tolist() == expected, n

    def test_scalar_path_matches_array_path_at_table_edge_and_large_n(self):
        rng = np.random.default_rng(11)
        for n in (9_999, 10_000, 10_001, 65_536, 10**6):
            ks = [0, 1, n // 2, n - 1, n] + [int(k) for k in rng.integers(0, n + 1, 50)]
            expected = log_binomial_numpy(np.full(len(ks), n), np.array(ks)).tolist()
            assert [log_binomial(n, k) for k in ks] == expected, n
            assert log_binomial(np.full(len(ks), n), np.array(ks)).tolist() == expected, n

    def test_2d_broadcast_matches_reference(self):
        ns = np.array([[3], [50], [9_999], [10_000], [123_456]])
        ks = np.array([0, 1, 2, 3])
        got = log_binomial(ns, ks)
        expected = log_binomial_numpy(ns, ks)
        assert got.shape == expected.shape == (5, 4)
        assert got.dtype == expected.dtype == np.float64
        assert got.tolist() == expected.tolist()
        # Integral floats broadcast the same way.
        assert log_binomial(ns.astype(float), 2.0).tolist() == expected[:, 2:3].tolist()

    def test_empty_and_0d_arrays_keep_their_shapes(self):
        for n, k in [(np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
                     (7, np.zeros((0, 3), dtype=np.int64)),
                     (np.zeros((2, 0), dtype=np.int64), 0)]:
            got = log_binomial(n, k)
            expected = log_binomial_numpy(n, k)
            assert got.shape == expected.shape and got.dtype == np.float64
        got = log_binomial(np.array(20), np.array(7))
        assert type(got) is float and got == log_binomial_numpy(np.array(20), np.array(7))
        assert log_binomial(np.array([20]), 7).shape == (1,)

    def test_numpy_integers_and_bools_keep_the_array_path(self):
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
        # Arrays are checked whole before any element is computed.
        with pytest.raises(DomainError, match=r"need 0 <= k <= n"):
            log_binomial(np.array([5, 3]), np.array([2, 4]))
        with pytest.raises(DomainError, match=r"n must be integral"):
            log_binomial(np.array([5.5]), 2)
        with pytest.raises(DomainError, match=r"k must be integral"):
            log_binomial(5, np.array([True]))


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


class TestBernoulliKld:
    def test_known_values(self):
        assert bernoulli_kld(1.0, 0.5) == pytest.approx(1.0)
        assert bernoulli_kld(0.8, 0.5) == pytest.approx(0.27807190511263774, rel=1e-12)
        for q in (0.1, 0.42, 0.9):
            assert bernoulli_kld(q, q) == 0.0

    def test_nonnegative_grid_zero_iff_equal(self):
        ps = np.linspace(0.0, 1.0, 100)
        qs = np.linspace(0.005, 0.995, 100)
        d = bernoulli_kld(ps[:, None], qs[None, :])
        assert np.all(d >= 0.0)
        zero = np.isclose(d, 0.0, atol=1e-12)
        equal = np.isclose(ps[:, None], qs[None, :], atol=1e-12)
        assert np.array_equal(zero, equal)

    def test_infinite_divergence_at_degenerate_reference(self):
        assert bernoulli_kld(0.5, 0.0) == math.inf
        assert bernoulli_kld(0.5, 1.0) == math.inf
        assert bernoulli_kld(0.0, 0.0) == 0.0
        assert bernoulli_kld(1.0, 1.0) == 0.0

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
        vals = g_term(np.arange(1, n), n)
        assert vals.argmax() in (0, n - 2)
        assert vals.argmin() == n // 2 - 1

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            g_term(0, 6)
        with pytest.raises(DomainError):
            g_term(6, 6)


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
