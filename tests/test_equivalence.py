"""Tests for the exhaustive decision-equivalence checker."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdlnfa.equivalence as equivalence_module
from mdlnfa.equivalence import (
    BLOCK_ROWS,
    MAX_HISTOGRAM_LENGTH,
    MAX_STATES,
    XI_FAMILIES,
    EnumerationRefused,
    PartSpec,
    check_equivalence,
    count_ones_histogram,
    decide,
    enumerate_configs,
    kraft_sum,
    make_random_xi,
    value_histogram,
    xi_count_ones,
    xi_longest_run,
    xi_weighted_sum,
)
from mdlnfa.experiments import default_equivalence_runs
from oracles import check_equivalence_per_config, decide_per_tail
from oracles import make_random_xi as make_random_xi_per_row
from oracles import xi_count_ones as xi_count_ones_plain
from oracles import xi_longest_run as xi_longest_run_plain
from oracles import xi_weighted_sum as xi_weighted_sum_plain


def count_ones_part(length=4, eta=16):
    return PartSpec(length=length, eta=Fraction(eta), xi=xi_count_ones,
                    name="count_ones")


def rows(*configs):
    return np.array(configs, dtype=np.int64)


def all_ones_xi(value):
    """Ordering function that scores `value` on rows of all ones, else 0."""
    return lambda v: np.where((v == 1).all(axis=1), value, 0.0)


class TestEnumerateConfigs:
    @pytest.mark.parametrize("alphabet,length", [(2, 5), (4, 8)])
    def test_matches_itertools_product(self, alphabet, length):
        (block,) = enumerate_configs(alphabet, length)
        want = np.array(list(itertools.product(range(alphabet),
                                               repeat=length)))
        assert block.dtype == np.int64 and np.array_equal(block, want)

    # 2^17 and 3^11 have one leading digit, 2^18 has two.
    @pytest.mark.parametrize("alphabet,length", [(2, 1), (2, 17), (3, 11),
                                                 (2, 18)])
    def test_blocks_in_lexicographic_order(self, alphabet, length):
        # Row r of the enumeration holds the base-|X| digits of r.
        place = alphabet ** np.arange(length - 1, -1, -1)
        start = 0
        for block in enumerate_configs(alphabet, length):
            assert block.dtype == np.int64 and block.shape[1] == length
            assert 0 < len(block) <= BLOCK_ROWS
            index = np.arange(start, start + len(block))[:, None]
            assert np.array_equal(block, index // place % alphabet)
            start += len(block)
        assert start == alphabet**length

    def test_empty_configuration(self):
        (block,) = enumerate_configs(3, 0)
        assert block.shape == (1, 0)

    @pytest.mark.parametrize("alphabet,length", [(2.0, 3), (True, 3), (1, 3),
                                                 (2, -1), (2, 3.0), (2, True)])
    def test_rejected_when_called(self, alphabet, length):
        with pytest.raises(ValueError):
            enumerate_configs(alphabet, length)

    # 2^24 and 3^15 are the last powers within MAX_STATES = 2^24.
    @pytest.mark.parametrize("alphabet,length", [
        (2, 25), (3, 16), (2**24, 2), (2**24 + 1, 1), (2, 10**400), (10**400, 1)],
        ids=["2^25", "3^16", "2^48", "(2^24+1)^1", "2^(10^400)", "(10^400)^1"])
    def test_refused_past_the_cap_when_called(self, alphabet, length):
        # |X|^length is never formed: 2^(10^400) would exhaust memory.
        with pytest.raises(EnumerationRefused, match="enumeration cap"):
            enumerate_configs(alphabet, length)

    @pytest.mark.parametrize("alphabet,length", [(2, 24), (3, 15), (2**24, 1),
                                                 (10**400, 0)],
                             ids=["2^24", "3^15", "(2^24)^1", "(10^400)^0"])
    def test_largest_lengths_within_the_cap(self, alphabet, length):
        block = next(iter(enumerate_configs(alphabet, length)))
        assert block.shape[1] == length and not block[0].any()


class TestTailCount:
    """A part's tails are the suffix sums of its value histogram."""

    def test_binary_count_ones(self):
        # The tails 1 (only 1111), 5 (C(4,3) + C(4,4)) and 16 (everything)
        # are suffix sums of these counts.
        assert value_histogram(count_ones_part(), 2) == \
            [(0.0, 1), (1.0, 4), (2.0, 6), (3.0, 4), (4.0, 1)]

    def test_refuses_oversized_state_space(self):
        spec = PartSpec(length=30, eta=Fraction(1), xi=xi_count_ones)
        with pytest.raises(EnumerationRefused):
            value_histogram(spec, 2)


def part_report(spec, alphabet=2):
    return check_equivalence(alphabet, [spec]).parts[0]


class TestDecisions:
    def test_boundary_case_eta_16(self):
        # x = 1111: eta * P = 16/16 = 1, which is not < 1.
        report = part_report(count_ones_part(eta=16))
        assert (report.detections, report.boundary_exact) == (0, 1)

    def test_detection_at_eta_8(self):
        # x = 1111: log2(8) + log2(1) = 3 < 4.
        report = part_report(count_ones_part(eta=8))
        assert (report.detections, report.boundary_exact) == (1, 0)

    def test_eta_one_detects_everything_but_full_tail(self):
        # Only 0000 has the full tail of 16, exactly on the boundary.
        report = part_report(count_ones_part(eta=1))
        assert (report.detections, report.boundary_exact) == (15, 1)

    def test_constant_xi_never_selected(self):
        spec = PartSpec(length=4, eta=Fraction(1),
                        xi=lambda v: np.full(len(v), 7.0))
        report = part_report(spec)
        assert (report.detections, report.boundary_exact) == (0, 16)


class TestCheckEquivalence:
    def test_standard_families_zero_mismatches(self):
        parts = []
        for length in (4, 6, 8):
            for name, xi in XI_FAMILIES.items():
                parts.append(PartSpec(length=length, eta=Fraction(9),
                                      xi=xi, name=f"{name}_{length}"))
        assert kraft_sum(parts) == 1
        report = check_equivalence(2, parts)
        assert report.total_mismatches == 0
        assert report.total_configs == sum(2**n for n in (4, 6, 8)) * 3

    def test_ternary_random_xi_nonuniform_weights(self):
        etas = [Fraction(2), Fraction(4), Fraction(4)]
        parts = [PartSpec(length=6, eta=eta, xi=make_random_xi(seed), name=f"r{seed}")
                 for seed, eta in enumerate(etas)]
        assert kraft_sum(parts) == 1
        report = check_equivalence(3, parts)
        assert report.total_mismatches == 0
        assert report.total_configs == 3 * 3**6

    def test_single_part_eta_one(self):
        report = check_equivalence(2, [count_ones_part(eta=1)])
        assert report.total_mismatches == 0

    def test_boundary_cases_reported(self):
        # eta = 16 over 16 configurations: only x = 1111 (tail 1) sits exactly
        # on eta * tail = |X|^n.
        report = check_equivalence(2, [count_ones_part(eta=16)])
        assert report.total_boundary_exact == 1
        assert report.total_mismatches == 0

    def test_oversized_part_refused_before_any_enumeration(self):
        # The last part used to be refused only after the earlier parts
        # were enumerated and scored.
        calls = []

        def counting_xi(v):
            calls.append(len(v))
            return xi_count_ones(v)

        def never_called(v):
            raise AssertionError("an oversized part was enumerated")

        parts = [PartSpec(length=4, eta=2, xi=counting_xi),
                 PartSpec(length=30, eta=2, xi=never_called, name="big")]
        with pytest.raises(EnumerationRefused,
                           match=f"part big has {2**30} configurations, beyond "
                                 f"the {MAX_STATES} exhaustive-enumeration cap"):
            check_equivalence(2, parts)
        assert calls == []

    def test_huge_part_refused_without_its_size(self):
        # 2^(10^400) would exhaust memory before any comparison with the cap.
        part = PartSpec(length=10**400, eta=2, xi=xi_count_ones, name="huge")
        with pytest.raises(EnumerationRefused,
                           match=r"part huge has 2\^1000.* configurations, beyond"):
            check_equivalence(2, [part])

    def test_one_enumeration_per_length(self, monkeypatch):
        # Parts of one length share each block: one enumeration per distinct
        # length, and still one xi call per part per block.
        lengths, calls = [], {}
        enumerate_all = equivalence_module.enumerate_configs

        def counting_enumerate(alphabet, length):
            lengths.append(length)
            return enumerate_all(alphabet, length)

        def counting(name, xi):
            def counted(v):
                calls[name] = calls.get(name, 0) + 1
                return xi(v)
            return counted

        monkeypatch.setattr(equivalence_module, "enumerate_configs",
                            counting_enumerate)
        parts = [PartSpec(length=length, eta=8, xi=counting(name, xi),
                          name=name)
                 for name, length, xi in [("a", 4, xi_count_ones),
                                          ("b", 18, xi_weighted_sum),
                                          ("c", 4, xi_longest_run),
                                          ("d", 18, xi_count_ones)]]
        report = check_equivalence(2, parts)
        assert lengths == [4, 18]
        assert calls == {"a": 1, "b": 4, "c": 1, "d": 4}
        monkeypatch.undo()
        assert report.parts == tuple(check_equivalence(2, [p]).parts[0]
                                     for p in parts)

    def test_kraft_violation_refused(self):
        parts = [count_ones_part(eta=2), count_ones_part(eta=2),
                 count_ones_part(eta=2)]
        with pytest.raises(EnumerationRefused):
            check_equivalence(2, parts)

    def test_report_format(self):
        report = check_equivalence(2, [count_ones_part(eta=16)])
        text = report.format()
        assert "kraft sum" in text
        assert "0 mismatches" in text

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            check_equivalence(1, [count_ones_part()])
        with pytest.raises(ValueError):
            check_equivalence(2, [])

    @pytest.mark.parametrize("alphabet", [2.0, True, "2", 2.5])
    def test_alphabet_must_be_an_integer(self, alphabet):
        # 2.0 used to raise a TypeError from deep inside the enumeration.
        message = re.escape(f"alphabet_size must be an integer >= 2, got {alphabet!r}")
        with pytest.raises(ValueError, match=message):
            check_equivalence(alphabet, [count_ones_part()])
        with pytest.raises(ValueError, match=message):
            value_histogram(count_ones_part(), alphabet)

    def test_numpy_integer_alphabet_accepted(self):
        assert check_equivalence(np.int64(2), [count_ones_part()]) == \
            check_equivalence(2, [count_ones_part()])


class TestXiFamilies:
    def test_longest_run(self):
        assert xi_longest_run(rows((0, 0, 1, 1, 1, 0))).tolist() == [3.0]
        assert xi_longest_run(rows((0, 1, 0, 1), (2, 2, 2, 2))).tolist() == \
            [1.0, 4.0]

    def test_weighted_sum(self):
        assert xi_weighted_sum(rows((1, 0, 2))).tolist() == [1 + 6]

    def test_random_xi_deterministic(self):
        xi_a = make_random_xi(42)
        xi_b = make_random_xi(42)
        configs = rows((0, 1, 2), (2, 2, 2), (0, 0, 0), (0, 1, 2))
        assert xi_a(configs).tolist() == xi_b(configs).tolist()

    def test_random_xi_draws_once_per_new_row_in_row_order(self):
        configs = [(0, 1, 2), (2, 2, 2), (0, 0, 0), (0, 1, 2), (2, 2, 2)]
        rng = np.random.Generator(np.random.PCG64(7))
        drawn = {}
        for config in configs:
            if config not in drawn:
                drawn[config] = float(rng.integers(0, 101))
        xi = make_random_xi(7)
        # Split over two calls: the memo carries across blocks.
        got = xi(rows(*configs[:2])).tolist() + xi(rows(*configs[2:])).tolist()
        assert got == [drawn[c] for c in configs]

    def test_part_spec_validation(self):
        with pytest.raises(ValueError):
            PartSpec(length=0, eta=Fraction(1), xi=xi_count_ones)
        with pytest.raises(ValueError):
            PartSpec(length=4, eta=Fraction(0), xi=xi_count_ones)

    @pytest.mark.parametrize("eta", [True, False])
    def test_eta_must_not_be_a_bool(self, eta):
        # Fraction(True) is 1, so eta=True used to build a weight-1 part.
        with pytest.raises(ValueError, match=re.escape(
                f"eta must be a finite real number > 0, got {eta!r}")):
            PartSpec(length=4, eta=eta, xi=xi_count_ones)

    @pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan, 0, -2])
    def test_eta_must_be_positive_and_finite(self, eta):
        # inf used to raise OverflowError, past every `except ValueError`,
        # and nan a message that did not name eta.
        with pytest.raises(ValueError, match=re.escape(
                f"eta must be a finite real number > 0, got {eta!r}")):
            PartSpec(length=4, eta=eta, xi=xi_count_ones)

    @pytest.mark.parametrize("eta", ["3", "1/2"])
    def test_eta_must_not_be_a_string(self, eta):
        # Fraction("1/2") used to build a weight-1/2 part from a string.
        with pytest.raises(ValueError, match=re.escape(
                f"eta must be a finite real number > 0, got {eta!r}")):
            PartSpec(length=3, eta=eta, xi=xi_count_ones)

    @pytest.mark.parametrize("eta,stored", [
        (Fraction(9), Fraction(9)), (2, Fraction(2)), (1.5, Fraction(3, 2)),
        (np.int64(4), Fraction(4)), (np.float32(1.5), Fraction(3, 2))])
    def test_eta_numbers_are_stored_as_fractions(self, eta, stored):
        spec = PartSpec(length=3, eta=eta, xi=xi_count_ones)
        assert type(spec.eta) is Fraction and spec.eta == stored

    @pytest.mark.parametrize("length", [4.0, True, "4", 3.5])
    def test_part_length_must_be_an_integer(self, length):
        # 4.0 used to build and fail mid-run; True was reported as "part True".
        with pytest.raises(ValueError, match=re.escape(
                f"length must be an integer >= 1, got {length!r}")):
            PartSpec(length=length, eta=Fraction(2), xi=xi_count_ones)

    def test_numpy_integer_length_accepted(self):
        spec = PartSpec(length=np.int64(4), eta=Fraction(16), xi=xi_count_ones)
        assert value_histogram(spec, 2) == value_histogram(count_ones_part(), 2)


class TestNonFiniteXi:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_on_every_path(self, bad):
        spec = PartSpec(length=2, eta=Fraction(2), name="bad_part",
                        xi=all_ones_xi(bad))
        for check in (lambda: value_histogram(spec, 2),
                      lambda: check_equivalence(2, [spec])):
            with pytest.raises(ValueError, match="part bad_part: xi values"):
                check()

    def test_unnamed_part_named_by_length(self):
        # A NaN xi used to get tail 0 when counted against a threshold but
        # tail 1 (and one detection) from check_equivalence.
        spec = PartSpec(length=2, eta=Fraction(2), xi=all_ones_xi(math.nan))
        with pytest.raises(ValueError, match="part 2: xi values"):
            check_equivalence(2, [spec])
        with pytest.raises(ValueError, match="part 2: xi values"):
            value_histogram(spec, 2)


class TestXiShape:
    @pytest.mark.parametrize("xi", [lambda v: 1.0,
                                    lambda v: np.zeros((len(v), 1)),
                                    lambda v: np.zeros(len(v) + 1)])
    def test_one_value_per_row_required(self, xi):
        spec = PartSpec(length=3, eta=Fraction(2), xi=xi, name="flat")
        for check in (lambda: value_histogram(spec, 2),
                      lambda: check_equivalence(2, [spec])):
            with pytest.raises(ValueError,
                               match="part flat: xi must return one value per row"):
                check()


class TestAgainstPerConfigOracle:
    """check_equivalence decides each distinct tail once; the oracle decides
    every configuration."""

    @pytest.mark.parametrize("run", range(4))
    def test_default_runs(self, run):
        alphabet, parts = default_equivalence_runs()[run]
        report = check_equivalence(alphabet, parts)
        assert report == check_equivalence_per_config(alphabet, parts)
        assert report.total_configs == sum(p.states(alphabet) for p in parts)

    def test_random_xi_nonuniform_weights(self):
        etas = [Fraction(2), Fraction(4), Fraction(8), Fraction(8)]
        parts = [PartSpec(length=length, eta=eta, xi=make_random_xi(seed, 0, 9),
                          name=f"r{seed}")
                 for seed, (length, eta) in enumerate(zip((3, 5, 6, 7), etas))]
        report = check_equivalence(3, parts)
        assert report == check_equivalence_per_config(3, parts)
        # Few distinct values over many configurations: tails are shared.
        assert all(p.detections > 1 for p in report.parts)

    def test_boundary_case_eta_16(self):
        # Length 8: the C(8, 6) = 28 configurations with six ones have tail
        # 1 + 8 + 28 = 37, so eta = 256/37 puts all of them on the boundary.
        parts = [count_ones_part(length=4, eta=16),
                 count_ones_part(length=8, eta=Fraction(256, 37))]
        report = check_equivalence(2, parts)
        assert report == check_equivalence_per_config(2, parts)
        assert [p.boundary_exact for p in report.parts] == [1, 28]

    def test_mismatches_weighted(self, monkeypatch):
        # The two rules never disagree, so make MDL refuse everything: every
        # NFA detection is then a mismatch, counted once per configuration.
        monkeypatch.setattr(equivalence_module, "_mdl_detects",
                            lambda eta, tail, states: False)
        parts = [count_ones_part(length=6, eta=2)]
        report = check_equivalence(2, parts)
        assert report == check_equivalence_per_config(2, parts)
        assert report.total_mismatches == report.parts[0].detections > 1

    def test_part_spanning_several_blocks(self):
        # 3^11 configurations make three digit-matrix blocks.
        assert len(list(enumerate_configs(3, 11))) == 3
        parts = [PartSpec(length=11, eta=Fraction(2), xi=xi_weighted_sum,
                          name="weighted_sum_11")]
        report = check_equivalence(3, parts)
        assert report == check_equivalence_per_config(3, parts)
        assert 0 < report.parts[0].detections < 3**11

    def test_random_xi_merged_over_several_blocks(self):
        # Each of the three blocks has its own np.unique counts, merged into
        # one histogram.
        def parts():
            return [PartSpec(length=11, eta=Fraction(2), xi=make_random_xi(5),
                             name="random_11")]
        report = check_equivalence(3, parts())
        assert report == check_equivalence_per_config(3, parts())
        assert 0 < report.parts[0].detections < 3**11


class TestDecider:
    """`decide` finds one threshold per rule; the oracle decides every
    distinct tail."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_per_tail_oracle(self, data):
        weights = data.draw(st.lists(st.integers(1, 10**6), min_size=1,
                                     max_size=40))
        states = sum(weights)
        tails = [sum(weights[i:]) for i in range(len(weights))]
        kind = data.draw(st.sampled_from(["random", "boundary", "huge", "one"]))
        if kind == "random":
            eta = Fraction(data.draw(st.integers(1, 10**7)),
                           data.draw(st.integers(1, 10**3)))
        elif kind == "boundary":      # eta * tail == states for a present tail
            eta = Fraction(states, data.draw(st.sampled_from(tails)))
        elif kind == "huge":          # eta >= states: nothing is detected
            eta = Fraction(states + data.draw(st.integers(0, 10**3)))
        else:
            eta = Fraction(1)
        got = decide(eta, states, weights)
        assert got == decide_per_tail(eta, states, weights)
        if kind == "boundary":
            assert got[2] > 0
        if kind == "huge":
            assert got[0] == 0
        if kind == "one":             # every tail but the full one
            assert got[0] == states - weights[0]

    def test_rules_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(equivalence_module, "_nfa_detects",
                            lambda eta, tail, states: True)
        assert decide(Fraction(16), 16, [1, 4, 6, 4, 1]) == (16, 16, 1)


class TestCountOnesHistogram:
    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_matches_enumeration(self, alphabet):
        for length in range(1, 11):
            spec = PartSpec(length=length, eta=2, xi=xi_count_ones)
            assert count_ones_histogram(alphabet, length) == \
                value_histogram(spec, alphabet)

    @pytest.mark.parametrize("alphabet,length", [(2, 256), (3, 64)])
    def test_decided_past_the_cap_with_a_boundary_case(self, alphabet, length):
        histogram = count_ones_histogram(alphabet, length)
        states = alphabet**length
        assert states > MAX_STATES
        weights = [count for _, count in histogram]
        assert sum(weights) == states
        # Put the configurations with at least 3/5 of the digits equal to
        # one exactly on the boundary eta * tail == |X|^L.
        j = 3 * length // 5
        tail = sum(weights[j:])
        eta = Fraction(states, tail)
        detections, mismatches, boundary = decide(eta, states, weights)
        assert (detections, mismatches, boundary) == \
            decide_per_tail(eta, states, weights)
        assert mismatches == 0
        assert boundary == weights[j] > 0
        assert detections == tail - weights[j]

    @pytest.mark.parametrize("alphabet,length", [(1, 4), (2.0, 4), (2, -1),
                                                 (2, 4.0), (2, True)])
    def test_arguments_checked(self, alphabet, length):
        with pytest.raises(ValueError):
            count_ones_histogram(alphabet, length)

    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_built_at_the_cap(self, alphabet):
        # The recurrence's exact divisions against fresh binomials.
        length = MAX_HISTOGRAM_LENGTH
        histogram = count_ones_histogram(alphabet, length)
        assert [value for value, _ in histogram] == list(map(float, range(length + 1)))
        assert sum(count for _, count in histogram) == alphabet**length
        for j in (0, 1, 2, 777, length // 2, length - 1, length):
            assert histogram[j][1] == \
                math.comb(length, j) * (alphabet - 1) ** (length - j)

    def test_length_capped(self):
        # Without the cap a length of 10^400 would never return.
        for length in (MAX_HISTOGRAM_LENGTH + 1, 10**400):
            with pytest.raises(ValueError, match="length must be an integer >= 0 "
                                                 f"and <= {MAX_HISTOGRAM_LENGTH}"):
                count_ones_histogram(3, length)


class TestXiAgainstPlainVersions:
    PAIRS = ((xi_count_ones, xi_count_ones_plain),
             (xi_longest_run, xi_longest_run_plain),
             (xi_weighted_sum, xi_weighted_sum_plain))

    @pytest.mark.parametrize("alphabet", [2, 3, 4])
    def test_identical_floats(self, alphabet):
        for length in range(1, 9):
            configs = list(itertools.product(range(alphabet), repeat=length))
            matrix = rows(*configs)
            for new, plain in self.PAIRS:
                got = new(matrix)
                assert got.dtype == np.float64 and got.shape == (len(configs),)
                assert got.tolist() == [plain(v) for v in configs]

    def test_empty_configuration(self):
        empty = np.zeros((1, 0), dtype=np.int64)
        for new, plain in self.PAIRS:
            assert new(empty).tolist() == [plain(())]
        assert xi_longest_run(empty).tolist() == [1.0]
        assert xi_count_ones(empty).tolist() == [0.0]


class TestRandomXiAgainstPerRow:
    """make_random_xi draws the values of all new rows in one call; they
    must be the values the per-row version draws, on every (seed, low,
    high) the tests use, over each of their configuration blocks."""

    @pytest.mark.parametrize("seed,low,high,length", [
        (0, 0, 100, 6), (1, 0, 100, 6), (2, 0, 100, 6), (42, 0, 100, 3),
        (7, 0, 100, 3), (0, 0, 9, 3), (1, 0, 9, 5), (2, 0, 9, 6), (3, 0, 9, 7),
        (5, 0, 100, 11)])
    def test_identical_values(self, seed, low, high, length):
        xi, plain = make_random_xi(seed, low, high), make_random_xi_per_row(seed, low, high)
        blocks = list(enumerate_configs(3, length))
        # Repeated and shuffled rows, then every block again from the memo.
        shuffled = np.random.default_rng(seed).permutation(blocks[-1])
        for block in [shuffled[:50], np.vstack([shuffled[:80]] * 2), *blocks, *blocks]:
            got = xi(block)
            assert got.dtype == np.float64
            assert got.tolist() == plain(block).tolist()

    def test_empty_configuration(self):
        empty = np.zeros((3, 0), dtype=np.int64)
        xi, plain = make_random_xi(0), make_random_xi_per_row(0)
        assert xi(empty).tolist() == plain(empty).tolist()
