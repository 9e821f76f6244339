"""Tests for the exhaustive decision-equivalence checker."""

import itertools
import math
from fractions import Fraction

import pytest

import mdlnfa.equivalence as equivalence_module
from mdlnfa.equivalence import (
    XI_FAMILIES,
    EnumerationRefused,
    PartSpec,
    check_equivalence,
    kraft_sum,
    make_random_xi,
    mdl_parts_decision,
    nfa_decision,
    part_code_length,
    tail_count,
    xi_count_ones,
    xi_longest_run,
    xi_weighted_sum,
)
from mdlnfa.experiments import default_equivalence_runs
from oracles import check_equivalence_per_config
from oracles import xi_count_ones as xi_count_ones_plain
from oracles import xi_longest_run as xi_longest_run_plain


def count_ones_part(length=4, eta=16):
    return PartSpec(length=length, eta=Fraction(eta), xi=xi_count_ones,
                    name="count_ones")


class TestTailCount:
    def test_binary_count_ones(self):
        spec = count_ones_part()
        assert tail_count(spec, 2, 4) == 1     # only 1111
        assert tail_count(spec, 2, 0) == 16    # everything
        assert tail_count(spec, 2, 3) == 5     # C(4,3) + C(4,4)

    def test_non_increasing_in_threshold(self):
        spec = count_ones_part()
        counts = [tail_count(spec, 2, t) for t in range(5)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_refuses_oversized_state_space(self):
        spec = PartSpec(length=30, eta=Fraction(1), xi=xi_count_ones)
        with pytest.raises(EnumerationRefused):
            tail_count(spec, 2, 0)


class TestDecisions:
    def test_boundary_case_eta_16(self):
        spec = count_ones_part(eta=16)
        x = (1, 1, 1, 1)
        # eta * P = 16/16 = 1, which is not < 1.
        assert nfa_decision(spec, 2, x) is False
        assert mdl_parts_decision(spec, 2, x) is False

    def test_detection_at_eta_8(self):
        spec = count_ones_part(eta=8)
        x = (1, 1, 1, 1)
        assert nfa_decision(spec, 2, x) is True
        assert mdl_parts_decision(spec, 2, x) is True
        assert part_code_length(spec, 2, x) == pytest.approx(3.0)  # 3 + 0 < 4

    def test_eta_one_detects_everything_but_full_tail(self):
        spec = count_ones_part(eta=1)
        assert nfa_decision(spec, 2, (1, 1, 1, 1)) is True
        assert nfa_decision(spec, 2, (0, 0, 0, 0)) is False  # tail is all 16

    def test_constant_xi_never_selected(self):
        spec = PartSpec(length=4, eta=Fraction(1), xi=lambda v: 7.0)
        for x in [(0, 0, 0, 0), (1, 0, 1, 0)]:
            assert mdl_parts_decision(spec, 2, x) is False
            assert nfa_decision(spec, 2, x) is False


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


class TestXiFamilies:
    def test_longest_run(self):
        assert xi_longest_run((0, 0, 1, 1, 1, 0)) == 3.0
        assert xi_longest_run((0, 1, 0, 1)) == 1.0
        assert xi_longest_run((2, 2, 2, 2)) == 4.0

    def test_weighted_sum(self):
        assert xi_weighted_sum((1, 0, 2)) == 1 + 6

    def test_random_xi_deterministic(self):
        xi_a = make_random_xi(42)
        xi_b = make_random_xi(42)
        configs = [(0, 1, 2), (2, 2, 2), (0, 0, 0), (0, 1, 2)]
        assert [xi_a(c) for c in configs] == [xi_b(c) for c in configs]

    def test_part_spec_validation(self):
        with pytest.raises(ValueError):
            PartSpec(length=0, eta=Fraction(1), xi=xi_count_ones)
        with pytest.raises(ValueError):
            PartSpec(length=4, eta=Fraction(0), xi=xi_count_ones)


class TestNonFiniteXi:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_on_every_path(self, bad):
        spec = PartSpec(length=2, eta=Fraction(2), name="bad_part",
                        xi=lambda v: bad if tuple(v) == (1, 1) else 0.0)
        for check in (lambda: tail_count(spec, 2, 0.0),
                      lambda: nfa_decision(spec, 2, (1, 1)),
                      lambda: check_equivalence(2, [spec])):
            with pytest.raises(ValueError, match="part bad_part: xi values"):
                check()

    def test_unnamed_part_named_by_length(self):
        # A NaN xi used to get tail 0 from tail_count but tail 1 (and one
        # detection) from check_equivalence.
        spec = PartSpec(length=2, eta=Fraction(2),
                        xi=lambda v: math.nan if tuple(v) == (1, 1) else 0.0)
        with pytest.raises(ValueError, match="part 2: xi values"):
            check_equivalence(2, [spec])
        with pytest.raises(ValueError, match="part 2: xi values"):
            tail_count(spec, 2, math.nan)


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


class TestXiAgainstPlainVersions:
    @pytest.mark.parametrize("alphabet", [2, 3, 4])
    def test_identical_floats(self, alphabet):
        for length in range(1, 9):
            for v in itertools.product(range(alphabet), repeat=length):
                for config in (v, list(v)):
                    for new, plain in ((xi_count_ones, xi_count_ones_plain),
                                       (xi_longest_run, xi_longest_run_plain)):
                        got, want = new(config), plain(config)
                        assert type(got) is float and got == want

    def test_empty_configuration(self):
        assert xi_longest_run(()) == 1.0 == xi_longest_run_plain(())
        assert xi_longest_run([]) == 1.0
        assert xi_count_ones(()) == 0.0
