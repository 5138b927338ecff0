"""Complement, mixtures, the union construction, and separability geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_dfa, random_qfa, three_quarter_machine
from qfalab.combinators import (
    LimitConditionError,
    MixtureError,
    MixtureSpec,
    complement,
    mix,
    separability,
    union,
)
from qfalab.fixtures import oracle, qfa_fixture
from qfalab.qfa import all_words, run, validate, verify_recognition
from qfalab.synthesis import reversible_qfa


@pytest.fixture(scope="module")
def k2():
    return qfa_fixture("even_head_odd_tail_qfa")


@pytest.fixture(scope="module")
def k3():
    return qfa_fixture("odd_head_odd_tail_qfa")


class TestComplement:
    def test_swaps_the_verdict_probabilities(self, k2):
        out = run(complement(k2), "ba")
        assert out.p_reject == pytest.approx(2 / 3, abs=1e-12)

    def test_involution(self, k2):
        assert complement(complement(k2)) == k2

    def test_recognizes_the_complement_language(self, k2):
        lang = oracle("even_head_odd_tail")
        report = verify_recognition(complement(k2), lambda w: not lang(w), 2 / 3 - 1e-9, 6)
        assert report.passed


class TestMix:
    def test_singleton_mixture_is_the_machine(self, k2):
        m = mix(MixtureSpec(parts=((k2, 1.0),)))
        for w in all_words(("a", "b"), 5):
            assert run(m, w).p_accept == pytest.approx(run(k2, w).p_accept, abs=1e-12)

    def test_even_split(self, k2, k3):
        m = mix(MixtureSpec(parts=((k2, 0.5), (k3, 0.5))))
        assert run(m, "ba").p_accept == pytest.approx((2 / 3 + 0) / 2, abs=1e-12)

    def test_pure_accept_bias(self):
        m = mix(MixtureSpec(parts=(), accept_bias=1.0, alphabet=("a", "b")))
        for w in ("", "a", "abba"):
            assert run(m, w).p_accept == pytest.approx(1.0, abs=1e-15)

    def test_empty_mixture_needs_an_alphabet(self):
        with pytest.raises(MixtureError, match="alphabet"):
            mix(MixtureSpec(parts=(), accept_bias=1.0))

    def test_weight_sum_enforced(self, k2):
        with pytest.raises(MixtureError, match="sum"):
            mix(MixtureSpec(parts=((k2, 0.5),), accept_bias=0.25))

    def test_alphabet_mismatch_rejected(self, k2):
        other = random_qfa(np.random.default_rng(0), alphabet=("x", "y"))
        with pytest.raises(MixtureError, match="alphabet"):
            mix(MixtureSpec(parts=((k2, 0.5), (other, 0.5))))

    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=30)
    def test_linearity_on_random_machines(self, seed, w1):
        rng = np.random.default_rng(seed)
        part1 = random_qfa(rng)
        part2 = random_qfa(rng)
        bias = (1 - w1) / 3
        m = mix(MixtureSpec(parts=((part1, w1), (part2, 1 - w1 - 2 * bias)),
                            accept_bias=bias, reject_bias=bias))
        assert validate(m, 1e-9).passed
        for w in ("", "a", "ab", "bba"):
            expected = (
                w1 * run(part1, w).p_accept
                + (1 - w1 - 2 * bias) * run(part2, w).p_accept
                + bias
            )
            assert run(m, w).p_accept == pytest.approx(expected, abs=1e-9)


class TestUnion:
    def test_limit_case_is_rejected(self, k2, k3):
        with pytest.raises(LimitConditionError):
            union(k2, 2 / 3, k3, 2 / 3)

    def test_three_quarter_toys_reach_six_elevenths(self):
        toy1 = three_quarter_machine("a")
        toy2 = three_quarter_machine("b")
        machine, p = union(toy1, 0.75, toy2, 0.75)
        assert p == pytest.approx(6 / 11, abs=1e-12)
        lang = lambda w: w.count("a") % 2 == 0 or w.count("b") % 2 == 0
        report = verify_recognition(machine, lang, 6 / 11 - 1e-9, 6)
        assert report.passed
        # out-of-union words reject exactly at the bound
        assert run(machine, "ab").p_reject == pytest.approx(6 / 11, abs=1e-12)

    def test_certain_recognizers_combine_at_two_thirds(self):
        even_a = reversible_qfa(make_dfa(2, [1, 0, 0, 1], [True, False]))
        even_b = reversible_qfa(make_dfa(2, [0, 1, 1, 0], [True, False]))
        machine, p = union(even_a, 1.0, even_b, 1.0)
        assert p == pytest.approx(2 / 3, abs=1e-12)
        lang = lambda w: w.count("a") % 2 == 0 or w.count("b") % 2 == 0
        assert verify_recognition(machine, lang, 2 / 3 - 1e-9, 6).passed

    def test_precondition_matches_the_closed_form(self):
        # p > 1/2 iff 1/p1 + 1/p2 < 3, via the identity
        # p = 1/2 + (3 - (1/p1 + 1/p2)) / (2 (1 + 1/p1 + 1/p2))
        for p1 in np.linspace(0.4, 1.0, 13):
            for p2 in np.linspace(0.4, 1.0, 13):
                s = 1 / p1 + 1 / p2
                closed = 0.5 + (3 - s) / (2 * (1 + s))
                formula = 2 * p1 * p2 / (p1 + p2 + p1 * p2)
                assert formula == pytest.approx(closed, abs=1e-12)
                assert (formula > 0.5) == (s < 3)

    def test_corollary_grid_above_two_thirds(self, k2, k3):
        for p1 in (0.67, 0.75, 0.9, 1.0):
            for p2 in (0.67, 0.75, 0.9, 1.0):
                _, p = union(k2, p1, k3, p2)
                assert p > 0.5


class TestSeparability:
    def test_fixture_pair_is_the_limit_case(self, k2, k3):
        result = separability(k2, k3, oracle("odd_tail"), 6)
        assert result.separable
        assert result.limit_case
        assert result.margin == 0.0
        a, b, c = result.line
        # the touching line is x + y = 2/3 (up to normalization)
        assert a == pytest.approx(b, abs=1e-12)
        assert c / a == pytest.approx(2 / 3, abs=1e-9)
        # in-points sit on or above, out-points on or below
        for point in result.cloud:
            value = a * point.p1 + b * point.p2
            if point.in_language:
                assert value >= c - 1e-9
            else:
                assert value <= c + 1e-9

    def test_same_machine_twice_has_a_clear_gap(self, k2):
        result = separability(k2, k2, oracle("even_head_odd_tail"), 5)
        assert result.separable
        assert not result.limit_case
        assert result.margin == pytest.approx(math.sqrt(2) / 6, abs=1e-9)

    def test_constant_true_oracle_is_trivially_separable(self, k2, k3):
        result = separability(k2, k3, lambda w: True, 4)
        assert result.separable
        assert result.line is None
        assert result.margin == math.inf

    def test_overlapping_clouds_are_not_separable(self, k2, k3):
        # parity labels scatter both classes over the same probability pairs
        result = separability(k2, k3, lambda w: len(w) % 2 == 0, 4)
        assert not result.separable
        assert result.line is None

    def test_alphabet_mismatch(self, k2):
        other = random_qfa(np.random.default_rng(1), alphabet=("x", "y"))
        with pytest.raises(ValueError, match="alphabet"):
            separability(k2, other, lambda w: True, 3)
