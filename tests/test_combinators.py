"""Complement, mixtures, the union construction, and separability geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_dfa, overflowing, random_qfa, three_quarter_machine
from qfalab.combinators import (
    LimitConditionError,
    MixtureError,
    MixtureSpec,
    _max_margin_line,
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


def on_its_side(line, in_points, out_points, margin=0.0, tol=1e-9):
    """Every in-point at least `margin` above the line a*x + b*y = c, every out-point below."""
    a, b, c = line
    return (all(a * float(x) + b * float(y) - c >= margin - tol for x, y in in_points)
            and all(c - a * float(x) - b * float(y) >= margin - tol for x, y in out_points))


def segment_distance(p, a, b) -> float:
    """Distance from point p to the segment [a, b] (a point when a == b)."""
    ab = (b[0] - a[0], b[1] - a[1])
    ee = ab[0] * ab[0] + ab[1] * ab[1]
    t = min(1, max(0, ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / ee)) if ee else 0
    dx, dy = p[0] - a[0] - t * ab[0], p[1] - a[1] - t * ab[1]
    return math.sqrt(float(dx * dx + dy * dy))


def brute_distance(ps, qs) -> float:
    """Distance between the hulls of two disjoint point sets: the least from a
    point of one set to a segment between two points of the other."""
    return min(
        min(segment_distance(p, a, b) for p in ps for a in qs for b in qs),
        min(segment_distance(q, a, b) for q in qs for a in ps for b in ps),
    )


coordinate = st.builds(Fraction, st.integers(0, 6), st.sampled_from([2, 3, 4, 6]))
points = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6)


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

    @pytest.mark.parametrize("name", ["odd_tail", "even_head_odd_tail"])
    def test_fixture_pair_puts_each_point_on_its_side_of_the_line(self, k2, k3, name):
        result = separability(k2, k3, oracle(name), 6)
        in_points = [(pt.p1, pt.p2) for pt in result.cloud if pt.in_language]
        out_points = [(pt.p1, pt.p2) for pt in result.cloud if not pt.in_language]
        assert in_points and out_points
        assert on_its_side(result.line, in_points, out_points, result.margin)

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

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_a_non_finite_probability_ends_in_a_nan_report(self, k2):
        big = overflowing(k2)
        result = separability(big, k2, oracle("odd_tail"), 3)
        assert (result.separable, result.line, result.limit_case) == (False, None, False)
        assert math.isnan(result.margin)
        assert [pt.word for pt in result.cloud] == list(all_words(("a", "b"), 3))
        for pt in result.cloud:
            assert pt.p1 == run(big, pt.word).p_accept or math.isnan(pt.p1)
            assert pt.p2 == run(k2, pt.word).p_accept
            assert pt.in_language == oracle("odd_tail")(pt.word)
        assert not all(math.isfinite(pt.p1) for pt in result.cloud)

    @given(points, points)
    @settings(max_examples=300)
    def test_the_line_puts_each_side_on_its_side_at_half_the_hull_distance(self, inside, outside):
        result = _max_margin_line((), inside, outside)
        if result.line is None:
            assert not result.separable
            return
        assert result.separable
        assert on_its_side(result.line, inside, outside, result.margin)
        assert result.limit_case == (result.margin == 0)
        if result.margin > 0:
            assert result.margin == pytest.approx(brute_distance(inside, outside) / 2, abs=1e-12)


F = Fraction
# the snapped points of the fixture pair's cloud against odd_tail
LIMIT_IN = [(F(0), F(2, 3)), (F(1, 3), F(2, 3)), (F(2, 3), F(0)), (F(2, 3), F(1, 3))]
LIMIT_OUT = [(F(1, 3), F(1, 3))]


@pytest.mark.parametrize(
    "inside, outside, separable, line",
    [
        # one shared point: the gap is the origin alone, with no edge
        ([(F(1, 2), F(1, 2))], [(F(1, 2), F(1, 2))], False, None),
        # a shared point plus an edge: the hulls touch, along the edge's line
        ([(F(1, 2), F(1, 2))], [(F(1, 2), F(1, 2)), (F(1), F(1))],
         True, (0.7071067811865475, -0.7071067811865475, 0.0)),
        # collinear, overlapping segments: they touch, along the perpendicular line
        ([(F(0), F(0)), (F(2), F(0))], [(F(1), F(0)), (F(3), F(0))], True, (0.0, -1.0, 0.0)),
        # the union limit case: x + y = 2/3
        (LIMIT_IN, LIMIT_OUT, True, (0.7071067811865475, 0.7071067811865475, 0.4714045207910317)),
    ],
    ids=["one-shared-point", "shared-point-and-edge", "collinear-overlap", "union-limit"],
)
def test_degenerate_conventions(inside, outside, separable, line):
    result = _max_margin_line((), inside, outside)
    assert (result.separable, result.line, result.margin) == (separable, line, 0.0)
    assert result.limit_case == separable
    if line is not None:
        assert on_its_side(line, inside, outside)
