"""Fixture corpus: DFA fixtures agree with hand-written predicates, table constraints hold.

The predicates below are the references of the fixture languages: each
reads membership off a word's letters, independently of any automaton.
"""

import re

import pytest

from qfalab.automata import minimize
from qfalab.fixtures import (
    LAYERED_TABLE,
    dfa_fixture,
    dfa_fixture_names,
    oracle,
    oracle_names,
    qfa_fixture,
    qfa_fixture_names,
)
from qfalab.qfa import KAPPA, all_words, run, validate, verify_recognition


def _head_tail(word: str) -> tuple[int, int, bool]:
    """(# a's before first b, # a's after first b, word contains b)."""
    first_b = word.find("b")
    if first_b < 0:
        return word.count("a"), 0, False
    return word[:first_b].count("a"), word[first_b:].count("a"), True


def _odd_tail(word: str) -> bool:
    _, tail, has_b = _head_tail(word)
    return tail % 2 == 1 if has_b else True


def _even_head_odd_tail(word: str) -> bool:
    head, tail, has_b = _head_tail(word)
    return head % 2 == 0 and (tail % 2 == 1 if has_b else True)


def _odd_head_odd_tail(word: str) -> bool:
    head, tail, has_b = _head_tail(word)
    return head % 2 == 1 and (tail % 2 == 1 if has_b else True)


_LAYERED_RE = re.compile(r"^([abc])[abc]*([def])[def]*([ghi])$")


def _layered(word: str) -> bool:
    m = _LAYERED_RE.match(word)
    if m is None:
        return False
    x, y, z = m.group(1), m.group(2), m.group(3)
    return z in LAYERED_TABLE[(x, y)]


REFERENCES = {
    "odd_tail": _odd_tail,
    "even_head_odd_tail": _even_head_odd_tail,
    "odd_head_odd_tail": _odd_head_odd_tail,
    "layered": _layered,
}


class TestOracles:
    def test_membership_spot_checks(self):
        l1 = _odd_tail
        l2 = _even_head_odd_tail
        l3 = _odd_head_odd_tail
        assert l1("ba") and l2("ba") and not l3("ba")
        assert l1("")  # no b at all, tail condition vacuous; zero-length head is even
        assert l2("") and not l3("")
        assert l3("a") and not l2("a")
        assert l3("aba") and l1("aba") and not l2("aba")

    def test_union_decomposition_pointwise(self):
        l1, l2, l3 = _odd_tail, _even_head_odd_tail, _odd_head_odd_tail
        for w in all_words(("a", "b"), 10):
            assert l1(w) == (l2(w) or l3(w))
            assert not (l2(w) and l3(w))

    def test_even_head_is_the_conjunction_with_the_head_parity(self):
        l1, l2 = _odd_tail, _even_head_odd_tail
        for w in all_words(("a", "b"), 10):
            head = len(w) - len(w.lstrip("a"))
            assert l2(w) == (l1(w) and head % 2 == 0)

    def test_layered_examples(self):
        lay = _layered
        assert lay("adg")
        assert lay("abcadddeg")  # the first second-stage letter d picks the row
        assert lay("aadg")
        assert lay("bfh")
        assert not lay("aeh")
        assert not lay("cfg")
        assert not lay("adgg")
        assert not lay("dg")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            oracle("nope")

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_oracle_is_the_dfa_fixture_built_once(self, name):
        assert oracle(name) == dfa_fixture(name)
        assert oracle(name) is oracle(name)
        assert oracle_names() == tuple(sorted(REFERENCES))


class TestDfaFixtures:
    @pytest.mark.parametrize("name", ["odd_tail", "even_head_odd_tail", "odd_head_odd_tail"])
    def test_fixture_agrees_with_its_oracle(self, name):
        dfa = dfa_fixture(name)
        lang = REFERENCES[name]
        for w in all_words(("a", "b"), 10):
            assert dfa.accepts(w) == lang(w)

    def test_layered_fixture_agrees_with_its_oracle(self):
        dfa = dfa_fixture("layered")
        lang = _layered
        for w in all_words(tuple("abcdefghi"), 4):
            assert dfa.accepts(w) == lang(w)
        for w in ("adg", "aadg", "abdddg", "beh", "bfh", "cei", "cfg", "adgh", "gda"):
            assert dfa.accepts(w) == lang(w)

    def test_state_counts(self):
        assert len(dfa_fixture("odd_tail").states) == 3
        assert len(dfa_fixture("even_head_odd_tail").states) == 5
        assert len(dfa_fixture("odd_head_odd_tail").states) == 5
        assert len(dfa_fixture("a_star_b_star").states) == 3

    def test_union_language_at_the_automaton_level(self):
        # accepting either head parity in the tracker minimizes to the union DFA
        from qfalab.fixtures import _tracker_dfa

        union_tracker = _tracker_dfa(lambda p, h, t: t == 1 if p == "1" else True)
        assert minimize(union_tracker) == dfa_fixture("odd_tail")

    def test_fixtures_are_minimal(self):
        for name in dfa_fixture_names():
            dfa = dfa_fixture(name)
            assert minimize(dfa) == dfa

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            dfa_fixture("nope")


class TestLayeredTable:
    def test_outcome_triples(self):
        # three accepting and three rejecting (branch, stage, suffix) triples
        assert "g" in LAYERED_TABLE[("a", "d")]
        assert "h" in LAYERED_TABLE[("b", "f")]
        assert "i" in LAYERED_TABLE[("c", "e")]
        assert "h" not in LAYERED_TABLE[("a", "e")]
        assert "i" not in LAYERED_TABLE[("b", "d")]
        assert "g" not in LAYERED_TABLE[("c", "f")]

    def test_rows_pairwise_comparable(self):
        rows = list(LAYERED_TABLE.values())
        for r1 in rows:
            for r2 in rows:
                assert r1 <= r2 or r2 <= r1

    def test_squares_pairwise_cellwise_comparable(self):
        squares = {
            x: {(y, z) for y in "def" for z in LAYERED_TABLE[(x, y)]} for x in "abc"
        }
        for s1 in squares.values():
            for s2 in squares.values():
                assert s1 <= s2 or s2 <= s1


class TestQfaFixtures:
    def test_pair_machines_recognize_their_languages(self):
        k2 = qfa_fixture("even_head_odd_tail_qfa")
        assert validate(k2, 1e-12).passed
        assert verify_recognition(k2, oracle("even_head_odd_tail"), 2 / 3 - 1e-9, 8).passed
        k3 = qfa_fixture("odd_head_odd_tail_qfa")
        assert run(k3, "aba").p_accept == pytest.approx(2 / 3, abs=1e-12)

    def test_bad_left_marker_fails_validation(self):
        bad = qfa_fixture("bad_left_marker_qfa")
        report = validate(bad, 1e-9)
        assert not report.passed
        assert report.worst_symbol == KAPPA
        assert report.worst_deviation == pytest.approx(1 / 3, abs=1e-12)

    def test_names_enumerations(self):
        assert "even_head_odd_tail_qfa" in qfa_fixture_names()
        with pytest.raises(KeyError):
            qfa_fixture("nope")
