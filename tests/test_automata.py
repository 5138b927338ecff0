"""Automata substrate: minimization, containment, closed components, monoids."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    definitionally_closed_states,
    dfas,
    make_dfa,
    monoid_by_word_replay,
    nerode_classes,
    words_up_to,
)
from qfalab.automata import (
    Dfa,
    DfaParseError,
    closed_sccs,
    dfa_to_json,
    minimize,
    parse_dfa,
    recurrent_states,
    separating_word,
    strongly_connected,
    transition_monoid,
)
from qfalab.fixtures import dfa_fixture


def language_contains(d1: Dfa, s1: str, d2: Dfa, s2: str) -> bool:
    """True iff every word accepted from s1 in d1 is accepted from s2 in d2."""
    return separating_word(d1, s1, d2, s2) is None


def one_state_all_accepting():
    return make_dfa(1, [0, 0], [True])


class TestMinimize:
    def test_parity_tracker_collapses_to_five_states(self):
        # the raw even-head/odd-tail tracker has 8 states, its language needs 5
        dfa = dfa_fixture("even_head_odd_tail")
        assert len(dfa.states) == 5

    def test_one_state_is_its_own_minimization(self):
        dfa = one_state_all_accepting()
        m = minimize(dfa)
        assert len(m.states) == 1
        assert m.accepting == frozenset(m.states)

    def test_six_state_matches_brute_force_partition(self):
        dfa = make_dfa(6, [1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0], [True, False, True, False, True, False])
        m = minimize(dfa)
        assert len(m.states) == len(nerode_classes(dfa, 12))

    @given(dfas(max_states=6))
    def test_matches_brute_force_and_preserves_language(self, dfa):
        m = minimize(dfa)
        assert len(m.states) == len(nerode_classes(dfa, 8))
        for w in words_up_to(dfa.alphabet, 8):
            assert m.accepts(w) == dfa.accepts(w)

    @given(dfas(max_states=6))
    def test_idempotent(self, dfa):
        m = minimize(dfa)
        assert minimize(m) == m

    def test_canonical_names_are_bfs_order(self):
        m = minimize(make_dfa(3, [2, 1, 2, 1, 0, 0], [False, True, True]))
        assert m.start == "s0"
        assert list(m.states) == [f"s{i}" for i in range(len(m.states))]


class TestDfaValidation:
    def test_rejects_partial_transitions(self):
        with pytest.raises(ValueError, match="not total"):
            Dfa(("p", "q"), ("a",), "p", frozenset(), {("p", "a"): "q"})

    def test_rejects_unknown_start(self):
        with pytest.raises(ValueError, match="start"):
            Dfa(("p",), ("a",), "x", frozenset(), {("p", "a"): "p"})

    def test_run_names_a_letter_outside_the_alphabet(self):
        dfa = dfa_fixture("odd_tail")
        with pytest.raises(ValueError, match="^the DFA has no letter 'c'$"):
            dfa.run("abcab")
        with pytest.raises(ValueError, match="no letter 'c'"):
            dfa.accepts("c")
        # an unknown start state is named the same way, before any letter is read
        with pytest.raises(ValueError, match="^the DFA has no state 'nowhere'$"):
            dfa.run("c", start="nowhere")

    @pytest.mark.parametrize(
        "states, alphabet, accepting, transitions, message",
        [
            (("p", "p"), ("a",), (), {}, "duplicate state names"),
            (("p",), ("a", "a"), (), {}, "duplicate alphabet symbols"),
            (("p",), ("a",), ("x",), {}, "accepting set contains unknown states"),
            # the first bad (state, letter) pair in state-then-alphabet order names the error
            (("p", "q"), ("a", "b"), (), {("p", "a"): "x", ("p", "b"): "q"},
             "transition ('p', 'a') -> unknown state 'x'"),
            (("p", "q"), ("a", "b"), (), {("p", "a"): "p", ("p", "b"): "x"},
             "transition ('p', 'b') -> unknown state 'x'"),
            (("p", "q"), ("a", "b"), (), {("p", "a"): "p", ("p", "b"): "q", ("q", "b"): "x"},
             "transitions not total: missing ('q', 'a')"),
        ],
    )
    def test_error_names_the_first_fault(self, states, alphabet, accepting, transitions, message):
        with pytest.raises(ValueError) as caught:
            Dfa(states, alphabet, "p", frozenset(accepting), transitions)
        assert str(caught.value) == message


class TestParser:
    def test_round_trip(self):
        dfa = dfa_fixture("odd_tail")
        parsed, report = parse_dfa(dfa_to_json(dfa))
        assert parsed == dfa
        assert not report.completed_with_sink

    def test_rejects_duplicate_states(self):
        text = '{"alphabet": ["a"], "states": ["p", "p"], "start": "p", "accept": [], "delta": {"p": {"a": "p"}}}'
        with pytest.raises(DfaParseError, match="duplicate"):
            parse_dfa(text)

    def test_rejects_non_total_without_flag(self):
        text = '{"alphabet": ["a", "b"], "states": ["p"], "start": "p", "accept": [], "delta": {"p": {"a": "p"}}}'
        with pytest.raises(DfaParseError, match="not total"):
            parse_dfa(text)

    def test_sink_completion_is_recorded(self):
        text = '{"alphabet": ["a", "b"], "states": ["p"], "start": "p", "accept": ["p"], "delta": {"p": {"a": "p"}}}'
        dfa, report = parse_dfa(text, complete_with_sink=True)
        assert report.completed_with_sink
        assert report.sink_name in dfa.states
        assert not dfa.accepts("b")
        assert dfa.accepts("aa")

    def test_rejects_multicharacter_symbols(self):
        text = '{"alphabet": ["ab"], "states": ["p"], "start": "p", "accept": [], "delta": {"p": {"ab": "p"}}}'
        with pytest.raises(DfaParseError, match="single-character"):
            parse_dfa(text)


class TestTransitionMonoid:
    def test_swap_letter_gives_order_two_group(self):
        dfa = make_dfa(2, [1, 0, 0, 1], [True, False])  # a swaps, b fixes
        monoid = transition_monoid(dfa)
        assert len(monoid) == 2
        assert monoid.complete
        assert set(monoid.mappings) == {bytes([0, 1]), bytes([1, 0])}

    def test_fixture_monoid_matches_word_enumeration(self):
        dfa = dfa_fixture("even_head_odd_tail")
        monoid = transition_monoid(dfa)
        enumerated = monoid_by_word_replay(dfa)
        assert monoid.complete
        assert {tuple(m) for m in monoid.mappings} == set(enumerated)

    def test_full_transformation_monoid_hits_cap(self):
        # cycle + transposition + a rank-3 merge generate all 256 self-maps of 4 states
        dfa = Dfa(
            ("0", "1", "2", "3"),
            ("c", "t", "m"),
            "0",
            frozenset(["0"]),
            {
                ("0", "c"): "1", ("1", "c"): "2", ("2", "c"): "3", ("3", "c"): "0",
                ("0", "t"): "1", ("1", "t"): "0", ("2", "t"): "2", ("3", "t"): "3",
                ("0", "m"): "1", ("1", "m"): "1", ("2", "m"): "2", ("3", "m"): "3",
            },
        )
        assert len(transition_monoid(dfa, cap=300)) == 256
        capped = transition_monoid(dfa, cap=100)
        assert not capped.complete
        assert len(capped) == 100

    def test_cap_must_cover_generators(self):
        dfa = dfa_fixture("odd_tail")
        with pytest.raises(ValueError):
            transition_monoid(dfa, cap=2)

    @given(dfas(max_states=4))
    def test_witness_words_replay_to_their_mappings(self, dfa):
        monoid = transition_monoid(dfa)
        for i, mapping in enumerate(monoid.mappings):
            word = monoid.word(i)
            replayed = tuple(dfa.states.index(dfa.run(word, start=q)) for q in dfa.states)
            assert replayed == tuple(mapping)

    @given(dfas(max_states=4))
    def test_complete_monoid_equals_word_enumeration(self, dfa):
        monoid = transition_monoid(dfa)
        assert monoid.complete
        assert {tuple(m) for m in monoid.mappings} == set(monoid_by_word_replay(dfa))


class TestLanguageContains:
    def test_component_chain_of_the_five_state_fixture(self):
        dfa = dfa_fixture("even_head_odd_tail")
        comps = closed_sccs(dfa)
        pair = next(c for c in comps if len(c) == 2)
        sink = next(c for c in comps if len(c) == 1)
        q_pair = min(pair, key=dfa.states.index)
        q_sink = next(iter(sink))
        assert language_contains(dfa, q_sink, dfa, q_pair)
        assert not language_contains(dfa, q_pair, dfa, q_sink)

    @given(dfas(max_states=5), st.integers(0, 4))
    def test_reflexive(self, dfa, i):
        q = dfa.states[i % len(dfa.states)]
        assert language_contains(dfa, q, dfa, q)

    def test_all_accepting_vs_all_rejecting(self):
        top = make_dfa(1, [0, 0], [True])
        bottom = make_dfa(1, [0, 0], [False])
        assert not language_contains(top, "q0", bottom, "q0")
        assert separating_word(top, "q0", bottom, "q0") == ""
        assert language_contains(bottom, "q0", top, "q0")

    def test_alphabet_mismatch_raises(self):
        d1 = make_dfa(1, [0, 0], [True], alphabet=("a", "b"))
        d2 = make_dfa(1, [0], [True], alphabet=("c",))
        with pytest.raises(ValueError, match="alphabet"):
            language_contains(d1, "q0", d2, "q0")


class TestClosedSccs:
    def test_five_state_fixture_has_pair_and_sink(self):
        dfa = dfa_fixture("even_head_odd_tail")
        comps = closed_sccs(dfa)
        assert sorted(len(c) for c in comps) == [1, 2]
        assert set().union(*comps) == definitionally_closed_states(dfa)

    def test_single_state(self):
        assert closed_sccs(one_state_all_accepting()) == [frozenset(["q0"])]

    def test_a_star_b_star_has_only_the_sink(self):
        dfa = dfa_fixture("a_star_b_star")
        comps = closed_sccs(dfa)
        assert set().union(*comps) == definitionally_closed_states(dfa)
        assert len(comps) == 1 and len(comps[0]) == 1

    @given(dfas(max_states=8))
    @settings(max_examples=150)
    def test_matches_definitional_oracle(self, dfa):
        assert set().union(*closed_sccs(dfa), frozenset()) == definitionally_closed_states(dfa)


@st.composite
def successor_lists(draw):
    n = draw(st.integers(1, 9))
    return [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)) for _ in range(n)]


def brute_force_reach(adj):
    """reach[i]: nodes reachable from i (i included), by Warshall's closure."""
    reach = [{i, *adj[i]} for i in range(len(adj))]
    for k in range(len(adj)):
        for i in range(len(adj)):
            if k in reach[i]:
                reach[i] |= reach[k]
    return reach


class TestStronglyConnected:
    @given(successor_lists())
    @settings(max_examples=300)
    def test_matches_brute_force_reachability(self, adj):
        n = len(adj)
        reach = brute_force_reach(adj)
        back = [{j for j in range(n) if i in reach[j]} for i in range(n)]
        scc = strongly_connected(adj)
        for i in range(n):
            for j in range(n):
                assert (scc[i] == scc[j]) == (j in reach[i] and i in reach[j]), (adj, i, j)
        assert recurrent_states(adj) == {i for i in range(n) if reach[i] <= back[i]}
        assert recurrent_states(tuple(row) for row in adj) == recurrent_states(adj)
