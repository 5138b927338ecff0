"""The DFA-to-QFA compiler: plans, collision checks, compiled machines."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dfas, make_dfa, permutation_component_dfas
from qfalab.automata import Dfa, closed_sccs, minimize, separating_word
from qfalab.fixtures import dfa_fixture, oracle
from qfalab.qfa import all_words, run, sweep, validate, verify_recognition
from qfalab.synthesis import (
    ChainViolation,
    EntryStateAmbiguous,
    PermutationViolation,
    SynthesisError,
    TransientNotReversible,
    _certified_entry_state,
    _collisions,
    plan,
    reversible_qfa,
    synthesize,
)


@pytest.fixture(scope="module")
def g2():
    return dfa_fixture("even_head_odd_tail")


@pytest.fixture(scope="module")
def g3():
    return dfa_fixture("odd_head_odd_tail")


class TestPlan:
    def test_five_state_fixture_plan(self, g2):
        p = plan(g2)
        assert p.component_count == 2
        assert p.success_probability == Fraction(3, 5)
        assert sorted(len(c) for c in p.components) == [1, 2]
        assert len(p.transient_states) == 2
        # the two-state component's language strictly contains the sink's
        assert sorted(p.containment_counts) == [1, 2]
        assert sorted(p.halting_weights) == [Fraction(1, 3), Fraction(2, 3)]
        # the chain is containment-increasing
        a_sorted = [p.containment_counts[i] for i in p.chain]
        assert a_sorted == sorted(a_sorted)

    def test_entry_state_reproduces_global_runs(self, g2):
        p = plan(g2)
        rng = np.random.default_rng(0)
        in_component = {q: ci for ci, comp in enumerate(p.components) for q in comp}
        for _ in range(1000):
            word = "".join(rng.choice(["a", "b"], size=rng.integers(0, 12)))
            target = g2.run(word)
            if target in in_component:
                entry = p.entry_states[in_component[target]]
                assert g2.run(word, start=entry) == target

    def test_chain_agrees_with_containment(self, g2):
        p = plan(g2)
        for pos, i in enumerate(p.chain):
            for j in p.chain[pos + 1 :]:
                assert separating_word(g2, p.entry_states[i], g2, p.entry_states[j]) is None

    def test_one_state_all_accepting(self):
        dfa = make_dfa(1, [0, 0], [True])
        p = plan(dfa)
        assert p.transient_states == ()
        assert p.component_count == 1
        assert p.success_probability == Fraction(2, 3)
        assert p.containment_counts == (1,)
        assert p.halting_weights == (Fraction(1, 2),)

    def test_mirror_fixture_has_the_same_shape(self, g2, g3):
        p2, p3 = plan(g2), plan(g3)
        assert p3.success_probability == p2.success_probability == Fraction(3, 5)
        assert sorted(len(c) for c in p3.components) == sorted(len(c) for c in p2.components)

    def test_permutation_violation_raises(self):
        dfa = dfa_fixture("order_violation_demo")
        with pytest.raises(PermutationViolation):
            plan(dfa)

    def test_entry_ambiguity_raises(self):
        # both letters enter the component, but through inconsistent phases
        transitions = {
            ("s", "a"): "x", ("s", "b"): "x",
            ("x", "a"): "x", ("x", "b"): "y",
            ("y", "a"): "y", ("y", "b"): "x",
        }
        dfa = Dfa(("s", "x", "y"), ("a", "b"), "s", frozenset(["x"]), transitions)
        with pytest.raises(EntryStateAmbiguous):
            plan(dfa)

    def test_chain_violation_raises(self):
        # two closed components recognizing incomparable languages
        transitions = {
            ("s", "a"): "e", ("s", "b"): "E",
            ("e", "a"): "o", ("e", "b"): "e",
            ("o", "a"): "e", ("o", "b"): "o",
            ("E", "a"): "E", ("E", "b"): "O",
            ("O", "a"): "O", ("O", "b"): "E",
        }
        dfa = Dfa(("s", "e", "o", "E", "O"), ("a", "b"), "s", frozenset(["e", "E"]), transitions)
        with pytest.raises(ChainViolation):
            plan(dfa)


@settings(max_examples=300)
@given(permutation_component_dfas())
def test_plan_chain_equals_language_containment(dfa):
    """The plan's containment counts, chain and ChainViolation agree with
    pairwise `separating_word` walks between the entry states."""
    components = [tuple(sorted(c, key=dfa.states.index)) for c in closed_sccs(dfa)]
    try:
        entries = [_certified_entry_state(dfa, comp, ci) for ci, comp in enumerate(components)]
    except SynthesisError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            plan(dfa)
        return
    n = len(entries)
    contains = [[separating_word(dfa, e, dfa, f) is None for f in entries] for e in entries]
    if any(not contains[i][j] and not contains[j][i] for i in range(n) for j in range(i)):
        with pytest.raises(ChainViolation):
            plan(dfa)
        return
    counts = tuple(sum(contains[j][i] for j in range(n)) for i in range(n))
    p = plan(dfa)
    assert p.containment_counts == counts
    assert p.chain == tuple(sorted(range(n), key=lambda i: (counts[i], i)))


class TestCheckReversible:
    def test_fixture_transient_part_is_letter_injective(self, g2):
        transient = plan(g2).transient_states
        assert transient == ("s0", "s1")
        assert _collisions(g2, transient, set(transient)) == []

    def test_collision_is_reported_with_the_pair(self):
        # both transient states fall onto the same transient state under a
        transitions = {
            ("u", "a"): "w", ("u", "b"): "c",
            ("v", "a"): "w", ("v", "b"): "v",
            ("w", "a"): "c", ("w", "b"): "c",
            ("c", "a"): "c", ("c", "b"): "c",
        }
        dfa = Dfa(("u", "v", "w", "c"), ("a", "b"), "u", frozenset(["w"]), transitions)
        # v is unreachable but legal as input here
        transient = plan(dfa).transient_states
        # u and w both leave for the sink c on b, but moves out of the
        # transient part halt, so only the merge under a counts
        assert _collisions(dfa, transient, set(transient)) == [("a", "u", "v")]
        with pytest.raises(TransientNotReversible) as exc:
            synthesize(dfa)
        assert str(exc.value).startswith("letter 'a' merges transient states 'u' and 'v';")

    def test_empty_transient_part_passes_vacuously(self):
        dfa = make_dfa(1, [0, 0], [True])
        assert plan(dfa).transient_states == ()
        assert _collisions(dfa, (), set()) == []
        synthesize(dfa)


@st.composite
def letterwise_dfas(draw):
    """1-4 states; each of two letters is a random permutation or a random map."""
    n = draw(st.integers(1, 4))
    states = tuple(f"q{i}" for i in range(n))
    transitions = {}
    for a in ("a", "b"):
        if draw(st.booleans()):
            images = draw(st.permutations(states))
        else:
            images = draw(st.lists(st.sampled_from(states), min_size=n, max_size=n))
        transitions.update(zip(((q, a) for q in states), images))
    accepting = frozenset(q for q in states if draw(st.booleans()))
    return Dfa(states, ("a", "b"), states[0], accepting, transitions)


@settings(max_examples=300)
@given(st.one_of(letterwise_dfas(), dfas(max_states=5)))
def test_permutation_checks_equal_the_set_images(dfa):
    """`reversible_qfa` refuses exactly the DFAs with a letter that does not
    permute the states, and decides every other one with certainty; `plan`
    raises PermutationViolation exactly when some letter's image of a closed
    component is not the whole component."""
    merging = [a for a in dfa.alphabet if {dfa.transitions[(q, a)] for q in dfa.states} != set(dfa.states)]
    if merging:
        with pytest.raises(SynthesisError, match=f"^letter '{merging[0]}' does not permute the state set$"):
            reversible_qfa(dfa)
    else:
        qfa = reversible_qfa(dfa)
        for level in sweep(qfa, 6):
            assert list(level.p_accept) == [float(dfa.accepts(w)) for w in level.words]

    components = [tuple(sorted(c, key=dfa.states.index)) for c in closed_sccs(dfa)]
    violations = [
        (ci, a, comp)
        for ci, comp in enumerate(components)
        for a in dfa.alphabet
        if {dfa.transitions[(q, a)] for q in comp} != set(comp)
    ]
    try:
        plan(dfa)
    except PermutationViolation as exc:
        ci, a, comp = violations[0]
        assert str(exc).startswith(f"letter {a!r} does not permute component {ci} {comp};")
    except SynthesisError:
        assert violations == []
    else:
        assert violations == []


class TestSynthesize:
    def test_compiled_fixture_recognizes_at_three_fifths(self, g2):
        qfa, p = synthesize(g2)
        assert p == Fraction(3, 5)
        assert validate(qfa, 1e-9).passed
        report = verify_recognition(qfa, oracle("even_head_odd_tail"), 0.6 - 1e-9, 7)
        assert report.passed

    def test_mirror_fixture_also_compiles(self, g3):
        qfa, p = synthesize(g3)
        assert p == Fraction(3, 5)
        assert verify_recognition(qfa, oracle("odd_head_odd_tail"), 0.6 - 1e-9, 7).passed

    def test_one_state_machine_accepts_everything_at_two_thirds(self):
        dfa = make_dfa(1, [0, 0], [True])
        qfa, p = synthesize(dfa)
        assert p == Fraction(2, 3)
        for w in all_words(("a", "b"), 5):
            assert run(qfa, w).p_accept == pytest.approx(2 / 3, abs=1e-12)

    def test_correctness_bound_holds_with_exact_worst_cases(self, g2):
        qfa, _ = synthesize(g2)
        lang = oracle("even_head_odd_tail")
        for w in all_words(("a", "b"), 6):
            out = run(qfa, w)
            good = out.p_accept if lang(w) else out.p_reject
            assert good >= 3 / 5 - 1e-12
        # the bound is tight on both sides of the split
        assert run(qfa, "ba").p_accept == pytest.approx(3 / 5, abs=1e-12)
        assert run(qfa, "b").p_reject == pytest.approx(3 / 5, abs=1e-12)

    def test_permutation_blocks_are_doubly_deterministic(self, g2):
        qfa, _ = synthesize(g2)
        syn = plan(g2)
        n_comp = sum(len(c) for c in syn.components)
        offset = len(syn.transient_states)
        for a in g2.alphabet:
            block = qfa.unitaries[a][offset : offset + n_comp, offset : offset + n_comp]
            for row in np.abs(block):
                assert sorted(np.round(row, 12)) == [0] * (n_comp - 1) + [1]
            for col in np.abs(block.T):
                assert sorted(np.round(col, 12)) == [0] * (n_comp - 1) + [1]

    def test_nonreversible_transient_part_is_rejected(self):
        transitions = {
            ("u", "a"): "w", ("u", "b"): "c",
            ("v", "a"): "w", ("v", "b"): "v",
            ("w", "a"): "c", ("w", "b"): "c",
            ("c", "a"): "c", ("c", "b"): "c",
        }
        dfa = Dfa(("u", "v", "w", "c"), ("a", "b"), "u", frozenset(["w"]), transitions)
        with pytest.raises(TransientNotReversible, match="restructure"):
            synthesize(dfa)

    def test_start_inside_a_component(self):
        # two-state rotation: the whole automaton is one closed component
        dfa = make_dfa(2, [1, 1, 0, 0], [True, False])
        dfa = minimize(dfa)
        qfa, p = synthesize(dfa)
        assert p == Fraction(2, 3)
        lang = lambda w: dfa.accepts(w)
        assert verify_recognition(qfa, lang, float(p) - 1e-9, 7).passed


class TestReversibleQfa:
    def test_rejects_non_permutation_letters(self):
        dfa = dfa_fixture("a_star_b_star")
        with pytest.raises(Exception, match="permute"):
            reversible_qfa(dfa)


class TestEndToEnd:
    def test_every_constructible_random_dfa_compiles_and_verifies(self):
        from qfalab.fragments import CONSTRUCTIBLE, classify
        from qfalab.synthesis import TransientNotReversible
        from conftest import random_dfa

        compiled = 0
        for i in range(60):
            rng = np.random.default_rng(424_000 + i)
            dfa = random_dfa(rng, int(rng.integers(2, 7)))
            verdict = classify(dfa)
            if verdict.classification != CONSTRUCTIBLE:
                continue
            minimal = verdict.minimal_dfa
            try:
                qfa, p = synthesize(minimal)
            except TransientNotReversible:
                continue
            assert validate(qfa, 1e-9).passed
            report = verify_recognition(qfa, minimal.accepts, float(p) - 1e-9, 5)
            assert report.passed, (i, p, report.counterexamples)
            compiled += 1
        assert compiled >= 20
