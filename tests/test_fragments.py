"""Fragment detectors, witness verification, and the classification verdict."""

import json
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import dfas, make_dfa, permutation_component_dfas
from qfalab.automata import Dfa, minimize, transition_monoid
from qfalab.fixtures import dfa_fixture
from qfalab.fragments import (
    CONSTRUCTIBLE,
    FORK,
    INCONCLUSIVE,
    NOT_RECOGNIZABLE,
    ORDER_VIOLATION,
    OUTSIDE_CHARACTERIZED_CLASS,
    TWO_CYCLES,
    TWO_LEVEL_FORK,
    FragmentWitness,
    classify,
    detect_fork,
    detect_order_violation,
    detect_two_cycles,
    parse_witness,
    verify_witness,
    witness_to_json,
)


def monoid_of(dfa):
    return transition_monoid(dfa)


def one_state():
    return make_dfa(1, [0, 0], [True])


# ---------------------------------------------------------------------------
# word-level brute-force oracles (independent of the monoid machinery)

def brute_order_violation(dfa: Dfa, max_len: int = 6) -> bool:
    n = len(dfa.states)
    words = [
        "".join(t) for k in range(1, max_len + 1) for t in product(dfa.alphabet, repeat=k)
    ]
    mappings = {w: [dfa.states.index(dfa.run(w, start=q)) for q in dfa.states] for w in words}
    for x, mx in mappings.items():
        for q1 in range(n):
            q2 = mx[q1]
            if q2 == q1 or mx[q2] != q2:
                continue
            if any(my[q2] == q1 for my in mappings.values()):
                return True
    return False


def brute_fork(dfa: Dfa, word_len: int = 4, block_len: int = 5) -> bool:
    n = len(dfa.states)
    acc = {i for i, q in enumerate(dfa.states) if q in dfa.accepting}
    words = [
        "".join(t) for k in range(1, word_len + 1) for t in product(dfa.alphabet, repeat=k)
    ]
    mappings = {w: [dfa.states.index(dfa.run(w, start=q)) for q in dfa.states] for w in words}

    def separable(s, t):
        # product BFS: exact
        seen = {(s, t)}
        frontier = [(s, t)]
        while frontier:
            nxt = []
            for a, b in frontier:
                if a in acc and b not in acc:
                    return True
                for sym in dfa.alphabet:
                    pa = dfa.states.index(dfa.transitions[(dfa.states[a], sym)])
                    pb = dfa.states.index(dfa.transitions[(dfa.states[b], sym)])
                    if (pa, pb) not in seen:
                        seen.add((pa, pb))
                        nxt.append((pa, pb))
            frontier = nxt
        return any(a in acc and b not in acc for a, b in seen)

    def recurrent(mx, my, source):
        blocks = []
        for k in range(block_len + 1):
            blocks.extend(product((mx, my), repeat=k))

        def apply(bs, s):
            for m in bs:
                s = m[s]
            return s

        targets = {apply(bs, source) for bs in blocks}
        return all(any(apply(bs, s) == source for bs in blocks) for s in targets)

    for x, mx in mappings.items():
        for y, my in mappings.items():
            for q1 in range(n):
                q2, q3 = mx[q1], my[q1]
                if mx[q2] != q2 or my[q3] != q3 or q2 == q3:
                    continue
                if not (separable(q2, q3) and separable(q3, q2)):
                    continue
                if recurrent(mx, my, q2) and recurrent(mx, my, q3):
                    return True
    return False


# ---------------------------------------------------------------------------

class TestDetectOrderViolation:
    def test_demo_fixture_yields_the_expected_words(self):
        dfa = dfa_fixture("order_violation_demo")
        witness = detect_order_violation(dfa, monoid_of(dfa))
        assert witness is not None
        assert witness.words == {"x": "a", "y": "b"}
        assert verify_witness(dfa, witness).passed

    def test_absent_on_the_constructible_fixture(self):
        dfa = dfa_fixture("even_head_odd_tail")
        assert detect_order_violation(dfa, monoid_of(dfa)) is None

    def test_absent_on_one_state(self):
        dfa = one_state()
        assert detect_order_violation(dfa, monoid_of(dfa)) is None


class TestDetectTwoCycles:
    def test_a_star_b_star_has_chained_cycles(self):
        dfa = dfa_fixture("a_star_b_star")
        witness = detect_two_cycles(dfa, monoid_of(dfa))
        assert witness is not None
        report = verify_witness(dfa, witness)
        assert report.passed
        # first cycle enters the b-loop, second the dead sink
        assert witness.words["x"] == "b"
        assert witness.words["y"] == "a"

    def test_absent_on_the_union_fixture(self):
        dfa = dfa_fixture("odd_tail")
        assert detect_two_cycles(dfa, monoid_of(dfa)) is None

    def test_absent_on_one_state(self):
        dfa = one_state()
        assert detect_two_cycles(dfa, monoid_of(dfa)) is None


class TestDetectFork:
    def test_union_fixture_has_a_fork(self):
        dfa = dfa_fixture("odd_tail")
        witness = detect_fork(dfa, monoid_of(dfa))
        assert witness is not None
        assert verify_witness(dfa, witness).passed

    def test_absent_on_both_constructible_fixtures(self):
        for name in ("even_head_odd_tail", "odd_head_odd_tail"):
            dfa = dfa_fixture(name)
            assert detect_fork(dfa, monoid_of(dfa)) is None

    def test_absent_on_the_layered_fixture(self):
        dfa = dfa_fixture("layered")
        monoid = monoid_of(dfa)
        assert monoid.complete
        assert detect_fork(dfa, monoid) is None

    @given(dfas(min_states=2, max_states=5))
    @settings(max_examples=40)
    def test_agrees_with_word_level_brute_force(self, raw):
        dfa = minimize(raw)
        monoid = transition_monoid(dfa, cap=5000)
        if not monoid.complete:
            return
        witness = detect_fork(dfa, monoid)
        if witness is not None:
            assert verify_witness(dfa, witness).passed
        if brute_fork(dfa):
            assert witness is not None

    @given(dfas(min_states=2, max_states=5))
    @settings(max_examples=60)
    def test_order_violation_agrees_with_brute_force(self, raw):
        dfa = minimize(raw)
        monoid = transition_monoid(dfa, cap=5000)
        if not monoid.complete:
            return
        witness = detect_order_violation(dfa, monoid)
        if witness is not None:
            assert verify_witness(dfa, witness).passed
        if brute_order_violation(dfa):
            assert witness is not None


class TestVerifyWitness:
    def test_specific_fork_bindings_on_the_union_fixture(self):
        dfa = dfa_fixture("odd_tail")
        witness = FragmentWitness(
            kind=FORK,
            states={"q1": dfa.start, "q2": dfa.run("b"), "q3": dfa.run("aba")},
            words={"x": "b", "y": "aba", "z1": "ab", "z2": "b"},
        )
        report = verify_witness(dfa, witness)
        assert report.passed

    def test_corrupted_suffixes_fail_on_conditions_8_and_10(self):
        dfa = dfa_fixture("odd_tail")
        witness = FragmentWitness(
            kind=FORK,
            states={"q1": dfa.start, "q2": dfa.run("b"), "q3": dfa.run("aba")},
            words={"x": "b", "y": "aba", "z1": "b", "z2": "b"},
        )
        report = verify_witness(dfa, witness)
        assert not report.passed
        assert tuple(c.label for c in report.conditions if not c.passed) == (
            "8: z1 accepts from q2",
            "10: z1 rejects from q3",
        )

    def test_missing_binding_raises(self):
        dfa = dfa_fixture("odd_tail")
        with pytest.raises(ValueError, match="missing"):
            verify_witness(dfa, FragmentWitness(kind=FORK, states={"q1": "s0"}, words={}))

    def test_wrong_alphabet_raises(self):
        dfa = dfa_fixture("odd_tail")
        witness = FragmentWitness(
            kind=ORDER_VIOLATION,
            states={"q1": "s0", "q2": "s1"},
            words={"x": "zz", "y": "b"},
        )
        with pytest.raises(ValueError, match="alphabet"):
            verify_witness(dfa, witness)

    def test_layered_single_letter_two_level_fork(self):
        dfa = dfa_fixture("layered")
        q0 = dfa.start
        witness = FragmentWitness(
            kind=TWO_LEVEL_FORK,
            states={"q0": q0},
            words={
                "u1": "a", "u2": "b", "u3": "c",
                "v1": "d", "v2": "e", "v3": "f",
                "s1": "g", "s2": "h", "s3": "i",
            },
        )
        report = verify_witness(dfa, witness)
        assert report.passed
        assert len(report.conditions) == 7


# the state and word bindings of each witness kind, and the states that its
# conditions ask to be the image of an earlier state under a word
BINDINGS = {
    ORDER_VIOLATION: (("q1", "q2"), ("x", "y"), {"q2": ("x", "q1")}),
    TWO_CYCLES: (("q1", "q2", "q3"), ("x", "y"), {"q2": ("x", "q1"), "q3": ("y", "q2")}),
    FORK: (("q1", "q2", "q3"), ("x", "y", "z1", "z2"), {"q2": ("x", "q1"), "q3": ("y", "q1")}),
    TWO_LEVEL_FORK: (("q0",), ("u1", "u2", "u3", "v1", "v2", "v3", "s1", "s2", "s3"), {}),
}
WITNESSES_PER_KIND = 50


@st.composite
def constructible_with_witnesses(draw):
    """A minimal DFA of at least two states that `classify` calls constructible
    on a complete monoid, and random witnesses of every kind on it: words of
    length at most 3, and states of the DFA, each drawn at random or, where
    the kind asks for an image, as that image half the time.  The witnesses
    come from one drawn seed, so that many cost few draws."""
    verdict = classify(draw(permutation_component_dfas()))
    dfa = verdict.minimal_dfa
    assume(verdict.classification == CONSTRUCTIBLE and len(dfa.states) > 1)
    assert verdict.monoid_complete
    rng = draw(st.randoms(use_true_random=True))

    def witness(kind):
        state_names, word_names, images = BINDINGS[kind]
        words = {k: "".join(rng.choices(dfa.alphabet, k=rng.randint(0, 3))) for k in word_names}
        states = {}
        for k in state_names:
            if k in images and rng.random() < 0.5:
                by, source = images[k]
                states[k] = dfa.run(words[by], start=states[source])
            else:
                states[k] = rng.choice(dfa.states)
        return FragmentWitness(kind, states, words)

    return dfa, [witness(kind) for kind in BINDINGS for _ in range(WITNESSES_PER_KIND)]


@given(constructible_with_witnesses())
@settings(max_examples=200)
def test_no_witness_verifies_on_a_constructible_language(case):
    """Soundness: a verified witness of any kind proves the language is not
    recognizable, or outside the characterized class, so none may verify on
    a language `classify` compiles.  For the order violation, two-cycles and
    fork this cross-checks `classify`'s exact search; for the two-level fork
    it is the paper's theorem."""
    dfa, witnesses = case
    for witness in witnesses:
        assert not verify_witness(dfa, witness).passed, witness


class TestClassify:
    def test_union_language_is_not_recognizable(self):
        verdict = classify(dfa_fixture("odd_tail"))
        assert verdict.classification == NOT_RECOGNIZABLE
        assert verdict.witness.kind == FORK
        assert verify_witness(verdict.minimal_dfa, verdict.witness).passed

    def test_both_halves_are_constructible(self):
        for name in ("even_head_odd_tail", "odd_head_odd_tail"):
            verdict = classify(dfa_fixture(name))
            assert verdict.classification == CONSTRUCTIBLE
            assert verdict.plan is not None

    def test_chained_cycles_fall_outside_the_characterized_class(self):
        verdict = classify(dfa_fixture("a_star_b_star"))
        assert verdict.classification == OUTSIDE_CHARACTERIZED_CLASS
        assert verdict.witness.kind == TWO_CYCLES

    def test_order_violation_demo_is_not_recognizable(self):
        verdict = classify(dfa_fixture("order_violation_demo"))
        assert verdict.classification == NOT_RECOGNIZABLE
        assert verdict.witness.kind == ORDER_VIOLATION

    @given(st.one_of(dfas(1, 6), dfas(1, 5, ("a", "b", "c")), permutation_component_dfas()))
    @example(dfa=dfa_fixture("even_head_odd_tail"))
    @example(dfa=dfa_fixture("odd_tail"))
    @settings(max_examples=300)
    def test_complement_gets_the_same_classification(self, dfa):
        # a language and its complement share their minimal DFA up to the
        # accepting set, hence their monoid, fragments and compiled bound
        def summary(verdict):
            plan = verdict.plan
            return (
                verdict.classification,
                getattr(verdict.witness, "kind", None),
                None if plan is None else plan.success_probability,
                verdict.monoid_size,
                verdict.monoid_complete,
            )

        assert summary(classify(dfa)) == summary(classify(dfa.complement()))

    def test_complement_swaps_the_fork_suffixes(self):
        dfa = dfa_fixture("odd_tail")
        witness = classify(dfa).witness
        swapped = FragmentWitness(
            kind=FORK,
            states=dict(witness.states),
            words={
                "x": witness.words["x"],
                "y": witness.words["y"],
                "z1": witness.words["z2"],
                "z2": witness.words["z1"],
            },
        )
        assert verify_witness(minimize(dfa.complement()), swapped).passed

    def test_incomplete_monoid_without_fragment_is_inconclusive(self):
        # two generators of a symmetric group: fragment-free permutation DFA
        # with a monoid far beyond the cap
        n = 6
        targets = []
        for i in range(n):
            targets.append((i + 1) % n)       # letter a: rotation
            targets.append(1 - i if i < 2 else i)  # letter b: swap first two
        dfa = make_dfa(n, targets, [i == 0 for i in range(n)])
        verdict = classify(dfa, monoid_cap=50)
        assert verdict.classification == INCONCLUSIVE
        assert not verdict.monoid_complete
        assert verdict.reason

    def test_layered_fixture_is_outside_the_characterized_class(self):
        verdict = classify(dfa_fixture("layered"))
        assert verdict.classification == OUTSIDE_CHARACTERIZED_CLASS


class TestWitnessSerialization:
    def test_round_trip_fork(self):
        dfa = dfa_fixture("odd_tail")
        witness = detect_fork(dfa, monoid_of(dfa))
        again = parse_witness(witness_to_json(witness))
        assert again.kind == witness.kind
        assert dict(again.states) == dict(witness.states)
        assert dict(again.words) == dict(witness.words)
        assert verify_witness(dfa, again).passed

    def test_witness_words_only_and_old_documents_still_parse(self):
        dfa = dfa_fixture("odd_tail")
        witness = detect_fork(dfa, monoid_of(dfa))
        doc = json.loads(witness_to_json(witness))
        assert "monoid_elements" not in doc["witness"]
        # documents written with the word mappings alongside the words
        doc["witness"]["monoid_elements"] = {
            k: {q: dfa.run(witness.words[k], q) for q in dfa.states} for k in ("x", "y")
        }
        again = parse_witness(json.dumps(doc))
        assert again == witness
        assert verify_witness(dfa, again).passed
