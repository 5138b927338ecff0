"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted here, nothing is
deferred to later calibration.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    definitionally_closed_states,
    monoid_by_word_replay,
    nerode_classes,
    random_dfa,
    random_qfa,
    recurrence_by_word_quantification,
    words_up_to,
)
from qfalab.automata import closed_sccs, minimize, recurrent_states, transition_monoid
from qfalab.combinators import LimitConditionError, MixtureSpec, mix, union
from qfalab.fixtures import dfa_fixture, oracle, qfa_fixture
from qfalab.fragments import (
    CONSTRUCTIBLE,
    FORK,
    NOT_RECOGNIZABLE,
    FragmentWitness,
    classify,
    detect_fork,
    detect_two_cycles,
    verify_witness,
)
from qfalab.qfa import all_words, nonhalting_operator, run, validate, verify_recognition
from qfalab.spectral import decompose, norm_decay_table
from qfalab.synthesis import reversible_qfa, synthesize
from conftest import find_shrinking_word, make_dfa


class _Budget:
    def __init__(self, number: int, description: str, limit_s: float):
        self.number = number
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} - {self.description} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit_s}s"
            )
        return False


def test_criterion_1_pair_machine_probabilities():
    with _Budget(1, "pair machines decide their languages at exactly 2/3 up to length 10", 5.0):
        for qfa_name, lang_name in (
            ("even_head_odd_tail_qfa", "even_head_odd_tail"),
            ("odd_head_odd_tail_qfa", "odd_head_odd_tail"),
        ):
            machine = qfa_fixture(qfa_name)
            lang = oracle(lang_name)
            for w in all_words(("a", "b"), 10):
                out = run(machine, w)
                if lang(w):
                    assert abs(out.p_accept - 2 / 3) <= 1e-9, (qfa_name, w, out.p_accept)
                else:
                    assert out.p_reject >= 2 / 3 - 1e-9, (qfa_name, w, out.p_reject)


def test_criterion_2_union_language_not_recognizable():
    with _Budget(2, "the union language is rejected with a verified fork witness", 1.0):
        verdict = classify(dfa_fixture("odd_tail"))
        assert verdict.classification == NOT_RECOGNIZABLE
        assert verdict.witness is not None and verdict.witness.kind == FORK
        assert verify_witness(verdict.minimal_dfa, verdict.witness).passed
        minimal = verdict.minimal_dfa
        specific = FragmentWitness(
            kind=FORK,
            states={
                "q1": minimal.start,
                "q2": minimal.run("b"),
                "q3": minimal.run("aba"),
            },
            words={"x": "b", "y": "aba", "z1": "ab", "z2": "b"},
        )
        assert verify_witness(minimal, specific).passed


def test_criterion_3_compiler_reaches_three_fifths():
    with _Budget(3, "compiled machines certify exactly 3/5 on words up to length 8", 10.0):
        for dfa_name in ("even_head_odd_tail", "odd_head_odd_tail"):
            machine, p = synthesize(dfa_fixture(dfa_name))
            assert p == Fraction(3, 5)
            assert validate(machine, 1e-9).passed
            report = verify_recognition(machine, oracle(dfa_name), float(p) - 1e-9, 8)
            assert report.passed, report


def test_criterion_4_union_formula():
    with _Budget(4, "limit case rejected; 3/4-toys combine to 6/11 with the four-case bounds", 5.0):
        k2 = qfa_fixture("even_head_odd_tail_qfa")
        k3 = qfa_fixture("odd_head_odd_tail_qfa")
        with pytest.raises(LimitConditionError):
            union(k2, 2 / 3, k3, 2 / 3)

        even_a = reversible_qfa(make_dfa(2, [1, 0, 0, 1], [True, False]))
        even_b = reversible_qfa(make_dfa(2, [0, 1, 1, 0], [True, False]))
        toy1 = mix(MixtureSpec(parts=((even_a, 0.5),), accept_bias=0.25, reject_bias=0.25))
        toy2 = mix(MixtureSpec(parts=((even_b, 0.5),), accept_bias=0.25, reject_bias=0.25))
        combined, p = union(toy1, 0.75, toy2, 0.75)
        assert abs(p - 6 / 11) <= 1e-9
        in_a = lambda w: w.count("a") % 2 == 0
        in_b = lambda w: w.count("b") % 2 == 0
        for w in all_words(("a", "b"), 6):
            out = run(combined, w)
            if in_a(w) or in_b(w):
                assert out.p_accept >= p - 1e-9, (w, out.p_accept)
            else:
                assert out.p_reject >= p - 1e-9, (w, out.p_reject)


def test_criterion_5_unitarity_audit():
    with _Budget(5, "misprinted left marker fails at exactly 1/3; repaired machine passes at 1e-12", 0.1):
        bad = validate(qfa_fixture("bad_left_marker_qfa"), 1e-12)
        assert not bad.passed
        assert abs(bad.worst_deviation - 1 / 3) <= 1e-12
        good = validate(qfa_fixture("even_head_odd_tail_qfa"), 1e-12)
        assert good.passed


def test_criterion_6_spectral_decomposition():
    with _Budget(6, "isometric split of the branching letter plus 100-machine property sweep", 10.0):
        k2 = qfa_fixture("even_head_odd_tail_qfa")
        dec = decompose(k2, "b")
        assert dec.isometric_dim == 2
        op = nonhalting_operator(k2, "b")
        for j in range(dec.isometric_dim):
            v = dec.isometric_basis[:, j]
            assert abs(np.linalg.norm(op @ v) - 1.0) <= 1e-9

        rng = np.random.default_rng(606)
        candidates = [dec.transient_basis[:, j] for j in range(dec.transient_dim)]
        for _ in range(5):
            coeffs = rng.normal(size=dec.transient_dim) + 1j * rng.normal(size=dec.transient_dim)
            v = dec.transient_basis @ coeffs
            candidates.append(v / np.linalg.norm(v))
        for v in candidates:
            word = find_shrinking_word(k2, "b", "b", v, 1e-6, 4)
            assert word is not None and len(word) <= 4
            assert np.linalg.norm(nonhalting_operator(k2, word) @ v) < 1e-6

        for i in range(100):
            machine = random_qfa(np.random.default_rng(7000 + i), dim=6)
            split = decompose(machine, "a")
            assert split.isometric_dim + split.transient_dim == len(split.non_halting)
            for j in range(split.transient_dim):
                table = norm_decay_table(machine, "a", split.transient_basis[:, j], 12)
                assert all(table[k + 1] <= table[k] + 1e-12 for k in range(len(table) - 1))


def test_criterion_7_layered_fixture():
    with _Budget(7, "layered fixture: no fork, the two-level fork verifies, chained cycles found", 30.0):
        dfa = dfa_fixture("layered")
        monoid = transition_monoid(dfa)
        assert monoid.complete
        assert detect_fork(dfa, monoid) is None
        witness = FragmentWitness(
            kind="two-level-fork",
            states={"q0": dfa.start},
            words={
                "u1": "a", "u2": "b", "u3": "c",
                "v1": "d", "v2": "e", "v3": "f",
                "s1": "g", "s2": "h", "s3": "i",
            },
        )
        report = verify_witness(dfa, witness)
        assert report.passed and len(report.conditions) == 7
        chained = detect_two_cycles(dfa, monoid)
        assert chained is not None
        assert verify_witness(dfa, chained).passed


def test_criterion_8_oracle_equivalences():
    with _Budget(8, "four brute-force oracle equivalences, 200 random DFAs each", 60.0):
        # minimization vs brute-force state equivalence
        for i in range(200):
            dfa = random_dfa(np.random.default_rng(8100 + i), int(1 + (i % 6)))
            m = minimize(dfa)
            assert len(m.states) == len(nerode_classes(dfa, 7)), i
            for w in words_up_to(("a", "b"), 6):
                assert m.accepts(w) == dfa.accepts(w)

        # monoid enumeration vs word replay
        for i in range(200):
            dfa = random_dfa(np.random.default_rng(8300 + i), int(2 + (i % 3)))
            monoid = transition_monoid(dfa)
            assert monoid.complete
            assert {tuple(m) for m in monoid.mappings} == set(monoid_by_word_replay(dfa)), i

        # closed components vs the definitional reach/return check
        for i in range(200):
            dfa = random_dfa(np.random.default_rng(8500 + i), int(1 + (i % 6)))
            comps = closed_sccs(dfa)
            assert set().union(*comps, frozenset()) == definitionally_closed_states(dfa), i

        # graph recurrence vs direct word quantification
        checked = 0
        seed = 8700
        while checked < 200:
            rng = np.random.default_rng(seed)
            seed += 1
            dfa = random_dfa(rng, int(rng.integers(2, 7)))
            monoid = transition_monoid(dfa, cap=500)
            if not monoid.complete:
                continue
            n = len(dfa.states)
            for _ in range(2):
                f = monoid.mappings[int(rng.integers(0, len(monoid)))]
                g = monoid.mappings[int(rng.integers(0, len(monoid)))]
                q = int(rng.integers(0, n))
                expected = recurrence_by_word_quantification(n, f, g, q, 6)
                assert (q in recurrent_states(zip(f, g))) == expected, (seed, f, g, q)
                checked += 1


def test_criterion_9_nonclosure_end_to_end():
    with _Budget(9, "union of two constructible halves is itself not recognizable", 5.0):
        l1, l2, l3 = (oracle(n) for n in ("odd_tail", "even_head_odd_tail", "odd_head_odd_tail"))
        for w in all_words(("a", "b"), 10):
            assert l1(w) == (l2(w) or l3(w))
        assert classify(dfa_fixture("even_head_odd_tail")).classification == CONSTRUCTIBLE
        assert classify(dfa_fixture("odd_head_odd_tail")).classification == CONSTRUCTIBLE
        assert classify(dfa_fixture("odd_tail")).classification == NOT_RECOGNIZABLE
