"""Exact simulation semantics of the measure-many model."""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_qfa, random_unitary
from qfalab.fixtures import dfa_fixture, oracle, qfa_fixture
from qfalab.qfa import (
    DOLLAR,
    KAPPA,
    Qfa,
    QfaParseError,
    SymbolError,
    _measure,
    all_words,
    complete_unitary,
    nonhalting_operator,
    parse_qfa,
    qfa_to_json,
    run,
    sweep,
    validate,
    verify_recognition,
)
from qfalab.synthesis import reversible_qfa, synthesize
from conftest import make_dfa


def nonhalting_projector(qfa: Qfa) -> np.ndarray:
    """The projection onto the non-halting basis states."""
    return np.diag([complex(i in qfa.non_halting) for i in range(qfa.dimension)])


S13 = math.sqrt(1 / 3)
S23 = math.sqrt(2 / 3)


@pytest.fixture(scope="module")
def k2():
    return qfa_fixture("even_head_odd_tail_qfa")


@pytest.fixture(scope="module")
def k3():
    return qfa_fixture("odd_head_odd_tail_qfa")


class TestValidate:
    def test_repaired_machine_passes_tightly(self, k2):
        assert validate(k2, 1e-12).passed

    def test_misprinted_left_marker_fails_with_gram_deviation_one_third(self):
        bad = qfa_fixture("bad_left_marker_qfa")
        report = validate(bad, 1e-9)
        assert not report.passed
        assert report.worst_symbol == KAPPA
        assert abs(report.worst_deviation - 1 / 3) < 1e-12

    def test_identity_unitaries_pass(self):
        dim = 3
        qfa = Qfa(
            dimension=dim,
            alphabet=("a",),
            unitaries={sym: np.eye(dim, dtype=np.complex128) for sym in ("a", KAPPA, DOLLAR)},
            start=0,
            acc=frozenset([1]),
            rej=frozenset([2]),
        )
        assert validate(qfa, 1e-12).passed

    def test_nan_entry_fails_and_ranks_worst(self, k2):
        report = validate(with_nan_entry(k2, "b", 1, 1))
        assert not report.passed
        assert report.worst_symbol == "b"
        assert math.isnan(report.worst_deviation)


def with_nan_entry(qfa, symbol, row, col):
    """A copy of `qfa` with one NaN matrix entry; the constructor does not check values."""
    unitaries = {sym: mat.copy() for sym, mat in qfa.unitaries.items()}
    unitaries[symbol][row, col] = complex(math.nan, 0.0)
    return Qfa(qfa.dimension, qfa.alphabet, unitaries, qfa.start, qfa.acc, qfa.rej)


def step(qfa, psi, symbol):
    """One read of `symbol` from `psi`: its unitary, then `_measure` on one row."""
    states = (qfa.unitaries[symbol] @ psi)[None, :]
    acc_inc, rej_inc = _measure(qfa, states)
    return states[0], acc_inc[0], rej_inc[0]


class TestStep:
    def test_branch_split_on_b(self, k2):
        psi1 = np.zeros(8, dtype=np.complex128)
        psi1[0], psi1[1] = S23, S13
        post, acc_inc, rej_inc = step(k2, psi1, "b")
        assert abs(acc_inc - 1 / 3) < 1e-12
        assert abs(rej_inc - 1 / 3) < 1e-12
        expected = np.zeros(8, dtype=np.complex128)
        expected[1] = S13
        assert np.allclose(post, expected)

    def test_reject_heavy_split_on_b(self, k2):
        psi4 = np.zeros(8, dtype=np.complex128)
        psi4[3], psi4[2] = S23, S13
        post, acc_inc, rej_inc = step(k2, psi4, "b")
        assert abs(rej_inc - 2 / 3) < 1e-12
        assert abs(acc_inc) < 1e-12
        expected = np.zeros(8, dtype=np.complex128)
        expected[2] = S13
        assert np.allclose(post, expected)

    def test_zero_vector_is_fixed(self, k2):
        post, acc_inc, rej_inc = step(k2, np.zeros(8, dtype=np.complex128), "a")
        assert acc_inc == rej_inc == 0.0
        assert not post.any()

    def test_unknown_symbol(self, k2):
        with pytest.raises(SymbolError, match="position 1"):
            next(sweep(k2, 2, letters="az"))


class TestRun:
    def test_in_language_word_accepts_at_two_thirds(self, k2):
        out = run(k2, "ba")
        assert abs(out.p_accept - 2 / 3) < 1e-12
        assert abs(out.p_reject - 1 / 3) < 1e-12
        assert out.p_residual < 1e-15

    def test_odd_head_word_rejects_certainly(self, k2):
        out = run(k2, "aba")
        assert out.p_accept < 1e-15
        assert abs(out.p_reject - 1.0) < 1e-12

    def test_empty_word_two_state_machine(self):
        # start swaps into the accepting state at the right endmarker
        swap = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        qfa = Qfa(
            dimension=2,
            alphabet=("a",),
            unitaries={KAPPA: np.eye(2, dtype=np.complex128), "a": np.eye(2, dtype=np.complex128), DOLLAR: swap},
            start=0,
            acc=frozenset([1]),
            rej=frozenset(),
        )
        assert run(qfa, "").p_accept == pytest.approx(1.0, abs=1e-15)

    def test_symbol_error_carries_position(self, k2):
        with pytest.raises(SymbolError, match="position 1"):
            run(k2, "bq")

    def test_trace_accounts_for_every_increment(self, k2):
        out = run(k2, "bab", with_trace=True)
        assert [rec.symbol for rec in out.trace] == [KAPPA, "b", "a", "b", DOLLAR]
        assert sum(r.accept_increment for r in out.trace) == pytest.approx(out.p_accept)
        assert sum(r.reject_increment for r in out.trace) == pytest.approx(out.p_reject)

    @given(st.integers(0, 2**31 - 1), st.text(alphabet="ab", max_size=6))
    @settings(max_examples=60)
    def test_probabilities_sum_to_one(self, seed, word):
        qfa = random_qfa(np.random.default_rng(seed))
        out = run(qfa, word)
        assert out.p_accept + out.p_reject + out.p_residual == pytest.approx(1.0, abs=1e-9)
        assert out.p_accept >= -1e-12 and out.p_reject >= -1e-12 and out.p_residual >= -1e-12


class TestNonhaltingOperator:
    def test_single_letter_permutation_block(self, k2):
        op = nonhalting_operator(k2, "a")
        perm = np.zeros((4, 4))
        for src, dst in ((0, 3), (1, 2), (2, 1), (3, 0)):
            perm[dst, src] = 1.0
        assert np.allclose(op[:4, :4], perm)
        assert np.allclose(op[4:, :], 0)

    def test_empty_word_is_identity(self, k2):
        assert np.allclose(nonhalting_operator(k2, ""), np.eye(8))

    def test_b_keeps_only_the_tail_pair(self, k2):
        op = nonhalting_operator(k2, "b")
        assert np.allclose(op[:4, :4], np.diag([0, 1, 1, 0]))

    def test_endmarkers_allowed(self, k2):
        op = nonhalting_operator(k2, KAPPA + "a" + DOLLAR)
        assert op.shape == (8, 8)

    @given(st.integers(0, 2**31 - 1), st.text(alphabet="ab", min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_contraction_monotone_under_suffixes(self, seed, word):
        rng = np.random.default_rng(seed)
        qfa = random_qfa(rng)
        psi = rng.normal(size=qfa.dimension) + 1j * rng.normal(size=qfa.dimension)
        psi /= np.linalg.norm(psi)
        norms = []
        op = np.eye(qfa.dimension)
        proj = nonhalting_projector(qfa)
        for ch in word:
            op = proj @ qfa.unitaries[ch] @ op
            norms.append(np.linalg.norm(op @ psi))
        assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))

    @given(st.integers(0, 2**31 - 1), st.text(alphabet="ab", max_size=5))
    @settings(max_examples=40)
    def test_run_agrees_with_prefix_operator_recomputation(self, seed, word):
        qfa = random_qfa(np.random.default_rng(seed))
        out = run(qfa, word)
        total_acc = 0.0
        psi = qfa.initial_state()
        op = np.eye(qfa.dimension, dtype=np.complex128)
        proj = nonhalting_projector(qfa)
        for sym in (KAPPA, *word, DOLLAR):
            pre = qfa.unitaries[sym] @ (op @ psi)
            total_acc += float(sum(abs(pre[i]) ** 2 for i in qfa.acc))
            op = proj @ qfa.unitaries[sym] @ op
        assert total_acc == pytest.approx(out.p_accept, abs=1e-12)


class TestReversibleEmbedding:
    def test_permutation_dfa_runs_deterministically(self):
        # a cycles the three states, b fixes each: every letter is a permutation
        dfa = make_dfa(3, [1, 0, 2, 1, 0, 2], [True, False, True])
        qfa = reversible_qfa(dfa)
        for w in all_words(("a", "b"), 8):
            out = run(qfa, w)
            expected = 1.0 if dfa.accepts(w) else 0.0
            assert out.p_accept == pytest.approx(expected, abs=1e-12)
            assert out.p_residual == pytest.approx(0.0, abs=1e-12)


class TestVerifyRecognition:
    def test_fixture_machine_vs_its_language(self, k2):
        report = verify_recognition(k2, oracle("even_head_odd_tail"), 2 / 3 - 1e-9, 7)
        assert report.passed
        assert report.words_checked == 2**8 - 1

    def test_fails_above_two_thirds_with_tight_counterexample(self, k2):
        report = verify_recognition(k2, oracle("even_head_odd_tail"), 0.7, 6)
        assert not report.passed
        word, prob = report.counterexamples[0]
        assert prob == pytest.approx(2 / 3, abs=1e-12)

    def test_complemented_machine_vs_complemented_language(self, k2):
        from qfalab.combinators import complement

        lang = oracle("even_head_odd_tail")
        report = verify_recognition(complement(k2), lambda w: not lang(w), 2 / 3 - 1e-9, 6)
        assert report.passed

    def test_nan_probability_never_passes(self, k2):
        report = verify_recognition(with_nan_entry(k2, "b", 1, 1), oracle("even_head_odd_tail"), 0.66, 4)
        assert not report.passed
        assert math.isnan(report.worst_reject_margin) or math.isnan(report.worst_accept_margin)
        assert report.counterexamples and all(math.isnan(p) for _, p in report.counterexamples)

    def test_requires_p_above_one_half(self, k2):
        with pytest.raises(ValueError):
            verify_recognition(k2, oracle("even_head_odd_tail"), 0.5, 3)

    @pytest.mark.parametrize("p", [1.5, math.inf, math.nan])
    def test_requires_p_at_most_one(self, k2, p):
        with pytest.raises(ValueError, match=r"must lie in \(1/2, 1\]"):
            verify_recognition(k2, oracle("even_head_odd_tail"), p, 2)

    def test_p_of_one_is_valid(self, k2):
        report = verify_recognition(k2, oracle("even_head_odd_tail"), 1, 2)
        assert not report.passed and report.probability == 1


class TestSerialization:
    def test_round_trip_preserves_everything(self, k2):
        again = parse_qfa(qfa_to_json(k2))
        assert again.start == k2.start and again.acc == k2.acc and again.rej == k2.rej
        for sym in k2.unitaries:
            assert np.array_equal(again.unitaries[sym], k2.unitaries[sym])

    def test_loader_rejects_nonunitary_by_default(self):
        bad = qfa_fixture("bad_left_marker_qfa")
        text = qfa_to_json(bad)
        with pytest.raises(QfaParseError, match="not unitary"):
            parse_qfa(text)
        loaded = parse_qfa(text, validate_tol=None)
        assert loaded.dimension == 8

    def test_loader_rejects_wrong_entry_count(self):
        text = qfa_to_json(qfa_fixture("even_head_odd_tail_qfa")).replace('"dimension": 8', '"dimension": 7')
        with pytest.raises(QfaParseError):
            parse_qfa(text)


class TestParseCollector:
    """`parse_qfa` decodes with the garbage collector paused and restores it."""

    @staticmethod
    def texts() -> dict[str, str]:
        good = qfa_to_json(qfa_fixture("even_head_odd_tail_qfa"))
        obj = json.loads(good)
        obj["unitaries"]["a"][0] = [float("nan"), 0.0]
        return {"good": good, "bad json": good[:-3], "non-finite": json.dumps(obj)}

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", ["good", "bad json", "non-finite"])
    def test_the_collector_is_left_as_it_was_found(self, case, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if case == "good":
                parse_qfa(self.texts()[case])
            else:
                with pytest.raises(QfaParseError):
                    parse_qfa(self.texts()[case])
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_a_compiled_machine_parses_without_a_collection(self):
        # its JSON tree holds over a thousand lists, more than a generation-0
        # threshold, so a running collector would collect during the parse
        text = qfa_to_json(synthesize(dfa_fixture("odd_head_odd_tail"))[0])
        generations = []

        def hook(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        assert text.count("[") > gc.get_threshold()[0]
        gc.callbacks.append(hook)
        try:
            qfa = parse_qfa(text)
        finally:
            gc.callbacks.remove(hook)
        assert generations == []
        assert qfa.dimension == 15


class TestCompleteUnitary:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 8), st.integers(0, 7))
    @settings(max_examples=40)
    def test_extends_prescribed_columns(self, seed, dim, n_cols):
        rng = np.random.default_rng(seed)
        n_cols = min(n_cols, dim - 1)
        base = random_unitary(rng, dim)
        columns = {int(j): base[:, j] for j in sorted(rng.permutation(dim)[:n_cols])}
        mat = complete_unitary(columns, dim)
        assert np.allclose(mat.conj().T @ mat, np.eye(dim), atol=1e-10)
        for j, col in columns.items():
            assert np.array_equal(mat[:, j], col)

    def test_rejects_non_unit_column(self):
        with pytest.raises(ValueError):
            complete_unitary({0: np.array([2.0, 0.0], dtype=np.complex128)}, 2)

    def test_rejects_unit_columns_that_are_not_orthogonal(self):
        e0 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
        tilted = np.array([1.0, 1.0, 0.0], dtype=np.complex128) / math.sqrt(2)
        with pytest.raises(ValueError, match="not orthonormal"):
            complete_unitary({0: e0, 1: tilted}, 3)

    def test_large_permutation_dfa_compiles_to_a_recognizer(self):
        # 100 states, both letters random permutations: dimension 300
        rng = np.random.default_rng(2000)
        n = 100
        targets = np.stack([rng.permutation(n), rng.permutation(n)], axis=1).reshape(-1)
        dfa = make_dfa(n, [int(t) for t in targets], [bool(b) for b in rng.integers(0, 2, size=n)])
        qfa = reversible_qfa(dfa)
        assert qfa.dimension == 300
        assert validate(qfa).passed
        assert verify_recognition(qfa, dfa.accepts, 1.0, 3).passed
