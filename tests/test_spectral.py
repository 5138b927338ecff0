"""Isometric/transient splits and the shrinking-word search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    find_shrinking_word,
    intersect_then_shrink,
    random_qfa,
    random_unitary,
    unimodular_eigenspace,
)
from qfalab.automata import Dfa, minimize
from qfalab.fixtures import dfa_fixture, qfa_fixture, qfa_fixture_names
from qfalab.qfa import DOLLAR, KAPPA, Qfa, freeze, nonhalting_operator, validate
from qfalab.spectral import decompose, norm_decay_table
from qfalab.synthesis import reversible_qfa, synthesize


@pytest.fixture(scope="module")
def k2():
    return qfa_fixture("even_head_odd_tail_qfa")


def span_projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


class TestDecomposeWord:
    def test_permutation_letter_is_fully_isometric(self, k2):
        dec = decompose(k2, "a")
        assert dec.isometric_dim == 4
        assert dec.transient_dim == 0

    def test_branching_letter_keeps_the_tail_pair(self, k2):
        dec = decompose(k2, "b")
        assert dec.isometric_dim == 2
        assert dec.transient_dim == 2
        # isometric part is exactly span{e1, e2}, transient span{e0, e3}
        proj = span_projector(dec.isometric_basis)
        expected = np.zeros((8, 8))
        expected[1, 1] = expected[2, 2] = 1.0
        assert np.allclose(proj, expected, atol=1e-9)

    def test_unitary_action_gives_empty_transient_part(self):
        rng = np.random.default_rng(7)
        dim = 5
        block = random_unitary(rng, 4)
        mat = np.eye(dim, dtype=np.complex128)
        mat[:4, :4] = block
        qfa = freeze(
            Qfa(
                dimension=dim,
                alphabet=("a",),
                unitaries={"a": mat, KAPPA: np.eye(dim, dtype=np.complex128), DOLLAR: np.eye(dim, dtype=np.complex128)},
                start=0,
                acc=frozenset([4]),
                rej=frozenset(),
            )
        )
        dec = decompose(qfa, "a")
        assert dec.transient_dim == 0

    def test_rejects_empty_word(self, k2):
        with pytest.raises(ValueError):
            decompose(k2, "")

    @given(st.integers(0, 2**31 - 1), st.text(alphabet="ab", min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_dimensions_split_and_invariance(self, seed, word):
        qfa = random_qfa(np.random.default_rng(seed))
        dec = decompose(qfa, word)
        assert dec.isometric_dim + dec.transient_dim == len(dec.non_halting)
        op = nonhalting_operator(qfa, word)
        if dec.isometric_dim:
            images = op @ dec.isometric_basis
            # norms preserved and E1 invariant
            assert np.allclose(np.linalg.norm(images, axis=0), 1.0, atol=1e-8)
            residual = images - span_projector(dec.isometric_basis) @ images
            assert np.linalg.norm(residual) < 1e-7
        if dec.transient_dim:
            restricted = dec.transient_basis.conj().T @ op @ dec.transient_basis
            assert np.max(np.abs(np.linalg.eigvals(restricted))) < 1.0 - 1e-8

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_transient_decay_is_monotone(self, seed):
        qfa = random_qfa(np.random.default_rng(seed))
        dec = decompose(qfa, "a")
        for j in range(dec.transient_dim):
            table = norm_decay_table(qfa, "a", dec.transient_basis[:, j], 20)
            assert all(table[i + 1] <= table[i] + 1e-12 for i in range(len(table) - 1))


class TestDecomposePair:
    def test_power_pair_adds_nothing(self, k2):
        single = decompose(k2, "a")
        pair = decompose(k2, "a", "aa")
        assert pair.isometric_dim == single.isometric_dim
        diff = span_projector(pair.isometric_basis) - span_projector(single.isometric_basis)
        assert np.linalg.norm(diff) < 1e-9

    def test_mixed_pair_preserves_norms_both_ways(self, k2):
        dec = decompose(k2, "b", "a")
        assert dec.isometric_dim == 2
        for word in ("a", "b"):
            op = nonhalting_operator(k2, word)
            for j in range(dec.isometric_dim):
                v = dec.isometric_basis[:, j]
                assert abs(np.linalg.norm(op @ v) - 1.0) < 1e-9

    def test_unitary_pair_spans_everything(self):
        rng = np.random.default_rng(3)
        dim = 4
        mats = {}
        for sym in ("a", "b", KAPPA, DOLLAR):
            mats[sym] = np.eye(dim, dtype=np.complex128)
            mats[sym][:3, :3] = random_unitary(rng, 3)
        qfa = freeze(
            Qfa(dimension=dim, alphabet=("a", "b"), unitaries=mats, start=0,
                acc=frozenset([3]), rej=frozenset())
        )
        dec = decompose(qfa, "a", "b")
        assert dec.isometric_dim == 3

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_contained_in_both_single_word_parts(self, seed):
        qfa = random_qfa(np.random.default_rng(seed))
        pair = decompose(qfa, "a", "b")
        for word in ("a", "b"):
            single = decompose(qfa, word)
            if pair.isometric_dim == 0:
                continue
            residual = pair.isometric_basis - span_projector(single.isometric_basis) @ pair.isometric_basis
            assert np.linalg.norm(residual) < 1e-7


def permutation_dfa(rng: np.random.Generator, n: int) -> Dfa:
    states = tuple(f"q{i}" for i in range(n))
    transitions = {
        (states[i], sym): states[int(j)] for sym in "ab" for i, j in enumerate(rng.permutation(n))
    }
    return Dfa(states, ("a", "b"), states[0], frozenset(states[: rng.integers(1, n)]), transitions)


def block_unitary_qfa(rng: np.random.Generator, n_non: int = 4, n_halt: int = 2) -> Qfa:
    """Each symbol is a random unitary on a random set S of non-halting
    coordinates and another on all other coordinates, so span(S) is invariant
    and isometric and the rest leaks into the halting states.  Each symbol
    takes one shared S with probability 1/2."""
    dim = n_non + n_halt
    shared = rng.permutation(n_non)[: rng.integers(0, n_non + 1)]
    unitaries = {}
    for sym in ("a", "b", KAPPA, DOLLAR):
        keep = shared if rng.random() < 0.5 else rng.permutation(n_non)[: rng.integers(0, n_non + 1)]
        rest = [i for i in range(dim) if i not in keep]
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[np.ix_(keep, keep)] = random_unitary(rng, len(keep))
        mat[np.ix_(rest, rest)] = random_unitary(rng, len(rest))
        unitaries[sym] = mat
    return freeze(Qfa(dimension=dim, alphabet=("a", "b"), unitaries=unitaries, start=0,
                      acc=frozenset([n_non]), rej=frozenset(range(n_non + 1, dim))))


def reference_corpus() -> list[Qfa]:
    rng = np.random.default_rng(1998)
    # the eigenvector reference presumes a contraction, which a machine that
    # fails its unitarity audit need not be
    machines = [qfa for qfa in map(qfa_fixture, qfa_fixture_names()) if validate(qfa, 1e-9).passed]
    machines += [synthesize(minimize(dfa_fixture(name)))[0] for name in ("even_head_odd_tail", "odd_head_odd_tail")]
    machines += [reversible_qfa(permutation_dfa(rng, n)) for n in (2, 3, 4)]
    machines += [block_unitary_qfa(rng) for _ in range(20)]
    return machines


def test_decompose_matches_the_eigenvector_references():
    """One word against the unimodular eigenvector span, two words against
    the intersection of those spans shrunk to joint invariance."""
    proper = {1: 0, 2: 0}
    for qfa in reference_corpus():
        x, y = qfa.alphabet[:2]
        non = np.zeros((qfa.dimension, qfa.dimension))
        non[qfa.non_halting, qfa.non_halting] = 1.0
        cases = [((w,), unimodular_eigenspace(qfa, w)) for w in (x, y, x + y, KAPPA + x)]
        cases += [((v, w), intersect_then_shrink(qfa, v, w)) for v, w in ((x, y), (x, x + x), (x + y, y + x))]
        for words, reference in cases:
            dec = decompose(qfa, *words)
            assert dec.isometric_dim == reference.shape[1], words
            assert dec.transient_dim == len(qfa.non_halting) - reference.shape[1], words
            iso = span_projector(reference)
            assert np.max(np.abs(span_projector(dec.isometric_basis) - iso)) < 1e-9, words
            assert np.max(np.abs(span_projector(dec.transient_basis) - (non - iso))) < 1e-9, words
            proper[len(words)] += 0 < dec.isometric_dim < len(qfa.non_halting)
    assert proper[1] and proper[2], proper


def written_to(qfa: Qfa, digits: int) -> Qfa:
    """The machine with every entry rounded as a hand-written file would give it."""
    return freeze(Qfa(dimension=qfa.dimension, alphabet=qfa.alphabet, start=qfa.start, acc=qfa.acc,
                      rej=qfa.rej, unitaries={sym: np.round(m.real, digits) + 1j * np.round(m.imag, digits)
                                              for sym, m in qfa.unitaries.items()}))


class TestRoundedMachines:
    """A machine that passes the 1e-9 unitarity audit keeps its isometric part."""

    def test_nine_digit_hadamard_block(self):
        mat = np.eye(4, dtype=np.complex128)
        mat[:2, :2] = [[0.707106781, 0.707106781], [0.707106781, -0.707106781]]
        qfa = freeze(Qfa(dimension=4, alphabet=("a", "b"), unitaries={s: mat for s in ("a", "b", KAPPA, DOLLAR)},
                         start=0, acc=frozenset([2]), rej=frozenset([3])))
        assert validate(qfa, 1e-9).passed
        for words in (("a",), ("aaaa",), ("a", "b"), ("ab", "ba")):
            assert decompose(qfa, *words).isometric_dim == 2, words

    def test_ten_digit_rotated_blocks(self):
        """Block-unitary machines seen in a random basis of the non-halting
        coordinates, so E1 is no coordinate subspace, then rounded: the same
        split as before rounding."""
        rng = np.random.default_rng(2000)
        proper = 0
        for _ in range(30):
            exact = block_unitary_qfa(rng)
            non = list(exact.non_halting)
            turn = np.eye(exact.dimension, dtype=np.complex128)
            turn[np.ix_(non, non)] = random_unitary(rng, len(non))
            exact = freeze(Qfa(dimension=exact.dimension, alphabet=exact.alphabet, start=exact.start,
                               acc=exact.acc, rej=exact.rej,
                               unitaries={s: turn @ m @ turn.conj().T for s, m in exact.unitaries.items()}))
            qfa = written_to(exact, 10)
            assert validate(qfa, 1e-9).passed
            for words in (("a",), ("ab",), ("a", "b"), ("aab", "babba")):
                want, got = decompose(exact, *words), decompose(qfa, *words)
                assert got.isometric_dim == want.isometric_dim, words
                diff = span_projector(got.isometric_basis) - span_projector(want.isometric_basis)
                assert np.max(np.abs(diff), initial=0.0) < 1e-6, words
                proper += 0 < got.isometric_dim < len(non)
        assert proper


class TestFindShrinkingWord:
    def test_transient_vector_dies_in_one_block(self, k2):
        dec = decompose(k2, "b")
        for j in range(dec.transient_dim):
            word = find_shrinking_word(k2, "b", "b", dec.transient_basis[:, j], 1e-6, 4)
            assert word == "b"

    def test_zero_vector_needs_nothing(self, k2):
        assert find_shrinking_word(k2, "b", "a", np.zeros(8), 1e-6, 4) == ""

    def test_engineered_transient_direction(self):
        # the letter routes one non-halting basis state straight into a halting one
        rng = np.random.default_rng(11)
        dim = 6
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[5, 0] = 1.0  # non-halting 0 -> rejecting 5
        mat[0, 5] = 1.0
        mat[1:5, 1:5] = random_unitary(rng, 4)
        qfa = freeze(
            Qfa(dimension=dim, alphabet=("a", "b"),
                unitaries={"a": mat, "b": np.eye(dim, dtype=np.complex128),
                           KAPPA: np.eye(dim, dtype=np.complex128),
                           DOLLAR: np.eye(dim, dtype=np.complex128)},
                start=0, acc=frozenset([4]), rej=frozenset([5]))
        )
        v = np.zeros(dim, dtype=np.complex128)
        v[0] = 1.0
        word = find_shrinking_word(qfa, "a", "b", v, 0.1, 32)
        assert word is not None
        assert np.linalg.norm(nonhalting_operator(qfa, word) @ v) < 0.1

    def test_budget_exhaustion_returns_none(self, k2):
        dec = decompose(k2, "b")
        v = dec.isometric_basis[:, 0]  # norm never decays
        assert find_shrinking_word(k2, "b", "a", v, 1e-6, 6) is None
