"""Isometric/transient splits and the shrinking-word search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import find_shrinking_word, random_qfa, random_unitary
from qfalab.fixtures import qfa_fixture
from qfalab.qfa import DOLLAR, KAPPA, Qfa, freeze, nonhalting_operator
from qfalab.spectral import decompose_pair, decompose_word, norm_decay_table


@pytest.fixture(scope="module")
def k2():
    return qfa_fixture("even_head_odd_tail_qfa")


def span_projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


class TestDecomposeWord:
    def test_permutation_letter_is_fully_isometric(self, k2):
        dec = decompose_word(k2, "a")
        assert dec.isometric_dim == 4
        assert dec.transient_dim == 0

    def test_branching_letter_keeps_the_tail_pair(self, k2):
        dec = decompose_word(k2, "b")
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
        dec = decompose_word(qfa, "a")
        assert dec.transient_dim == 0

    def test_rejects_empty_word(self, k2):
        with pytest.raises(ValueError):
            decompose_word(k2, "")

    @given(st.integers(0, 2**31 - 1), st.text(alphabet="ab", min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_dimensions_split_and_invariance(self, seed, word):
        qfa = random_qfa(np.random.default_rng(seed))
        dec = decompose_word(qfa, word)
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
        dec = decompose_word(qfa, "a")
        for j in range(dec.transient_dim):
            table = norm_decay_table(qfa, "a", dec.transient_basis[:, j], 20)
            assert all(table[i + 1] <= table[i] + 1e-12 for i in range(len(table) - 1))


class TestDecomposePair:
    def test_power_pair_adds_nothing(self, k2):
        single = decompose_word(k2, "a")
        pair = decompose_pair(k2, "a", "aa")
        assert pair.isometric_dim == single.isometric_dim
        diff = span_projector(pair.isometric_basis) - span_projector(single.isometric_basis)
        assert np.linalg.norm(diff) < 1e-9

    def test_mixed_pair_preserves_norms_both_ways(self, k2):
        dec = decompose_pair(k2, "b", "a")
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
        dec = decompose_pair(qfa, "a", "b")
        assert dec.isometric_dim == 3

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_contained_in_both_single_word_parts(self, seed):
        qfa = random_qfa(np.random.default_rng(seed))
        pair = decompose_pair(qfa, "a", "b")
        for word in ("a", "b"):
            single = decompose_word(qfa, word)
            if pair.isometric_dim == 0:
                continue
            residual = pair.isometric_basis - span_projector(single.isometric_basis) @ pair.isometric_basis
            assert np.linalg.norm(residual) < 1e-7


class TestFindShrinkingWord:
    def test_transient_vector_dies_in_one_block(self, k2):
        dec = decompose_word(k2, "b")
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
        dec = decompose_word(k2, "b")
        v = dec.isometric_basis[:, 0]  # norm never decays
        assert find_shrinking_word(k2, "b", "a", v, 1e-6, 6) is None
