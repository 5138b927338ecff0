"""The shared BFS walk returns shortlex-least words.

Witness words, and so every replayable verdict, depend on this tie-break:
each search must return the first word in `all_words` order that meets its
condition, and None when no word up to the exhaustive bound does.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import make_dfa
from qfalab.automata import Dfa, separating_word, shortest_word_between
from qfalab.qfa import all_words

SEEDS = range(20)
MAX_WORDS = 60_000


def images_by_word(dfa: Dfa, max_len: int) -> dict[str, tuple[str, ...]]:
    """Word -> the states it leads to from each state, in `all_words` order,
    by replaying the transition table one letter at a time."""
    images: dict[str, tuple[str, ...]] = {"": dfa.states}
    for w in all_words(dfa.alphabet, max_len):
        if w:
            images[w] = tuple(dfa.transitions[(q, w[-1])] for q in images[w[:-1]])
    return images


def first_word(images, condition):
    return next((w for w, img in images.items() if condition(w, img)), None)


def product_bound(alphabet: tuple[str, ...]) -> int:
    """Largest product size m whose shortlex scan up to length m stays
    under MAX_WORDS words."""
    m = 0
    while len(alphabet) ** (m + 2) <= MAX_WORDS:
        m += 1
    return m


def sparse_dfa(rng: np.random.Generator, n: int, alphabet: tuple[str, ...]) -> Dfa:
    """Random DFA with about one state in four accepting, so that shortest
    words are often longer than one letter and their order matters."""
    targets = [int(t) for t in rng.integers(0, n, size=n * len(alphabet))]
    return make_dfa(n, targets, [bool(x) for x in rng.random(n) < 0.25], alphabet)


def two_dfas(seed: int) -> tuple[Dfa, Dfa]:
    """A random pair whose product is small enough to scan exhaustively."""
    rng = np.random.default_rng(7000 + seed)
    alphabet = ("a", "b") if seed % 3 else ("a", "b", "c")
    bound = product_bound(alphabet)
    n1 = int(rng.integers(1, 5))
    n2 = int(rng.integers(1, bound // n1 + 1))
    return sparse_dfa(rng, n1, alphabet), sparse_dfa(rng, n2, alphabet)


def one_dfa(seed: int) -> Dfa:
    """A random DFA whose square product is small enough to scan exhaustively."""
    rng = np.random.default_rng(7500 + seed)
    alphabet = ("a", "b") if seed % 3 else ("a", "b", "c")
    return sparse_dfa(rng, int(rng.integers(1, math.isqrt(product_bound(alphabet)) + 1)), alphabet)


@pytest.mark.parametrize("seed", SEEDS)
def test_separating_word_is_the_first_separating_word(seed):
    d1, d2 = two_dfas(seed)
    max_len = len(d1.states) * len(d2.states)
    img1, img2 = images_by_word(d1, max_len), images_by_word(d2, max_len)
    for i1, s1 in enumerate(d1.states):
        for i2, s2 in enumerate(d2.states):
            expected = first_word(
                img1, lambda w, img: img[i1] in d1.accepting and img2[w][i2] not in d2.accepting
            )
            assert separating_word(d1, s1, d2, s2) == expected, (seed, s1, s2)


@pytest.mark.parametrize("seed", SEEDS)
def test_separating_suffix_is_the_first_separating_word(seed):
    dfa = one_dfa(seed)
    n = len(dfa.states)
    images = images_by_word(dfa, n * n)
    for s in range(n):
        for t in range(n):
            expected = first_word(
                images, lambda w, img: img[s] in dfa.accepting and img[t] not in dfa.accepting
            )
            assert separating_word(dfa, dfa.states[s], dfa, dfa.states[t]) == expected, (seed, s, t)


@pytest.mark.parametrize("seed", SEEDS)
def test_shortest_word_between_is_the_first_word_into_the_targets(seed):
    dfa = two_dfas(seed)[1]
    n = len(dfa.states)
    # a shortest path visits each state once, so length n - 1 bounds it
    images = images_by_word(dfa, n)
    rng = np.random.default_rng(seed)
    for source_index, source in enumerate(dfa.states):
        for _ in range(3):
            targets = {q for q in dfa.states if rng.random() < 0.3}
            expected = first_word(images, lambda w, img: img[source_index] in targets)
            assert shortest_word_between(dfa, source, targets) == expected, (seed, source, targets)
