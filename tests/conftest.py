"""Shared strategies and independent brute-force oracles for the test suite.

The oracles here recompute properties from first principles (word
enumeration, definitional reach/return checks, Gram-matrix arithmetic) so
the library implementations are checked against a second, independent path.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from itertools import product

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from qfalab.automata import Dfa
from qfalab.combinators import MixtureSpec, mix
from qfalab.qfa import DOLLAR, KAPPA, Qfa, freeze, nonhalting_operator
from qfalab.synthesis import reversible_qfa

settings.register_profile(
    "qfalab",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("qfalab")


# ---------------------------------------------------------------------------
# random automata

def make_dfa(n_states: int, targets: list[int], accepting_mask: list[bool],
             alphabet: tuple[str, ...] = ("a", "b")) -> Dfa:
    """Deterministic DFA from flat data: targets has n_states * len(alphabet) entries."""
    states = tuple(f"q{i}" for i in range(n_states))
    transitions = {}
    k = 0
    for i in range(n_states):
        for sym in alphabet:
            transitions[(states[i], sym)] = states[targets[k] % n_states]
            k += 1
    accepting = frozenset(s for s, m in zip(states, accepting_mask) if m)
    return Dfa(states, alphabet, states[0], accepting, transitions)


@st.composite
def dfas(draw, min_states: int = 1, max_states: int = 6, alphabet: tuple[str, ...] = ("a", "b")):
    n = draw(st.integers(min_states, max_states))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=n * len(alphabet), max_size=n * len(alphabet)))
    accepting = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return make_dfa(n, targets, accepting, alphabet)


@st.composite
def permutation_component_dfas(draw):
    """A transient prefix into 2-4 blocks of 1-3 states on which each of 2-3
    letters is a random permutation; accepting states are random.

    Transient state i moves to i + 1 on the first letter; its other letters,
    and every letter of the last transient state, lead to later states, the
    first of them (in a random order) into each block in turn, so every
    transient state and some state of each block are reachable.  The
    accepting states split the reachable ones, neither none nor all of them,
    so the minimal DFA has two states at least.
    """
    alphabet = ("a", "b", "c")[: draw(st.integers(2, 3))]
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n_transient = draw(st.integers(len(sizes) - 1, 3))
    n = n_transient + sum(sizes)
    states = tuple(f"q{i}" for i in range(n))
    transitions = {(states[i], alphabet[0]): states[i + 1] for i in range(n_transient - 1)}
    free = [(states[i], a) for i in range(n_transient) for a in alphabet if (states[i], a) not in transitions]
    base, blocks = n_transient, []
    for size in sizes:
        blocks.append(states[base : base + size])
        base += size
    for k, (q, a) in enumerate(draw(st.permutations(free))):
        later = blocks[k] if k < len(blocks) else states[states.index(q) + 1 :]
        transitions[q, a] = draw(st.sampled_from(later))
    for block in blocks:
        for a in alphabet:
            transitions.update(zip(((q, a) for q in block), draw(st.permutations(block))))
    unlabelled = Dfa(states, alphabet, states[0], frozenset(), transitions)
    reachable = sorted(reachable_state_names(unlabelled), key=states.index)
    accepting = draw(st.sets(st.sampled_from(reachable), min_size=1, max_size=len(reachable) - 1))
    accepting |= {q for q in states if q not in reachable and draw(st.booleans())}
    return Dfa(states, alphabet, states[0], frozenset(accepting), transitions)


def random_dfa(rng: np.random.Generator, n_states: int, alphabet=("a", "b")) -> Dfa:
    targets = [int(t) for t in rng.integers(0, n_states, size=n_states * len(alphabet))]
    accepting = [bool(b) for b in rng.integers(0, 2, size=n_states)]
    return make_dfa(n_states, targets, accepting, alphabet)


def seeded_dfa(rng: random.Random, min_states: int, max_states: int) -> Dfa:
    """A DFA of min_states-max_states states over 1-3 letters and a random
    start; one in four is a permutation DFA, and the share of accepting
    states is drawn from 0, 0.2, 0.5 and 1."""
    n, alphabet = rng.randint(min_states, max_states), ("a", "b", "c")[: rng.randint(1, 3)]
    states = tuple(f"q{i}" for i in range(n))
    permutation = rng.random() < 0.25
    transitions = {}
    for a in alphabet:
        image = rng.sample(states, n) if permutation else [rng.choice(states) for _ in states]
        transitions.update(zip(((q, a) for q in states), image))
    share = rng.choice((0.0, 0.2, 0.5, 1.0))
    accepting = frozenset(q for q in states if rng.random() < share)
    return Dfa(states, alphabet, rng.choice(states), accepting, transitions)


def chain(n: int) -> Dfa:
    """`a` steps along a path of n states to its accepting end, which `a`
    fixes, and `b` fixes every state: n minimal states, told apart only by
    their distance to the end, so a refinement needs n - 1 splits."""
    states = tuple(f"c{i}" for i in range(n))
    transitions = {}
    for i, q in enumerate(states):
        transitions[q, "a"] = states[min(i + 1, n - 1)]
        transitions[q, "b"] = q
    return Dfa(states, ("a", "b"), states[0], frozenset(states[-1:]), transitions)


def cycle_with_reset(n: int) -> Dfa:
    """`a` steps round an n-cycle, `r` resets to its accepting start: n minimal
    states, and a monoid of the n rotations and the n constant maps."""
    states = tuple(f"c{i}" for i in range(n))
    transitions = {}
    for i, q in enumerate(states):
        transitions[q, "a"] = states[(i + 1) % n]
        transitions[q, "r"] = states[0]
    return Dfa(states, ("a", "r"), states[0], frozenset(states[:1]), transitions)


# ---------------------------------------------------------------------------
# brute-force oracles

def words_up_to(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in product(alphabet, repeat=n):
            yield "".join(tup)


def reachable_state_names(dfa: Dfa) -> set[str]:
    seen = {dfa.start}
    queue = deque([dfa.start])
    while queue:
        q = queue.popleft()
        for a in dfa.alphabet:
            t = dfa.transitions[(q, a)]
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def nerode_classes(dfa: Dfa, max_len: int) -> set[frozenset[str]]:
    """Partition of the reachable states by acceptance over all words up to max_len."""
    reachable = sorted(reachable_state_names(dfa), key=dfa.states.index)
    signatures: dict[tuple, list[str]] = {}
    for q in reachable:
        sig = tuple(dfa.run(w, start=q) in dfa.accepting for w in words_up_to(dfa.alphabet, max_len))
        signatures.setdefault(sig, []).append(q)
    return {frozenset(group) for group in signatures.values()}


def monoid_by_word_replay(dfa: Dfa) -> dict[tuple[int, ...], str]:
    """All distinct word-induced mappings, each word replayed from scratch.

    BFS over words, pruned on previously seen mappings; returns mapping ->
    first word found.
    """
    def mapping_of(word: str) -> tuple[int, ...]:
        return tuple(dfa.states.index(dfa.run(word, start=q)) for q in dfa.states)

    seen: dict[tuple[int, ...], str] = {}
    queue = deque([""])
    seen[mapping_of("")] = ""
    while queue:
        w = queue.popleft()
        for ch in dfa.alphabet:
            candidate = w + ch
            m = mapping_of(candidate)
            if m not in seen:
                seen[m] = candidate
                queue.append(candidate)
    return seen


def definitionally_closed_states(dfa: Dfa) -> set[str]:
    """States q such that every state reachable from q can reach q back."""
    reach: dict[str, set[str]] = {}
    for q in dfa.states:
        seen = {q}
        queue = deque([q])
        while queue:
            s = queue.popleft()
            for a in dfa.alphabet:
                t = dfa.transitions[(s, a)]
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        reach[q] = seen
    return {q for q in dfa.states if all(q in reach[s] for s in reach[q])}


def recurrence_by_word_quantification(n: int, f, g, source: int, max_blocks: int) -> bool:
    """Direct check: for every block string t (<= max_blocks), the state
    t(source) admits a return string t1 (<= max_blocks) with t1(t(source)) = source."""
    def apply_blocks(blocks, state):
        for m in blocks:
            state = m[state]
        return state

    all_block_strings = []
    for k in range(max_blocks + 1):
        all_block_strings.extend(product((f, g), repeat=k))
    targets = {apply_blocks(blocks, source) for blocks in all_block_strings}
    for s in targets:
        if not any(apply_blocks(blocks, s) == source for blocks in all_block_strings):
            return False
    return True


# ---------------------------------------------------------------------------
# random machines

def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_qfa(rng: np.random.Generator, dim: int = 6, alphabet=("a", "b"),
               n_acc: int = 1, n_rej: int = 1):
    unitaries = {sym: random_unitary(rng, dim) for sym in (*alphabet, KAPPA, DOLLAR)}
    indices = list(rng.permutation(dim))
    acc = frozenset(int(i) for i in indices[:n_acc])
    rej = frozenset(int(i) for i in indices[n_acc:n_acc + n_rej])
    start = int(indices[-1])
    return freeze(Qfa(dimension=dim, alphabet=tuple(alphabet), unitaries=unitaries,
                      start=start, acc=acc, rej=rej))


def overflowing(qfa: Qfa) -> Qfa:
    """`qfa` with its "a" matrix scaled by 1e150: a few a's overflow its probabilities."""
    return dataclasses.replace(qfa, unitaries={**qfa.unitaries, "a": qfa.unitaries["a"] * 1e150})


def three_quarter_machine(even_letter: str):
    """Recognizes 'even number of even_letter' with probability exactly 3/4."""
    dfa = (
        make_dfa(2, [1, 0, 0, 1], [True, False])
        if even_letter == "a"
        else make_dfa(2, [0, 1, 1, 0], [True, False])
    )
    return mix(
        MixtureSpec(parts=((reversible_qfa(dfa), 0.5),), accept_bias=0.25, reject_bias=0.25)
    )


# ---------------------------------------------------------------------------
# shrinking-word search

BEAM_WIDTH = 8  # lowest-norm continuations find_shrinking_word keeps per step


def find_shrinking_word(
    qfa: Qfa,
    x: str,
    y: str,
    v: np.ndarray,
    eps: float,
    max_len: int,
) -> str | None:
    """Search for t in {x, y}* with ||T_t v|| < eps, built block by block.

    A beam of the `BEAM_WIDTH` lowest-norm continuations is kept; ties break
    lexicographically on the word, so the result is deterministic.  `None`
    reports budget exhaustion (words longer than `max_len` letters), never
    nonexistence.
    """
    v = np.asarray(v, dtype=np.complex128)
    if float(np.linalg.norm(v)) < eps:
        return ""
    tx = nonhalting_operator(qfa, x)
    ty = nonhalting_operator(qfa, y)
    beam: list[tuple[str, np.ndarray]] = [("", v)]
    blocks = sorted([(x, tx), (y, ty)], key=lambda item: item[0])
    while True:
        candidates = []
        for word, vec in beam:
            for block, op in blocks:
                if len(word) + len(block) > max_len:
                    continue
                nxt = op @ vec
                candidates.append((word + block, nxt))
        if not candidates:
            return None
        for word, vec in candidates:
            if float(np.linalg.norm(vec)) < eps:
                return word
        candidates.sort(key=lambda item: (float(np.linalg.norm(item[1])), item[0]))
        beam = candidates[:BEAM_WIDTH]


# ---------------------------------------------------------------------------
# reference isometric/transient splits

EIGENVALUE_CUTOFF = 1e-8  # |lam| at or above 1 - this counts as unimodular


def _span(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, by SVD."""
    if vectors.shape[1] == 0:
        return vectors.astype(np.complex128)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, : int(np.sum(s > 1e-10 * max(1.0, float(s[0]))))]


def _complement(basis: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Orthocomplement of span(basis) inside span(within)."""
    return _span(within - basis @ (basis.conj().T @ within))


def unimodular_eigenspace(qfa: Qfa, x: str) -> np.ndarray:
    """Reference isometric basis for one word: the span of the eigenvectors of
    T_x, restricted to the non-halting coordinates, whose eigenvalues have
    modulus at least 1 - EIGENVALUE_CUTOFF."""
    non = list(qfa.non_halting)
    eigvals, eigvecs = np.linalg.eig(nonhalting_operator(qfa, x)[np.ix_(non, non)])
    embed = np.eye(qfa.dimension, dtype=np.complex128)[:, non]
    return _span(embed @ eigvecs[:, np.abs(eigvals) >= 1.0 - EIGENVALUE_CUTOFF])


def intersect_then_shrink(qfa: Qfa, x: str, y: str) -> np.ndarray:
    """Reference isometric basis for two words: the intersection of the two
    eigenvector spans, shrunk to {v in E : T_x v in E and T_y v in E} until
    the dimension stops falling."""
    embed = np.eye(qfa.dimension, dtype=np.complex128)[:, list(qfa.non_halting)]
    transients = [_complement(unimodular_eigenspace(qfa, w), embed) for w in (x, y)]
    basis = _complement(_span(np.hstack(transients)), embed)
    ops = [nonhalting_operator(qfa, w) for w in (x, y)]
    while basis.shape[1]:
        proj_out = np.eye(qfa.dimension) - basis @ basis.conj().T
        _, s, vh = np.linalg.svd(np.vstack([proj_out @ op @ basis for op in ops]), full_matrices=True)
        keep = np.ones(basis.shape[1], dtype=bool)
        keep[: len(s)] = s <= 1e-10
        shrunk = _span(basis @ vh.conj().T[:, keep])
        if shrunk.shape[1] == basis.shape[1]:
            break
        basis = shrunk
    return basis
