"""Compile a fragment-free DFA into a QFA with certified success probability.

The minimal automaton splits into the recurrent part (the closed strongly
connected components, on which every letter acts as a permutation) and the
transient remainder.  The compiled machine runs, in superposition,

  * one permutation block per closed component, started at that component's
    entry state, weighted 1/(2n+1) each, and
  * one reversible block simulating the transient part, weighted
    (n+1)/(2n+1); when the simulated run crosses into component i this block
    halts, accepting with weight a_i/(n+1) where a_i counts the component
    languages contained in component i's language (itself included).

Words whose run stays transient are decided exactly by the reversible block;
words ending in component i are decided by the chain-position arithmetic,
giving overall success probability (n+1)/(2n+1).

One function, `_embedding`, lays out both this machine and the certain
embedding of a permutation DFA (`reversible_qfa`, no halting exits).  One
check, `_collisions`, finds the letters that merge two states: it tests that
each component is permuted, that every letter is injective on moves staying
transient, and that `reversible_qfa`'s letters permute.  A transient part
failing it is rejected with a descriptive error instead of being
restructured; restructuring it into an equivalent reversible automaton is
out of scope here.

Only `_embedding` computes with numpy, and it imports numpy and `qfa`
itself, so `plan` (which `classify` calls) loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from qfalab.automata import (
    Dfa,
    bfs,
    closed_sccs,
    pair_steps,
    shortest_word_between,
)

if TYPE_CHECKING:
    from qfalab.qfa import Qfa


class SynthesisError(ValueError):
    """Input violates a structural requirement of the compiler."""


class PermutationViolation(SynthesisError):
    """A letter fails to permute a closed component (internal consistency)."""


class EntryStateAmbiguous(SynthesisError):
    """No single component state reproduces every entry into the component."""


class ChainViolation(SynthesisError):
    """Two component languages are incomparable under containment."""


class TransientNotReversible(SynthesisError):
    """A letter merges two transient states; the input needs restructuring."""


@dataclass(frozen=True)
class SynthesisPlan:
    """The partition, entry states, containment chain and mixture weights."""

    transient_states: tuple[str, ...]
    components: tuple[tuple[str, ...], ...]
    entry_states: tuple[str, ...]
    chain: tuple[int, ...]  # component indices, containment-increasing
    containment_counts: tuple[int, ...]  # a_i = #{j : L_j contained in L_i}
    halting_weights: tuple[Fraction, ...]  # accept weight on entering component i
    success_probability: Fraction

    @property
    def component_count(self) -> int:
        return len(self.components)


def plan(dfa: Dfa) -> SynthesisPlan:
    """Compute the synthesis plan for a minimal, fragment-free DFA.

    Each closed component must be a permutation automaton and have a
    certified entry state; component languages must form a containment
    chain, L_i within L_j iff no word separates their entry states
    (`Dfa._separable`).  Violations indicate a fragment the detectors should
    have caught and raise the corresponding error.
    """
    components = [tuple(sorted(c, key=dfa._index.__getitem__)) for c in closed_sccs(dfa)]
    in_component = {q: ci for ci, comp in enumerate(components) for q in comp}
    transient = tuple(q for q in dfa.states if q not in in_component)

    for ci, comp in enumerate(components):
        # a closed component maps into itself: it is permuted iff nothing collides
        if collisions := _collisions(dfa, comp, set(comp)):
            raise PermutationViolation(
                f"letter {collisions[0][0]!r} does not permute component {ci} {comp}; "
                "the fragment detectors should reject this input"
            )

    entry_states = tuple(
        _certified_entry_state(dfa, comp, ci) for ci, comp in enumerate(components)
    )

    n = len(components)
    entries, sep = [dfa._index[e] for e in entry_states], dfa._separable
    contains = [[(ei, ej) not in sep for ej in entries] for ei in entries]
    for i in range(n):
        for j in range(i + 1, n):
            if not contains[i][j] and not contains[j][i]:
                raise ChainViolation(
                    f"component languages {i} and {j} are incomparable; "
                    "the fragment detectors should reject this input"
                )
    counts = tuple(sum(1 for j in range(n) if contains[j][i]) for i in range(n))
    # ties (equal languages) break by component index for a deterministic chain
    chain = tuple(sorted(range(n), key=lambda i: (counts[i], i)))
    weights = tuple(Fraction(a, n + 1) for a in counts)
    return SynthesisPlan(
        transient_states=transient,
        components=tuple(components),
        entry_states=entry_states,
        chain=chain,
        containment_counts=counts,
        halting_weights=weights,
        success_probability=Fraction(n + 1, 2 * n + 1),
    )


def _certified_entry_state(dfa: Dfa, comp: tuple[str, ...], ci: int) -> str:
    """Entry state of a component: replaying any entry word from it matches
    the global run.  Derived from one entry word, then certified exactly by
    product reachability."""
    entry_word = shortest_word_between(dfa, dfa.start, comp)
    if entry_word is None:
        raise SynthesisError(
            f"component {ci} is unreachable from the start state; minimize the input first"
        )
    target = dfa.run(entry_word)
    # invert the permutation the entry word induces on the component
    images = {dfa.run(entry_word, start=q): q for q in comp}
    if target not in images:
        raise PermutationViolation(
            f"entry word {entry_word!r} does not permute component {ci}"
        )
    candidate = images[target]

    comp_set = {dfa._index[q] for q in comp}
    start = (dfa._index[dfa.start], dfa._index[candidate])
    for s, t in bfs([start], pair_steps(dfa, dfa)):
        if s in comp_set and s != t:
            raise EntryStateAmbiguous(
                f"component {ci}: entry through {dfa.states[s]!r} disagrees with candidate {candidate!r}"
            )
    return candidate


def synthesize(dfa: Dfa) -> tuple[Qfa, Fraction]:
    """Build the compiled machine and return it with its success probability.

    The embedding lists the transient block first, then the components.  A
    transient state's move into component i halts with accept weight a_i/(n+1);
    "^" puts weight p on the start state (halting at once with that split if
    it lies in a component) and 1/(2n+1) on each component's entry state.
    """
    syn_plan = plan(dfa)
    transient = syn_plan.transient_states
    if collisions := _collisions(dfa, transient, set(transient)):
        letter, s1, s2 = collisions[0]
        raise TransientNotReversible(
            f"letter {letter!r} merges transient states {s1!r} and {s2!r}; "
            "restructure the input into a letter-injective transient part"
        )

    components, p = syn_plan.components, syn_plan.success_probability
    order = transient + tuple(q for comp in components for q in comp)
    beta = {q: w for comp, w in zip(components, syn_plan.halting_weights) for q in comp}
    moves = ((q, a, dfa.transitions[(q, a)]) for q in transient for a in dfa.alphabet)
    exits = {(q, a): beta[t] for q, a, t in moves if t in beta}
    n_basis, s = len(order), order.index(dfa.start)
    if dfa.start in beta:
        b = beta[dfa.start]
        init = {
            n_basis + 2 * s: math.sqrt(float(p * b)),
            n_basis + 2 * s + 1: math.sqrt(float(p * (1 - b))),
        }
    else:
        init = {s: math.sqrt(float(p))}
    for entry in syn_plan.entry_states:
        init[order.index(entry)] = math.sqrt(float(Fraction(1, 2 * len(components) + 1)))
    return _embedding(dfa, order, exits, init), p


def reversible_qfa(dfa: Dfa) -> Qfa:
    """Embed a permutation DFA as a QFA deciding every word with certainty.

    Every letter must permute the full state set; the embedding runs the
    permutation on basis states and routes each state to an accept or reject
    state at the right endmarker, so p_accept is exactly 0 or 1.
    """
    if collisions := _collisions(dfa, dfa.states, dfa._index):
        raise SynthesisError(f"letter {collisions[0][0]!r} does not permute the state set")
    return _embedding(dfa, dfa.states, {}, {dfa._index[dfa.start]: 1.0})


def _collisions(dfa: Dfa, sources, within) -> list[tuple[str, str, str]]:
    """Each (letter, q1, q2) where the letter sends the states q1 and q2 of
    `sources` onto one state of `within`: letters in alphabet order, q2 the
    later source.  Moves that leave `within` never collide."""
    collisions = []
    for a in dfa.alphabet:
        seen: dict[str, str] = {}
        for q in sources:
            target = dfa.transitions[(q, a)]
            if target in within and seen.setdefault(target, q) != q:
                collisions.append((a, seen[target], q))
    return collisions


def _embedding(
    dfa: Dfa,
    order: Sequence[str],
    exits: Mapping[tuple[str, str], Fraction],
    init: Mapping[int, float],
) -> Qfa:
    """The 3·|order|-dimensional QFA that runs `dfa` on basis states.

    Basis state i stands for order[i] and owns the accept/reject pair
    n + 2i, n + 2i + 1 (n = len(order)).  A letter moves basis states as the
    DFA does, except that a move (q, a) listed in `exits` with weight β
    halts, splitting into amplitude √β on q's accept state and √(1-β) on its
    reject state.  "^" maps the start state to `init` (amplitudes by basis
    index); "$" sends each state to its own accept or reject state.
    """
    import numpy as np

    from qfalab.qfa import DOLLAR, KAPPA, Qfa, complete_unitary, freeze

    n, dim = len(order), 3 * len(order)
    index = {q: i for i, q in enumerate(order)}

    def column(amplitudes: Mapping[int, float]) -> np.ndarray:
        col = np.zeros(dim, dtype=np.complex128)
        col[list(amplitudes)] = list(amplitudes.values())
        return col

    def move(i: int, q: str, a: str) -> np.ndarray:
        if (q, a) not in exits:
            return column({index[dfa.transitions[(q, a)]]: 1.0})
        beta = exits[(q, a)]
        return column({n + 2 * i: math.sqrt(float(beta)), n + 2 * i + 1: math.sqrt(float(1 - beta))})

    unitaries = {
        a: complete_unitary({i: move(i, q, a) for i, q in enumerate(order)}, dim) for a in dfa.alphabet
    }
    start = index[dfa.start]
    unitaries[KAPPA] = complete_unitary({start: column(init)}, dim)
    routes = {i: column({n + 2 * i + (q not in dfa.accepting): 1.0}) for i, q in enumerate(order)}
    unitaries[DOLLAR] = complete_unitary(routes, dim)
    acc, rej = frozenset(range(n, dim, 2)), frozenset(range(n + 1, dim, 2))
    return freeze(
        Qfa(dimension=dim, alphabet=dfa.alphabet, unitaries=unitaries, start=start, acc=acc, rej=rej)
    )
