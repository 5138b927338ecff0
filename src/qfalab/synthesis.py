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

The transient block requires every letter to act injectively on transitions
that stay transient.  Inputs failing that are rejected with a descriptive
error instead of being restructured; restructuring the transient part into
an equivalent reversible automaton is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qfalab.automata import (
    Dfa,
    bfs,
    closed_sccs,
    pair_steps,
    shortest_word_between,
)
from qfalab.qfa import DOLLAR, KAPPA, Qfa, complete_unitary, freeze


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
    components = [tuple(sorted(c, key=dfa.states.index)) for c in closed_sccs(dfa)]
    in_component = {q: ci for ci, comp in enumerate(components) for q in comp}
    transient = tuple(q for q in dfa.states if q not in in_component)

    for ci, comp in enumerate(components):
        for a in dfa.alphabet:
            images = {dfa.transitions[(q, a)] for q in comp}
            if images != set(comp):
                raise PermutationViolation(
                    f"letter {a!r} does not permute component {ci} {comp}; "
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
    for (s, t), _ in bfs([start], pair_steps(dfa, dfa)):
        if s in comp_set and s != t:
            raise EntryStateAmbiguous(
                f"component {ci}: entry through {dfa.states[s]!r} disagrees with candidate {candidate!r}"
            )
    return candidate


@dataclass(frozen=True)
class ReversibilityReport:
    passed: bool
    collisions: tuple[tuple[str, str, str], ...]  # (letter, state1, state2) merged


def check_reversible_a(dfa: Dfa, syn_plan: SynthesisPlan) -> ReversibilityReport:
    """Check that every letter is injective on transitions staying transient.

    Exits into components count as halting, so only transient-to-transient
    moves can collide.
    """
    transient = set(syn_plan.transient_states)
    collisions = []
    for a in dfa.alphabet:
        seen: dict[str, str] = {}
        for q in syn_plan.transient_states:
            target = dfa.transitions[(q, a)]
            if target not in transient:
                continue
            if target in seen:
                collisions.append((a, seen[target], q))
            else:
                seen[target] = q
    return ReversibilityReport(passed=not collisions, collisions=tuple(collisions))


def synthesize(dfa: Dfa) -> tuple[Qfa, Fraction]:
    """Build the compiled machine and return it with its success probability.

    Layout: one basis state per DFA state (transient block first, then the
    components), plus a dedicated accept/reject pair per basis state used by
    the right endmarker and by the halting splits of the transient block.
    """
    syn_plan = plan(dfa)
    reversibility = check_reversible_a(dfa, syn_plan)
    if not reversibility.passed:
        letter, s1, s2 = reversibility.collisions[0]
        raise TransientNotReversible(
            f"letter {letter!r} merges transient states {s1!r} and {s2!r}; "
            "restructure the input into a letter-injective transient part"
        )

    n = syn_plan.component_count
    order = list(syn_plan.transient_states)
    for comp in syn_plan.components:
        order.extend(comp)
    index = {q: i for i, q in enumerate(order)}
    n_basis = len(order)
    dim = 3 * n_basis

    def acc_of(i: int) -> int:
        return n_basis + 2 * i

    def rej_of(i: int) -> int:
        return n_basis + 2 * i + 1

    in_component = {
        q: ci for ci, comp in enumerate(syn_plan.components) for q in comp
    }
    transient = set(syn_plan.transient_states)
    p = syn_plan.success_probability
    branch_weight = Fraction(1, 2 * n + 1)

    unitaries: dict[str, np.ndarray] = {}

    # input letters: permutation blocks plus the reversible transient block
    for a in dfa.alphabet:
        columns: dict[int, np.ndarray] = {}
        for q in order:
            src = index[q]
            target = dfa.transitions[(q, a)]
            col = np.zeros(dim, dtype=np.complex128)
            if q in transient and target not in transient:
                beta = syn_plan.halting_weights[in_component[target]]
                col[acc_of(src)] = math.sqrt(float(beta))
                col[rej_of(src)] = math.sqrt(float(1 - beta))
            else:
                col[index[target]] = 1.0
            columns[src] = col
        unitaries[a] = complete_unitary(columns, dim)

    # left endmarker: distribute the start amplitude over the branches
    start_idx = index[dfa.start]
    init = np.zeros(dim, dtype=np.complex128)
    if dfa.start in transient:
        init[start_idx] += math.sqrt(float(p))
    else:
        beta = syn_plan.halting_weights[in_component[dfa.start]]
        init[acc_of(start_idx)] += math.sqrt(float(p * beta))
        init[rej_of(start_idx)] += math.sqrt(float(p * (1 - beta)))
    for ci, entry in enumerate(syn_plan.entry_states):
        init[index[entry]] += math.sqrt(float(branch_weight))
    unitaries[KAPPA] = complete_unitary({start_idx: init}, dim)

    # right endmarker: route every basis state to its own halting pair
    columns = {}
    for q in order:
        src = index[q]
        col = np.zeros(dim, dtype=np.complex128)
        col[acc_of(src) if q in dfa.accepting else rej_of(src)] = 1.0
        columns[src] = col
    unitaries[DOLLAR] = complete_unitary(columns, dim)

    qfa = freeze(
        Qfa(
            dimension=dim,
            alphabet=dfa.alphabet,
            unitaries=unitaries,
            start=start_idx,
            acc=frozenset(acc_of(i) for i in range(n_basis)),
            rej=frozenset(rej_of(i) for i in range(n_basis)),
        )
    )
    return qfa, p


def reversible_qfa(dfa: Dfa) -> Qfa:
    """Embed a permutation DFA as a QFA deciding every word with certainty.

    Every letter must permute the full state set; the embedding runs the
    permutation on basis states and routes each state to an accept or reject
    state at the right endmarker, so p_accept is exactly 0 or 1.
    """
    for a in dfa.alphabet:
        images = {dfa.transitions[(q, a)] for q in dfa.states}
        if len(images) != len(dfa.states):
            raise SynthesisError(f"letter {a!r} does not permute the state set")
    n_basis = len(dfa.states)
    dim = 3 * n_basis
    index = {q: i for i, q in enumerate(dfa.states)}
    unitaries: dict[str, np.ndarray] = {}
    for a in dfa.alphabet:
        columns = {}
        for q in dfa.states:
            col = np.zeros(dim, dtype=np.complex128)
            col[index[dfa.transitions[(q, a)]]] = 1.0
            columns[index[q]] = col
        unitaries[a] = complete_unitary(columns, dim)
    unitaries[KAPPA] = np.eye(dim, dtype=np.complex128)
    columns = {}
    for q in dfa.states:
        col = np.zeros(dim, dtype=np.complex128)
        offset = 0 if q in dfa.accepting else 1
        col[n_basis + 2 * index[q] + offset] = 1.0
        columns[index[q]] = col
    unitaries[DOLLAR] = complete_unitary(columns, dim)
    return freeze(
        Qfa(
            dimension=dim,
            alphabet=dfa.alphabet,
            unitaries=unitaries,
            start=index[dfa.start],
            acc=frozenset(n_basis + 2 * i for i in range(n_basis)),
            rej=frozenset(n_basis + 2 * i + 1 for i in range(n_basis)),
        )
    )
