"""The monoid walk, the pair closure, the pump relation and the detectors
against the scans they replace.

`bfs` yields each node when it is discovered and records in its links the
node that discovered it; `spell` rebuilds a node's word from them, taking
each letter as the first symbol of the parent's successors that leads to
the child.  `transition_monoid` is a `bfs` walk over byte-string mappings
that keeps its links and successor function, so `Monoid.word(i)` spells
element i's word only on request, and a capped walk allocates no object
the garbage collector tracks, so it sets off no collection.
`automata.pair_reach` labels each pair of states with the OR of a
goal over every pair it reaches in the square product; it must equal a
`bfs(pair_steps)` walk from each pair.  An element f pumps q into t when
f(q) = t = f(t).  `Dfa._pump_targets` says, per state, which others some
word pumps it into, and `Dfa._separable` which ordered pairs some suffix
separates; both are labellings of that one closure, and the second must
equal the backward closure over reversed product edges kept here.  Each
detector tests its condition on those relations first and reads the
pumping elements of the pairs left by one early-exit element scan; a fork
search that the relations rule out reads no element at all.  The
dequeue-time walk over tuple mappings (it carries each node's word along),
a brute-force pump relation, the shallow detectors' element scans and the
fork's scan of all element pairs are kept here as references: walks,
words, relations and witnesses must equal them, on capped monoids and on
the tuple mappings of DFAs above 256 states too.
"""

import gc
from collections import deque
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cycle_with_reset, dfas, permutation_component_dfas
from qfalab import fragments
from qfalab.automata import (
    Dfa,
    bfs,
    minimize,
    pair_reach,
    pair_steps,
    recurrent_states,
    separating_word,
    shortest_word_between,
    spell,
    strongly_connected,
    transition_monoid,
)
from qfalab.fixtures import dfa_fixture
from qfalab.fragments import (
    CONSTRUCTIBLE,
    FORK,
    INCONCLUSIVE,
    ORDER_VIOLATION,
    OUTSIDE_CHARACTERIZED_CLASS,
    TWO_CYCLES,
    FragmentWitness,
    classify,
    detect_fork,
    detect_order_violation,
    detect_two_cycles,
)

WALK_LIMIT = 3000  # elements of the "uncapped" walk; larger monoids count as capped here


def reference_bfs(sources, successors):
    """Breadth-first walk yielding each node when it is dequeued."""
    queue = deque((node, "") for node in dict.fromkeys(sources))
    seen = {node for node, _ in queue}
    while queue:
        node, word = queue.popleft()
        yield node, word
        for ch, nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + ch))


def reference_separability_table(dfa):
    """Ordered pairs (s, t) with some z sending s to accepting and t to
    rejecting, by a backward `bfs` over the reversed edges of the product."""
    n = len(dfa.states)
    table = dfa._table
    acc = dfa._accepting_indices
    reverse = {}
    for s in range(n):
        for t in range(n):
            for a, ch in enumerate(dfa.alphabet):
                reverse.setdefault((table[s][a], table[t][a]), []).append((ch, (s, t)))
    sources = [(s, t) for s in acc for t in range(n) if t not in acc]
    return set(bfs(sources, lambda pair: reverse.get(pair, ())))


def reference_order_violation(dfa, monoid):
    """The first (element index, q1) whose pump closes back into q1's SCC."""
    n = len(dfa.states)
    scc = strongly_connected(dfa._table)
    for i, m in enumerate(monoid.mappings[1:], 1):
        for q1 in range(n):
            q2 = m[q1]
            if q2 == q1 or m[q2] != q2:
                continue
            if scc[q1] == scc[q2]:
                y = shortest_word_between(dfa, dfa.states[q2], [dfa.states[q1]])
                return FragmentWitness(
                    kind=ORDER_VIOLATION,
                    states={"q1": dfa.states[q1], "q2": dfa.states[q2]},
                    words={"x": monoid.word(i), "y": y},
                )
    return None


def reference_two_cycles(dfa, monoid):
    """The first (element index, q1) whose pump chains into a second pump."""
    n = len(dfa.states)
    second = [[] for _ in range(n)]
    for gi, g in enumerate(monoid.mappings[1:], start=1):
        for q in range(n):
            q3 = g[q]
            if q3 != q and g[q3] == q3 and all(t != q3 for _, t in second[q]):
                second[q].append((gi, q3))
    for fi, f in enumerate(monoid.mappings[1:], 1):
        for q1 in range(n):
            q2 = f[q1]
            if q2 == q1 or f[q2] != q2:
                continue
            hit = next(((gi, q3) for gi, q3 in second[q2] if q3 != q1), None)
            if hit is None:
                continue
            gi, q3 = hit
            return FragmentWitness(
                kind=TWO_CYCLES,
                states={"q1": dfa.states[q1], "q2": dfa.states[q2], "q3": dfa.states[q3]},
                words={"x": monoid.word(fi), "y": monoid.word(gi)},
            )
    return None


@st.composite
def dfas_and_caps(draw):
    """Random DFAs with 2-9 states over 1-3 letters, with a cap that is often
    below the monoid's size."""
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    cap = draw(st.one_of(st.integers(len(alphabet) + 1, 12), st.integers(len(alphabet) + 1, 400)))
    return draw(dfas(min_states=2, max_states=9, alphabet=alphabet)), cap


@settings(max_examples=300)
@given(dfas_and_caps())
def test_detectors_equal_the_element_scans(case):
    dfa, cap = case
    for monoid in (transition_monoid(dfa, cap), transition_monoid(dfa, WALK_LIMIT)):
        assert detect_order_violation(dfa, monoid) == reference_order_violation(dfa, monoid)
        assert detect_two_cycles(dfa, monoid) == reference_two_cycles(dfa, monoid)


def brute_targets(monoid):
    """Per state q, the targets t != q of the pumps of elements i >= 1."""
    n = len(monoid.mappings[0])
    return tuple(
        frozenset(t for t in range(n) if t != q and any(m[q] == t == m[t] for m in monoid.mappings[1:]))
        for q in range(n)
    )


@settings(max_examples=300)
@given(dfas_and_caps())
def test_targets_equal_the_pumps_of_the_complete_monoid(case):
    dfa, cap = case
    full = transition_monoid(dfa, WALK_LIMIT)
    brute = brute_targets(full)
    if full.complete:
        assert dfa._pump_targets == brute
    else:
        assert all(b <= t for b, t in zip(brute, dfa._pump_targets))
    assert all(b <= t for b, t in zip(brute_targets(transition_monoid(dfa, cap)), dfa._pump_targets))


def small_dfas():
    """Random DFAs with 1-9 states over 1-3 letters."""
    return st.integers(1, 3).flatmap(lambda k: dfas(min_states=1, max_states=9, alphabet=("a", "b", "c")[:k]))


@st.composite
def dfas_and_goals(draw):
    """Random DFAs with 1-9 states over 1-3 letters, and a random label of
    each pair of states."""
    dfa = draw(small_dfas())
    n = len(dfa.states)
    labels = draw(st.lists(st.integers(0, 7), min_size=n * n, max_size=n * n))
    return dfa, labels


@settings(max_examples=300)
@given(dfas_and_goals())
def test_pair_reach_equals_the_pair_walks(case):
    dfa, labels = case
    n = len(dfa.states)
    reach = pair_reach(dfa, lambda c, d: labels[c * n + d])
    steps = pair_steps(dfa, dfa)
    for a in range(n):
        for b in range(n):
            expected = 0
            for c, d in bfs([(a, b)], steps):
                expected |= labels[c * n + d]
            assert reach[a * n + b] == expected


@settings(max_examples=300)
@given(small_dfas())
def test_separable_equals_the_backward_closure(dfa):
    assert dfa._separable == reference_separability_table(dfa)


def element_words(monoid):
    """The shortest witness word of every element, in element order."""
    return [monoid.word(i) for i in range(len(monoid))]


@settings(max_examples=200)
@given(dfas_and_caps())
def test_capped_monoid_is_a_prefix_of_the_walk(case):
    dfa, cap = case
    full = transition_monoid(dfa, WALK_LIMIT)
    capped = transition_monoid(dfa, cap)
    assert capped.mappings == full.mappings[:cap] and element_words(capped) == element_words(full)[:cap]
    assert capped.complete == (full.complete and len(full) <= cap)
    size, least_cap = len(full), len(dfa.alphabet) + 1
    if full.complete and size >= least_cap:
        assert transition_monoid(dfa, size) == full
        if size - 1 >= least_cap:
            below = transition_monoid(dfa, size - 1)
            assert not below.complete
            assert below.mappings == full.mappings[:-1] and element_words(below) == element_words(full)[:-1]


def reference_walk(dfa, cap):
    """The first `cap` tuple mappings and words of the dequeue-time walk that
    composes with each letter in alphabet order, and whether that is all."""
    letters = list(zip(dfa.alphabet, zip(*dfa._table)))

    def compose(m):
        return [(ch, tuple(letter[q] for q in m)) for ch, letter in letters]

    head = list(islice(reference_bfs([tuple(range(len(dfa.states)))], compose), cap + 1))
    return [m for m, _ in head[:cap]], [w for _, w in head[:cap]], len(head) <= cap


@settings(max_examples=150)
@given(dfas_and_caps())
def test_walk_equals_the_reference_walk(case):
    dfa, cap = case
    monoid = transition_monoid(dfa, cap)
    assert all(isinstance(m, bytes) for m in monoid.mappings)
    mappings = [tuple(m) for m in monoid.mappings]
    assert (mappings, element_words(monoid), monoid.complete) == reference_walk(dfa, cap)


@pytest.mark.parametrize("n", [256, 257, 300])
@pytest.mark.parametrize("cap", [3, 300, 600])
def test_walk_above_256_states_keeps_tuples(n, cap):
    dfa = minimize(cycle_with_reset(n))
    assert len(dfa.states) == n
    monoid = transition_monoid(dfa, cap)
    assert all(isinstance(m, bytes if n <= 256 else tuple) for m in monoid.mappings)
    mappings = [tuple(m) for m in monoid.mappings]
    assert (mappings, element_words(monoid), monoid.complete) == reference_walk(dfa, cap)
    assert len(monoid) == min(cap, 2 * n) and monoid.complete == (cap >= 2 * n)


def test_detectors_on_tuple_mappings_equal_the_scans():
    dfa = minimize(cycle_with_reset(257))
    for cap in (3, 40):  # below and above the least cap with two-cycles and a fork
        monoid = transition_monoid(dfa, cap)
        assert all(isinstance(m, tuple) for m in monoid.mappings)
        assert detect_two_cycles(dfa, monoid) == reference_two_cycles(dfa, monoid)
        assert detect_order_violation(dfa, monoid) == reference_order_violation(dfa, monoid)
        assert detect_fork(dfa, monoid) == reference_fork(dfa, monoid)


def reference_fork(dfa, monoid):
    """The first (f, g, q1) in element order that meets the fork's conditions,
    by a scan of all element pairs."""
    n = len(dfa.states)
    sep = reference_separability_table(dfa)
    mappings = monoid.mappings
    separable_both_ways = {(s, t) for s, t in sep if (t, s) in sep}
    if not separable_both_ways:
        return None
    for fi in range(1, len(mappings)):
        f = mappings[fi]
        pairs = [(q1, f[q1]) for q1 in range(n) if f[f[q1]] == f[q1]]
        for gi in range(1, len(mappings)):
            g = mappings[gi]
            for q1, q2 in pairs:
                q3 = g[q1]
                if g[q3] != q3 or q3 == q2 or (q2, q3) not in separable_both_ways:
                    continue
                rec = recurrent_states(zip(f, g))
                if q2 not in rec or q3 not in rec:
                    continue
                s2, s3 = dfa.states[q2], dfa.states[q3]
                return FragmentWitness(
                    kind=FORK,
                    states={"q1": dfa.states[q1], "q2": s2, "q3": s3},
                    words={
                        "x": monoid.word(fi),
                        "y": monoid.word(gi),
                        "z1": separating_word(dfa, s2, dfa, s3),
                        "z2": separating_word(dfa, s3, dfa, s2),
                    },
                )
    return None


@st.composite
def fork_cases(draw):
    """Random DFAs with 2-7 states over 1-3 letters or permutation-component
    DFAs, with a cap that is often below the monoid's size."""
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    dfa = draw(st.one_of(dfas(min_states=2, max_states=7, alphabet=alphabet), permutation_component_dfas()))
    least = len(dfa.alphabet) + 1
    return dfa, draw(st.one_of(st.integers(least, 12), st.integers(least, 300)))


@settings(max_examples=300)
@given(fork_cases())
def test_fork_equals_the_pair_scan(case):
    dfa, cap = case
    monoid = transition_monoid(dfa, cap)
    assert detect_fork(dfa, monoid) == reference_fork(dfa, monoid)


class CountingTuple(tuple):
    """A tuple that counts the reads of its items and its iterations."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def symmetric_group_dfa(n):
    """An n-cycle and a transposition generate S_n; accepting {p0}."""
    states = tuple(f"p{i}" for i in range(n))
    transitions = {}
    for i, q in enumerate(states):
        transitions[q, "a"] = states[(i + 1) % n]
        transitions[q, "b"] = states[{0: 1, 1: 0}.get(i, i)]
    return Dfa(states, ("a", "b"), states[0], frozenset(states[:1]), transitions)


@settings(max_examples=200)
@example(symmetric_group_dfa(7))
@given(permutation_component_dfas())
def test_fork_search_without_a_fork_reads_no_element(dfa):
    """In a permutation DFA or a permutation-component DFA no word pumps a
    state of a closed component into another, and a transient state lies on
    no cycle, so each row of the fork search holds pump targets in closed
    components only.  Those are recurrent under any two elements, so two of
    them separable both ways make a fork: without one, no row is left and
    no element is read."""
    monoid = transition_monoid(dfa)
    mappings = CountingTuple(monoid.mappings)
    witness = detect_fork(dfa, replace(monoid, mappings=mappings))
    assert witness is not None or mappings.reads == 0


def test_capped_walk_sets_off_no_collection():
    """The walk's links hold only the parent node of each element, and
    mappings are bytes, so enumerating a capped monoid allocates nothing the
    garbage collector tracks and no collection runs."""
    dfa = minimize(symmetric_group_dfa(8))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        monoid = transition_monoid(dfa)
    finally:
        gc.callbacks.remove(count)
    assert not monoid.complete
    assert collections == []


@pytest.mark.parametrize(
    "n, expected",
    [(7, (CONSTRUCTIBLE, 5040, True)), (8, (INCONCLUSIVE, 20_000, False))],
)
def test_symmetric_group_verdicts(n, expected):
    verdict = classify(symmetric_group_dfa(n))
    assert (verdict.classification, verdict.monoid_size, verdict.monoid_complete) == expected


@st.composite
def graphs(draw):
    """Labelled successor lists over nodes 0..k-1, and some sources."""
    k = draw(st.integers(1, 12))
    edges = draw(st.lists(
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, k - 1)), max_size=4),
        min_size=k, max_size=k,
    ))
    sources = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))
    return edges, sources


@given(graphs())
def test_bfs_equals_the_dequeue_time_walk(graph):
    edges, sources = graph
    links = {}
    nodes = list(bfs(sources, edges.__getitem__, links))
    reference = list(reference_bfs(sources, edges.__getitem__))
    assert nodes == [node for node, _ in reference]
    assert [spell(links, node, edges.__getitem__) for node in nodes] == [word for _, word in reference]


def test_bfs_stopped_early_expands_no_further():
    expanded = []

    def successors(node):
        expanded.append(node)
        return [("a", 2 * node + 1), ("b", 2 * node + 2)]

    links = {}
    walk = bfs([0], successors, links)
    assert [next(walk) for _ in range(3)] == [0, 1, 2]
    assert expanded == [0]
    assert [spell(links, node, successors) for node in (0, 1, 2)] == ["", "a", "b"]
