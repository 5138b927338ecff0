"""The monoid walk and the pump relation against the scans they replace.

`transition_monoid` is a `bfs` walk that yields each node when it is
discovered, and `detect_order_violation` and `detect_two_cycles` read
`Monoid.pumps` instead of scanning elements.  The dequeue-time walk and the
two element scans are kept here as references: walks, witnesses and pumps
must equal them, on capped monoids too.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from conftest import dfas
from qfalab.automata import bfs, shortest_word_between, strongly_connected, transition_monoid
from qfalab.fragments import (
    ORDER_VIOLATION,
    TWO_CYCLES,
    FragmentWitness,
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


def reference_order_violation(dfa, monoid):
    """The first (element index, q1) whose pump closes back into q1's SCC."""
    n = len(dfa.states)
    scc = strongly_connected(dfa._table)
    for elem in monoid.elements[1:]:
        m = elem.mapping
        for q1 in range(n):
            q2 = m[q1]
            if q2 == q1 or m[q2] != q2:
                continue
            if scc[q1] == scc[q2]:
                y = shortest_word_between(dfa, dfa.states[q2], [dfa.states[q1]])
                return FragmentWitness(
                    kind=ORDER_VIOLATION,
                    states={"q1": dfa.states[q1], "q2": dfa.states[q2]},
                    words={"x": elem.witness_word, "y": y},
                )
    return None


def reference_two_cycles(dfa, monoid):
    """The first (element index, q1) whose pump chains into a second pump."""
    n = len(dfa.states)
    second = [[] for _ in range(n)]
    for gi, elem in enumerate(monoid.elements[1:], start=1):
        g = elem.mapping
        for q in range(n):
            q3 = g[q]
            if q3 != q and g[q3] == q3 and all(t != q3 for _, t in second[q]):
                second[q].append((gi, q3))
    for elem in monoid.elements[1:]:
        f = elem.mapping
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
                words={"x": elem.witness_word, "y": monoid.elements[gi].witness_word},
            )
    return None


def brute_pumps(monoid):
    """Per state q, the (target, least element index) pumps in element order."""
    n = len(monoid.elements[0].mapping)
    rows = []
    for q in range(n):
        row = {}
        for t in range(n):
            hits = [
                i for i, e in enumerate(monoid.elements)
                if t != q and e.mapping[q] == t and e.mapping[t] == t
            ]
            if hits:
                row[t] = min(hits)
        rows.append(sorted(row.items(), key=lambda item: item[1]))
    return rows


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


@settings(max_examples=150)
@given(dfas_and_caps())
def test_pumps_are_the_least_pumping_elements(case):
    dfa, cap = case
    for monoid in (transition_monoid(dfa, cap), transition_monoid(dfa, WALK_LIMIT)):
        assert [list(row.items()) for row in monoid.pumps] == brute_pumps(monoid)


@settings(max_examples=200)
@given(dfas_and_caps())
def test_capped_monoid_is_a_prefix_of_the_walk(case):
    dfa, cap = case
    full = transition_monoid(dfa, WALK_LIMIT)
    capped = transition_monoid(dfa, cap)
    assert capped.elements == full.elements[:cap]
    assert capped.complete == (full.complete and len(full) <= cap)
    size, least_cap = len(full), len(dfa.alphabet) + 1
    if full.complete and size >= least_cap:
        assert transition_monoid(dfa, size) == full
        if size - 1 >= least_cap:
            below = transition_monoid(dfa, size - 1)
            assert not below.complete and below.elements == full.elements[:-1]


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
    assert list(bfs(sources, edges.__getitem__)) == list(reference_bfs(sources, edges.__getitem__))


def test_bfs_stopped_early_expands_no_further():
    expanded = []

    def successors(node):
        expanded.append(node)
        return [("a", 2 * node + 1), ("b", 2 * node + 2)]

    walk = bfs([0], successors)
    assert [next(walk) for _ in range(3)] == [(0, ""), (1, "a"), (2, "b")]
    assert expanded == [0]
