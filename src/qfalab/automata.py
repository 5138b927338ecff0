"""Deterministic automata: representation, minimization, containment, SCCs, monoids.

Everything here is pure and operates on immutable values; the other modules
query this one for the combinatorial structure of the input language.  A
`Dfa` builds its state-index views while it validates, and the algorithms
here (minimization, walks, SCC labellings, pair closures, monoids) run on
state indices and name states only in their results.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

DEFAULT_MONOID_CAP = 20_000


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic finite automaton over single-character symbols.

    `transitions` must be total: every (state, symbol) pair maps to a state.
    State and alphabet order is significant; it fixes iteration order and the
    canonical renaming produced by `minimize`.

    Validation builds the index views the hot loops read, in the one pass
    that checks every target: `_index` (state -> index), `_symbols`
    (symbol -> index), `_table` (`_table[state index][symbol index]` ->
    state index) and `_accepting_indices`.  They are plain attributes, not
    fields, so equality and the repr stay those of the five fields.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    start: str
    accepting: frozenset[str]
    transitions: Mapping[tuple[str, str], str]

    def __post_init__(self):
        index = {q: i for i, q in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ValueError("duplicate state names")
        symbols = {a: j for j, a in enumerate(self.alphabet)}
        if len(symbols) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        if self.start not in index:
            raise ValueError(f"start state {self.start!r} not among states")
        if not self.accepting <= index.keys():
            raise ValueError("accepting set contains unknown states")
        target, table = self.transitions.get, []
        for q in self.states:
            row = [index.get(target((q, a))) for a in self.alphabet]
            if None in row:  # the first bad pair in alphabet order names the error
                a = self.alphabet[row.index(None)]
                if target((q, a)) is None:
                    raise ValueError(f"transitions not total: missing ({q!r}, {a!r})")
                raise ValueError(f"transition ({q!r}, {a!r}) -> unknown state {target((q, a))!r}")
            table.append(row)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_symbols", symbols)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_accepting_indices", frozenset(map(index.__getitem__, self.accepting)))

    @cached_property
    def _scc(self) -> list[int]:
        """`strongly_connected(self._table)`: the one SCC labelling that
        `closed_sccs` and the order-violation detector read."""
        return strongly_connected(self._table)

    @cached_property
    def _pump_targets(self) -> tuple[frozenset[int], ...]:
        """`_pump_targets[q]`: the states t != q with some word x, x(q) = t = x(t),
        that is, the pairs (q, t) that reach (t, t)."""
        n = len(self.states)
        reach = pair_reach(self, lambda c, d: 1 << c if c == d else 0)
        return tuple(
            frozenset(t for t in range(n) if t != q and reach[q * n + t] >> t & 1) for q in range(n)
        )

    @cached_property
    def _separable(self) -> frozenset[tuple[int, int]]:
        """Ordered pairs (s, t) with some z sending s to accepting and t to
        rejecting, that is, the pairs that reach (accepting, rejecting)."""
        acc = self._accepting_indices
        reach = pair_reach(self, lambda c, d: c in acc and d not in acc)
        return frozenset(divmod(v, len(self.states)) for v, hit in enumerate(reach) if hit)

    def run(self, word: str, start: str | None = None) -> str:
        """State reached from `start` (default: the initial state) on `word`;
        a start state or a letter that the DFA lacks raises ValueError."""
        try:
            i = self._index[start if start is not None else self.start]
        except KeyError:
            raise ValueError(f"the DFA has no state {start!r}") from None
        table, symbols = self._table, self._symbols
        try:
            for ch in word:
                i = table[i][symbols[ch]]
        except KeyError:
            raise ValueError(f"the DFA has no letter {ch!r}") from None
        return self.states[i]

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.accepting

    __call__ = accepts  # a DFA is a membership predicate

    def complement(self) -> Dfa:
        return Dfa(
            states=self.states,
            alphabet=self.alphabet,
            start=self.start,
            accepting=frozenset(self.states) - self.accepting,
            transitions=self.transitions,
        )


@dataclass(frozen=True)
class ParseReport:
    """What the DFA parser did beyond a plain read."""

    completed_with_sink: bool = False
    sink_name: str | None = None
    missing_transitions: tuple[tuple[str, str], ...] = ()


class ParseError(ValueError):
    """A malformed input file: the parsers' errors subclass this."""


class DfaParseError(ParseError):
    """Raised when a DFA file is malformed."""


def load_json(text: str, error: type[ParseError]):
    """`json.loads(text)`; bad JSON, too deep a nesting and too long an integer raise `error`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error("JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal beyond the digit limit
        raise error(f"invalid JSON: {exc}") from None


def parse_dfa(text: str, complete_with_sink: bool = False) -> tuple[Dfa, ParseReport]:
    """Parse the structured-text DFA format.

    The format is a JSON object with keys "alphabet" (single-character
    strings), "states", "start", "accept" and "delta" (state -> symbol ->
    state).  A non-total delta is rejected unless `complete_with_sink` is
    set, in which case a fresh rejecting sink absorbs the missing
    transitions and the report records it.
    """
    obj = load_json(text, DfaParseError)
    if not isinstance(obj, dict):
        raise DfaParseError("top-level value must be an object")
    for key in ("alphabet", "states", "start", "accept", "delta"):
        if key not in obj:
            raise DfaParseError(f"missing key {key!r}")

    alphabet = obj["alphabet"]
    states = obj["states"]
    if not isinstance(alphabet, list) or not all(isinstance(a, str) and len(a) == 1 for a in alphabet):
        raise DfaParseError("alphabet must be a list of single-character strings")
    symbols = set(alphabet)
    if len(symbols) != len(alphabet):
        raise DfaParseError("duplicate alphabet symbols")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise DfaParseError("states must be a list of names")
    names = set(states)  # membership by hash; a name that is not a str is never known
    if len(names) != len(states):
        raise DfaParseError("duplicate state names")
    if not states:
        raise DfaParseError("at least one state is required")

    accept = obj["accept"]
    if not isinstance(accept, list) or not all(isinstance(q, str) and q in names for q in accept):
        raise DfaParseError("accept must be a list of known state names")
    start = obj["start"]
    if not (isinstance(start, str) and start in names):
        raise DfaParseError(f"unknown start state {start!r}")

    delta = obj["delta"]
    if not isinstance(delta, dict):
        raise DfaParseError("delta must be an object")
    unknown = [q for q in delta if q not in names]
    if unknown:
        raise DfaParseError(f"delta has a row for unknown state {unknown[0]!r}")
    transitions: dict[tuple[str, str], str] = {}
    missing: list[tuple[str, str]] = []
    for q in states:
        row = delta.get(q, {})
        if not isinstance(row, dict):
            raise DfaParseError(f"delta[{q!r}] must be an object")
        for sym, target in row.items():
            if sym not in symbols:
                raise DfaParseError(f"delta[{q!r}] uses unknown symbol {sym!r}")
            if not (isinstance(target, str) and target in names):
                raise DfaParseError(f"delta[{q!r}][{sym!r}] -> unknown state {target!r}")
            transitions[(q, sym)] = target
        if len(row) < len(alphabet):
            missing += [(q, sym) for sym in alphabet if sym not in row]

    report = ParseReport()
    if missing:
        if not complete_with_sink:
            q, sym = missing[0]
            raise DfaParseError(
                f"delta is not total ({len(missing)} transitions missing, first: {q!r} on {sym!r}); "
                "pass --complete-with-sink to add a rejecting sink"
            )
        sink = "__sink__"
        while sink in names:
            sink += "_"
        states = list(states) + [sink]
        for pair in missing:
            transitions[pair] = sink
        for sym in alphabet:
            transitions[(sink, sym)] = sink
        report = ParseReport(
            completed_with_sink=True, sink_name=sink, missing_transitions=tuple(missing)
        )

    dfa = Dfa(
        states=tuple(states),
        alphabet=tuple(alphabet),
        start=start,
        accepting=frozenset(accept),
        transitions=transitions,
    )
    return dfa, report


def dfa_to_json(dfa: Dfa) -> str:
    delta = {q: {a: dfa.transitions[(q, a)] for a in dfa.alphabet} for q in dfa.states}
    obj = {
        "alphabet": list(dfa.alphabet),
        "states": list(dfa.states),
        "start": dfa.start,
        "accept": sorted(dfa.accepting, key=dfa._index.__getitem__),
        "delta": delta,
    }
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def bfs(
    sources: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[tuple[str, Hashable]]],
    links: dict | None = None,
) -> Iterator[Hashable]:
    """Breadth-first walk yielding each node once, in discovery order.

    `successors(node)` gives `(symbol, next_node)` pairs, and must give the
    same pairs in the same order each time it is called on a node.  A node
    is yielded as soon as it is discovered, so a caller that stops early
    leaves the frontier unexpanded.  `links`, an empty dict if given, is the
    visited map: it ends up mapping each discovered node to the node that
    discovered it, and each source to None, so `spell` rebuilds a node's
    word on request.  Keeping no per-node tuple leaves the walk nothing for
    the garbage collector to track.  When successors come in alphabet
    order, nodes are yielded in shortlex order of their words, so the first
    yielded node that meets a goal has the shortlex-least word reaching any
    goal node.
    """
    from collections import deque  # the one queue in src/, see tests/test_one_bfs.py

    links = {} if links is None else links
    links.update(dict.fromkeys(sources))
    queue = deque(links)
    yield from queue
    while queue:
        node = queue.popleft()
        for _, nxt in successors(node):
            if nxt not in links:
                links[nxt] = node
                queue.append(nxt)
                yield nxt


def spell(links: Mapping[Hashable, Hashable | None], node: Hashable, successors: Callable) -> str:
    """The word of the path that discovered `node` in the `bfs` walk over
    `successors` that filled `links`.  Each letter is the first symbol of
    its parent's successors that leads to the child: `bfs` took that one,
    since the child was unvisited when the parent was expanded."""
    letters = []
    while (parent := links[node]) is not None:
        letters.append(next(ch for ch, nxt in successors(parent) if nxt == node))
        node = parent
    return "".join(reversed(letters))


def _first_word(
    sources: Iterable[Hashable], successors: Callable, goal: Callable[[Hashable], bool]
) -> str | None:
    """Word of the first node of a `bfs` walk that meets `goal`, or None."""
    links: dict = {}
    hit = next((node for node in bfs(sources, successors, links) if goal(node)), None)
    return None if hit is None else spell(links, hit, successors)


def letter_steps(dfa: Dfa) -> Callable[[int], Iterable[tuple[str, int]]]:
    """`bfs` successors over state indices, in alphabet order."""
    table, alphabet = dfa._table, dfa.alphabet
    return lambda i: zip(alphabet, table[i])


def pair_steps(d1: Dfa, d2: Dfa) -> Callable[[tuple[int, int]], Iterable[tuple[str, tuple[int, int]]]]:
    """`bfs` successors over pairs of state indices of the product d1 x d2."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    t1, t2, alphabet = d1._table, d2._table, d1.alphabet
    return lambda pair: zip(alphabet, zip(t1[pair[0]], t2[pair[1]]))


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal DFA for the same language.

    Unreachable states are dropped, equivalent states merged, and the result
    is renamed s0, s1, ... by BFS discovery order from the start state with
    alphabet order as tiebreak, so equal languages give equal values.

    Hopcroft's partition refinement on state indices: a block id per state,
    the members of each block, and per letter the preimage list of each
    state.  A splitter block is read through its preimages, so only the
    blocks it touches are split.  A split block keeps its id for its larger
    half and the smaller half becomes a new block, built at a cost within
    twice the touched part and queued as a splitter: if the old block is
    still queued, both halves now are.  Each state then lies in O(log n)
    splitters per letter, so the cost is O(n |alphabet| log n).  The
    refinement runs over every state, as the classes of equal futures do not
    depend on reachability; a BFS over the quotient table from the start's
    class then meets only the reachable classes, and numbers them.
    """
    table, alphabet, acc = dfa._table, dfa.alphabet, dfa._accepting_indices
    preimages: list[list[list[int]]] = [[[] for _ in table] for _ in alphabet]
    for i, row in enumerate(table):
        for pre, t in zip(preimages, row):
            pre[t].append(i)
    members = sorted((b for b in (set(acc), set(range(len(table))) - acc) if b), key=len, reverse=True)
    block = [0] * len(table)
    for b, m in enumerate(members):
        for i in m:
            block[i] = b
    queue = list(range(1, len(members)))  # the smaller of accepting and rejecting

    while queue:
        splitter = list(members[queue.pop()])
        for pre in preimages:
            touched: dict[int, list[int]] = {}
            for t in splitter:
                for i in pre[t]:
                    touched.setdefault(block[i], []).append(i)
            for b, inside in touched.items():
                whole = members[b]
                if len(inside) == len(whole):
                    continue
                half = set(inside)
                if 2 * len(half) > len(whole):
                    half = whole - half
                whole -= half
                new = len(members)
                for i in half:
                    block[i] = new
                queue.append(new)
                members.append(half)

    representatives = [next(iter(m)) for m in members]
    quotient = [[block[t] for t in table[r]] for r in representatives]
    order = list(bfs([block[dfa._index[dfa.start]]], lambda b: zip(alphabet, quotient[b])))
    number = [0] * len(members)
    for k, b in enumerate(order):
        number[b] = k
    names = [sys.intern(f"s{k}") for k in range(len(order))]  # one shared string per name
    transitions = {
        (name, a): names[number[t]] for name, b in zip(names, order) for a, t in zip(alphabet, quotient[b])
    }
    accepting = frozenset(names[k] for k, b in enumerate(order) if representatives[b] in acc)
    return Dfa(
        states=tuple(names),
        alphabet=dfa.alphabet,
        start=names[0],
        accepting=accepting,
        transitions=transitions,
    )


def separating_word(d1: Dfa, s1: str, d2: Dfa, s2: str) -> str | None:
    """Shortest word accepted from s1 in d1 but rejected from s2 in d2, if any.

    Searched by BFS over the product automaton, so "no word" is exact: it
    means s1's language is contained in s2's.
    """
    acc1, acc2 = d1._accepting_indices, d2._accepting_indices
    source = (d1._index[s1], d2._index[s2])
    return _first_word([source], pair_steps(d1, d2), lambda pair: pair[0] in acc1 and pair[1] not in acc2)


def shortest_word_between(dfa: Dfa, source: str, targets: Iterable[str]) -> str | None:
    """Shortest word leading from `source` into `targets` (BFS, alphabet order)."""
    goal = {dfa._index[t] for t in targets}
    return _first_word([dfa._index[source]], letter_steps(dfa), goal.__contains__)


def strongly_connected(successors: Iterable[Sequence[int]]) -> list[int]:
    """SCC id of each node of the graph with edges i -> j for j in successors[i].

    Nodes are 0..n-1, one successor row per node: `dfa._table` passes as is,
    and a tuple of state maps as `zip(*maps)`.  Iterative Tarjan; ids count
    components in the order they complete.
    """
    adj = list(successors)
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 while a visited node is still on the Tarjan stack
    stack: list[int] = []
    counter = n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comp


def pair_reach(dfa: Dfa, goal: Callable[[int, int], int]) -> list[int]:
    """For each node a*n + b of the square product of `dfa` with itself, the
    OR of `goal(c, d)` over every pair (c, d) the pair (a, b) reaches, itself
    included.

    One Tarjan pass over the n^2 pair rows (letters in alphabet order), then
    one pass over the components, sinks first, OR-ing each one's label into
    its own.  Exact over all words.
    """
    n, table = len(dfa.states), dfa._table
    rows = [[c * n + d for c, d in zip(table[a], table[b])] for a in range(n) for b in range(n)]
    comp = strongly_connected(rows)
    reach = [0] * (max(comp) + 1)
    for v in range(n * n):
        reach[comp[v]] |= goal(*divmod(v, n))
    for v in sorted(range(n * n), key=comp.__getitem__):  # sinks complete first
        bits = reach[comp[v]]
        for w in rows[v]:
            bits |= reach[comp[w]]
        reach[comp[v]] = bits
    return [reach[c] for c in comp]


def recurrent_states(successors: Iterable[Sequence[int]], scc: Sequence[int] | None = None) -> set[int]:
    """Members of the closed SCCs: the nodes q such that every node reachable
    from q reaches q back.  `scc` is the graph's `strongly_connected`
    labelling when the caller has it already."""
    adj = list(successors)
    scc = strongly_connected(adj) if scc is None else scc
    leaving = {scc[v] for v, row in enumerate(adj) for w in row if scc[w] != scc[v]}
    return {v for v in range(len(adj)) if scc[v] not in leaving}


def closed_sccs(dfa: Dfa) -> list[frozenset[str]]:
    """Bottom strongly connected components: SCCs with no outgoing edge.

    A state q lies in one iff every state reachable from q can reach q back.
    Components are returned with a canonical order (by smallest member index).
    The SCCs are the DFA's one labelling, `Dfa._scc`.
    """
    scc = dfa._scc
    groups: dict[int, list[str]] = {}
    for i in sorted(recurrent_states(dfa._table, scc)):
        groups.setdefault(scc[i], []).append(dfa.states[i])
    return [frozenset(g) for g in groups.values()]


@dataclass(frozen=True)
class Monoid:
    """Transition monoid of a DFA, enumerated up to a cap.

    `mappings[i]` is the state map of element i (`bytes`, one byte per state,
    or a tuple of ints above 256 states).  `mappings[0]` is the identity; the
    generators (letter mappings) follow in BFS order.  `links` is the visited
    map of the walk that found them, each element's parent, and `steps` is
    that walk's successor function, so `word(i)` spells element i's
    shortest witness word on request.  `complete` is False iff more than
    `cap` distinct mappings exist, in which case downstream detectors may
    only report inconclusively.  An element f pumps q into t when
    f(q) = t = f(t).  Which states some word pumps into which others depends
    on the DFA alone (`Dfa._pump_targets`); the detectors read the pumping
    elements themselves by one early-exit scan, and only for the pairs that
    relation and `Dfa._separable` leave.
    """

    mappings: tuple[Sequence[int], ...]
    links: dict = field(compare=False, repr=False)
    steps: Callable = field(compare=False, repr=False)
    complete: bool

    def __len__(self) -> int:
        return len(self.mappings)

    def word(self, i: int) -> str:
        """Shortest witness word of element i (alphabet order tiebreak)."""
        return spell(self.links, self.mappings[i], self.steps)


def transition_monoid(dfa: Dfa, cap: int = DEFAULT_MONOID_CAP) -> Monoid:
    """The first `cap` mappings of a `bfs` walk from the identity that composes
    with each letter in alphabet order: elements come in order of shortest
    witness word (alphabet order tiebreak), so their indices are deterministic.
    The walk's links, each element's parent, and its successor function are
    kept, and only the words the detectors report are spelled, each letter
    by composing a parent with the letters again.

    A mapping is a `bytes` string, and composing it with a letter is one
    `bytes.translate` through that letter's 256-byte table; a DFA with more
    than 256 states keeps tuples of ints.
    """
    if cap < len(dfa.alphabet) + 1:
        raise ValueError(f"cap must be at least |alphabet|+1 = {len(dfa.alphabet) + 1}")
    n, alphabet, columns = len(dfa.states), dfa.alphabet, list(zip(*dfa._table))
    if n <= 256:
        tables = [bytes(column).ljust(256, b"\0") for column in columns]
        identity, steps = bytes(range(n)), lambda m: zip(alphabet, map(m.translate, tables))
    else:
        letters = [column.__getitem__ for column in columns]
        identity, steps = tuple(range(n)), lambda m: zip(alphabet, (tuple(map(f, m)) for f in letters))
    links: dict = {}
    walk = bfs([identity], steps, links)
    mappings = tuple(islice(walk, cap))
    return Monoid(mappings=mappings, links=links, steps=steps, complete=next(walk, None) is None)
