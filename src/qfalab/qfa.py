"""Measure-many one-way QFAs: representation, validation, exact simulation.

A machine holds one unitary per working-alphabet symbol (the input letters
plus the endmarkers, spelled "^" and "$").  Reading a symbol applies the
unitary and then measures against the accept/reject/non-halting subspaces;
the run folds this over ^ word $ starting from the basis state `start`.
Residual non-halting mass left after "$" counts as neither accept nor
reject.

`sweep` simulates every word up to a length at once, one length per step.
A word's future is fixed by its configuration: the non-halting state after
^w and the masses accepted and rejected so far.  A `_Table` keeps the
distinct configurations met, keyed by the bytes of the row and the two
masses; each entry holds its "$" outcome and, once expanded, the entry of
each of its children.  `_Table.levels` keeps one entry id per word in
`all_words` order; the next length is `children[index].reshape(-1)`,
w-major and letter-minor, so its order is `all_words` order again, and
`sweep` pairs each length with its words.  Only entries not yet expanded
are read by a letter, and each new entry reads "$" once.
Every state is multiplied by its unitary as its own BLAS matrix-vector
product, as `run` does, because a matrix-matrix product rounds a column
differently depending on where it falls in the kernel's tiles; with
`_measure` shared too, byte-equal configurations have bitwise equal
outcomes on every extension, and `sweep` gives bitwise the accept and
reject probabilities of `run`.  Products and measurements go in blocks of
`FRONTIER_BLOCK` rows, so the "$" read and the measurement temporaries
never exceed one block.

`verify_recognition` against a `Dfa` drives the same table without words:
one `bfs`, cut at the length, walks the distinct (configuration, DFA state)
nodes that its words reach and reads each node's outcome and label once,
so time and memory follow the nodes, not the words or the length: compiled
machines meet a handful, and a check up to length 10**6 costs about what
one up to 10 does.  A word is spelled only as a counterexample, through
each length's nodes, rebuilt from the walk and pruned to those that lead to
a failure, so a failure at a deep length costs per node too.  Any other
callable, and an overflowing walk, read every word from length 0 through
`_Table.levels` over the same table, labelled by `word_labels`.

The table holds at most `FRONTIER_BLOCK` configurations.  The compiled
machines, the two pair fixtures and the 6/11 union of two 3/4 toys meet at
most 8, so their sweeps hold only the table, one id per word of the last
two lengths and the words' strings.  A length whose children could
overflow the table drops it, and from then on each word keeps its own row
in `_Table.levels`: memory peaks while the last length is built, at one
row of 16 * dimension bytes per word of each of the last two lengths, plus
the words' strings in a sweep.
At dimension 15 over two letters up to length 16 those rows take 24 MB;
each further length doubles that.

`parse_qfa` decodes and converts a machine with the garbage collector
paused: its JSON tree, one list per matrix entry, is acyclic and freed
before the collector resumes, so no collection has anything to find in it.
The pause is process-wide; the collector's prior state is restored on
every exit.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from qfalab import FRONTIER_BLOCK, GIVEN_COLUMNS_TOL, RECOGNITION_TOL, RESIDUAL_TOL, USER_UNITARITY_TOL
from qfalab.automata import Dfa, ParseError, bfs, load_json

KAPPA = "^"
DOLLAR = "$"


class SymbolError(ValueError):
    """A word uses a symbol outside the machine's alphabet."""


class QfaParseError(ParseError):
    """Raised when a QFA file is malformed or fails validation on load."""


@dataclass(frozen=True)
class Qfa:
    """A measure-many 1-way quantum finite automaton.

    `unitaries` maps each symbol of the working alphabet (alphabet plus
    "^"/"$") to a dimension x dimension complex matrix, applied to column
    vectors: column j is the image of basis state j.  `acc` and `rej` are
    disjoint basis-index sets; everything else is non-halting.

    Validation builds `_halting`, the index array of `acc` then `rej` in
    their iteration order, which `_measure` reads.  It is a plain
    attribute, not a field, so equality and the repr stay those of the six
    fields.
    """

    dimension: int
    alphabet: tuple[str, ...]
    unitaries: Mapping[str, np.ndarray]
    start: int
    acc: frozenset[int]
    rej: frozenset[int]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.acc & self.rej:
            raise ValueError("acc and rej overlap")
        for name, group in (("acc", self.acc), ("rej", self.rej)):
            if not all(0 <= i < self.dimension for i in group):
                raise ValueError(f"{name} contains out-of-range indices")
        if not 0 <= self.start < self.dimension:
            raise ValueError("start index out of range")
        expected = set(self.alphabet) | {KAPPA, DOLLAR}
        if set(self.unitaries) != expected:
            raise ValueError(f"unitaries must cover exactly {sorted(expected)}")
        for sym, mat in self.unitaries.items():
            if mat.shape != (self.dimension, self.dimension):
                raise ValueError(f"matrix for {sym!r} has shape {mat.shape}")
        object.__setattr__(self, "_halting", np.array([*self.acc, *self.rej], dtype=np.intp))

    @property
    def non_halting(self) -> tuple[int, ...]:
        halting = self.acc | self.rej
        return tuple(i for i in range(self.dimension) if i not in halting)

    def initial_state(self) -> np.ndarray:
        psi = np.zeros(self.dimension, dtype=np.complex128)
        psi[self.start] = 1.0
        return psi


@dataclass(frozen=True)
class UnitarityReport:
    passed: bool
    tol: float
    deviations: Mapping[str, float]  # per symbol, max |U^dag U - I|
    worst_symbol: str
    worst_deviation: float


def _gram_deviation(mat: np.ndarray) -> float:
    """Max entry of |M^dag M - I| (0 for no columns); NaN when M holds a NaN."""
    gram = mat.conj().T @ mat
    return float(np.max(np.abs(gram - np.eye(mat.shape[1])), initial=0.0))


def validate(qfa: Qfa, tol: float = USER_UNITARITY_TOL) -> UnitarityReport:
    """Check every matrix for unitarity: max entry of |U^dag U - I| <= tol; NaN ranks worst."""
    deviations = {sym: _gram_deviation(mat) for sym, mat in qfa.unitaries.items()}
    worst = max(deviations, key=lambda sym: (math.isnan(deviations[sym]), deviations[sym]))
    return UnitarityReport(
        passed=deviations[worst] <= tol,
        tol=tol,
        deviations=deviations,
        worst_symbol=worst,
        worst_deviation=deviations[worst],
    )


def _measure(qfa: Qfa, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure each row of `states` in place; return the accept and reject masses.

    The accept and reject amplitudes are zeroed, leaving the non-halting
    projection.  Each term |psi_i|**2 is hypot then C pow, as `abs(z) ** 2`
    gives for one amplitude.  The terms go into a C-contiguous (index x
    row) array, and each mass is one axis-0 sum of its set's rows: numpy
    adds them row by row, in the set's iteration order, so the masses are
    bitwise those of a scalar sum over the set.  Over a single column numpy
    would sum pairwise instead, so one row gets a column of zeros beside it.
    """
    halting, rows = qfa._halting, len(states)
    picked = states[:, halting]
    states[:, halting] = 0.0
    terms = np.zeros((len(halting), max(rows, 2)))
    terms[:, :rows] = np.float_power(np.hypot(picked.real, picked.imag), 2.0).T
    n_acc = len(qfa.acc)
    return terms[:n_acc].sum(axis=0)[:rows], terms[n_acc:].sum(axis=0)[:rows]


def _apply(mat: np.ndarray, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`mat @ row` for each row of `states`, one matrix-vector product per row."""
    if out is None:
        out = np.empty_like(states)
    np.matmul(mat, states[:, :, None], out=out[:, :, None])
    return out


@dataclass(frozen=True)
class StepRecord:
    symbol: str
    accept_increment: float
    reject_increment: float
    post_norm_sq: float  # non-halting mass left after the measurement


@dataclass(frozen=True)
class RunOutcome:
    p_accept: float
    p_reject: float
    p_residual: float
    trace: tuple[StepRecord, ...] | None = None

    @property
    def residual_flagged(self) -> bool:
        """True when non-halting mass survives past the right endmarker."""
        return self.p_residual > RESIDUAL_TOL


def _check_letters(qfa: Qfa, word: Iterable[str]) -> None:
    for pos, ch in enumerate(word):
        if ch not in qfa.alphabet:
            raise SymbolError(f"symbol {ch!r} at position {pos} is not in the input alphabet")


def run(qfa: Qfa, word: str, with_trace: bool = False) -> RunOutcome:
    """Exact acceptance/rejection probabilities of `word` (endmarkers implied).

    This is the one-word reference path of `sweep`: the same product and
    `_measure` on a frontier of one row.
    """
    _check_letters(qfa, word)
    psi = qfa.initial_state()[None, :]
    p_acc = 0.0
    p_rej = 0.0
    records: list[StepRecord] = []
    for sym in (KAPPA, *word, DOLLAR):
        psi = _apply(qfa.unitaries[sym], psi)
        acc, rej = _measure(qfa, psi)
        acc_inc, rej_inc = float(acc[0]), float(rej[0])
        p_acc += acc_inc
        p_rej += rej_inc
        if with_trace:
            records.append(StepRecord(sym, acc_inc, rej_inc, float(np.vdot(psi[0], psi[0]).real)))
    residual = float(np.vdot(psi, psi).real)
    return RunOutcome(
        p_accept=p_acc,
        p_reject=p_rej,
        p_residual=residual,
        trace=tuple(records) if with_trace else None,
    )


def nonhalting_operator(qfa: Qfa, word: str) -> np.ndarray:
    """Composition of (project-to-non-halting o unitary) over the word's symbols.

    The word ranges over the working alphabet, so endmarkers are allowed.
    The result is a norm contraction; the empty word gives the identity.
    """
    keep = list(qfa.non_halting)
    proj = np.zeros((qfa.dimension, qfa.dimension), dtype=np.complex128)
    proj[keep, keep] = 1.0
    op = np.eye(qfa.dimension, dtype=np.complex128)
    for sym in word:
        mat = qfa.unitaries.get(sym)
        if mat is None:
            raise SymbolError(f"symbol {sym!r} is not in the working alphabet")
        op = proj @ mat @ op
    return op


def _word_levels(letters: tuple[str, ...], max_len: int):
    """The words of each length 0..max_len, each level w-major, letter-minor."""
    words = [""]
    for n in range(max_len + 1):
        yield words
        if n < max_len:
            words = [w + ch for w in words for ch in letters]


def all_words(letters: Iterable[str], max_len: int):
    """All words over `letters` of length 0..max_len, shortest first."""
    for words in _word_levels(tuple(letters), max_len):
        yield from words


@dataclass(frozen=True)
class LevelOutcome:
    """The outcomes of every word of one length, in `all_words` order."""

    words: list[str]
    p_accept: np.ndarray
    p_reject: np.ndarray
    p_residual: np.ndarray


def _blocks(n: int) -> Iterator[tuple[int, int]]:
    """The bounds of rows 0..n in blocks of `FRONTIER_BLOCK`."""
    for lo in range(0, n, FRONTIER_BLOCK):
        yield lo, min(lo + FRONTIER_BLOCK, n)


def _children(qfa: Qfa, mats, states: np.ndarray, p_acc: np.ndarray, p_rej: np.ndarray):
    """Each row of `states` read by each of `mats` and measured: the children,
    row-major and letter-minor, with the masses accepted and rejected so far."""
    k = len(mats)
    kids = np.empty((len(states) * k, qfa.dimension), dtype=np.complex128)
    kid_acc, kid_rej = np.empty(len(kids)), np.empty(len(kids))
    for lo, hi in _blocks(len(states)):
        block = kids[lo * k : hi * k]
        for j, mat in enumerate(mats):
            _apply(mat, states[lo:hi], out=block[j::k])
        acc_inc, rej_inc = _measure(qfa, block)
        kid_acc[lo * k : hi * k] = np.repeat(p_acc[lo:hi], k) + acc_inc
        kid_rej[lo * k : hi * k] = np.repeat(p_rej[lo:hi], k) + rej_inc
    return kids, kid_acc, kid_rej


def _ends(qfa: Qfa, states: np.ndarray, p_acc: np.ndarray, p_rej: np.ndarray):
    """The "$" outcome of each row of `states`: accept, reject and residual mass."""
    end = qfa.unitaries[DOLLAR]
    acc, rej, residual = np.empty(len(states)), np.empty(len(states)), np.empty(len(states))
    for lo, hi in _blocks(len(states)):
        post = _apply(end, states[lo:hi])
        acc_inc, rej_inc = _measure(qfa, post)
        acc[lo:hi] = p_acc[lo:hi] + acc_inc
        rej[lo:hi] = p_rej[lo:hi] + rej_inc
        residual[lo:hi] = np.einsum("ij,ij->i", post.conj(), post).real
    return acc, rej, residual


def _keys(states: np.ndarray, p_acc: np.ndarray, p_rej: np.ndarray) -> Iterator[bytes]:
    """Each configuration's table key: the bytes of its row and of its two masses."""
    return map(bytes, np.concatenate((states.view(np.float64), p_acc[:, None], p_rej[:, None]), axis=1))


class _Table:
    """The distinct configurations met so far, at most `FRONTIER_BLOCK` of them.

    Configuration i is (states[i], p_acc[i], p_rej[i]), keyed in `ids` by
    `_keys`, with "$" outcome ends[*][i].  The first len(children) are
    expanded, children[i] holding their children's ids, one per letter.  It
    starts with the configuration after "^" alone, as id 0.
    """

    def __init__(self, qfa: Qfa, letters: tuple[str, ...]):
        self.qfa, self.mats = qfa, [qfa.unitaries[ch] for ch in letters]
        self.states = _apply(qfa.unitaries[KAPPA], qfa.initial_state()[None, :])
        self.p_acc, self.p_rej = _measure(qfa, self.states)
        self.ends = _ends(qfa, self.states, self.p_acc, self.p_rej)
        self.ids = dict.fromkeys(_keys(self.states, self.p_acc, self.p_rej), 0)
        self.children = np.empty((0, len(letters)), dtype=np.intp)

    def grow(self) -> bool:
        """Expand every configuration not yet expanded; False, with nothing
        read, when their children could overflow the table."""
        states, p_acc, p_rej = self.states, self.p_acc, self.p_rej
        done, k = len(self.children), len(self.mats)
        if len(states) + (len(states) - done) * k > FRONTIER_BLOCK:
            return False
        if done < len(states):
            kids, kid_acc, kid_rej = _children(self.qfa, self.mats, states[done:], p_acc[done:], p_rej[done:])
            fresh, kid_ids = [], []
            for i, key in enumerate(_keys(kids, kid_acc, kid_rej)):
                if key not in self.ids:
                    self.ids[key] = len(self.ids)
                    fresh.append(i)
                kid_ids.append(self.ids[key])
            kid_ids = np.array(kid_ids, dtype=np.intp).reshape(len(states) - done, k)
            self.children = np.concatenate((self.children, kid_ids))
            added = kids[fresh], kid_acc[fresh], kid_rej[fresh]
            self.ends = tuple(map(np.concatenate, zip(self.ends, _ends(self.qfa, *added))))
            self.states, self.p_acc, self.p_rej = map(np.concatenate, zip((states, p_acc, p_rej), added))
        return True

    def levels(self, max_len: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield the "$" outcomes of every word of each length 0..max_len, in
        `all_words` order: one configuration id per word, stepped through the
        children of expanded ids as they are and through `grow` for the rest,
        then one row per word once the table could overflow."""
        index = np.zeros(1, dtype=np.intp)  # the configuration of each word of the length
        for n in range(max_len + 1):
            yield tuple(outcome[index] for outcome in self.ends)
            if n == max_len:
                return
            if (index >= len(self.children)).any() and not self.grow():
                break
            index = self.children[index].reshape(-1)
        states, p_acc, p_rej = self.states[index], self.p_acc[index], self.p_rej[index]
        for _ in range(n, max_len):
            states, p_acc, p_rej = _children(self.qfa, self.mats, states, p_acc, p_rej)
            yield _ends(self.qfa, states, p_acc, p_rej)


def _swept(qfa: Qfa, max_len: int, letters: Iterable[str] | None) -> tuple[str, ...]:
    """The letters of a sweep up to max_len, by default the machine's
    alphabet, once the length and the letters are checked."""
    if max_len < 0:
        raise ValueError(f"maximum word length must be non-negative, got {max_len}")
    letters = qfa.alphabet if letters is None else tuple(letters)
    _check_letters(qfa, letters)
    return letters


def sweep(qfa: Qfa, max_len: int, letters: Iterable[str] | None = None):
    """Yield a LevelOutcome for each length 0..max_len: every word over `letters`.

    `letters` defaults to the machine's alphabet.  Accept and reject
    probabilities are bitwise those of `run`; residuals agree to rounding.
    Each distinct configuration (non-halting row and masses) is simulated
    once, through a `_Table` of at most `FRONTIER_BLOCK` of them; a length
    whose children could overflow the table drops it, and from then on
    each word keeps its own row (`_Table.levels`).
    """
    letters = _swept(qfa, max_len, letters)
    for words, ends in zip(_word_levels(letters, max_len), _Table(qfa, letters).levels(max_len)):
        yield LevelOutcome(words, *ends)


def _dfa_columns(dfa: Dfa, letters: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The DFA's transition table with one column per letter of `letters`, in
    order, and its accepting states as a mask; a letter it lacks is an error."""
    missing = [ch for ch in letters if ch not in dfa.alphabet]
    if missing:
        raise ValueError(f"the language's DFA has no letter {missing[0]!r}")
    table = np.array(dfa._table, dtype=np.intp)[:, [dfa._symbols[ch] for ch in letters]]
    accepting = np.zeros(len(dfa.states), dtype=bool)
    accepting[list(dfa._accepting_indices)] = True
    return table, accepting


def word_labels(oracle: Callable[[str], bool], letters: tuple[str, ...], max_len: int) -> Iterator[np.ndarray]:
    """Yield `oracle`'s labels of the words over `letters` of each length
    0..max_len, in `all_words` order.

    A `Dfa` labels a whole length at once: level n's labels are
    `accepting[frontier_n]`, where frontier_0 holds the start state and
    frontier_{n+1} is `table[frontier_n].reshape(-1)`.  The table's columns
    are `letters` in order, so each frontier is word-major and
    letter-minor.  A letter that the DFA lacks is an error, raised with the
    first labels.  Any other callable is called once per word.
    """
    if not isinstance(oracle, Dfa):
        for words in _word_levels(letters, max_len):
            yield np.fromiter((bool(oracle(w)) for w in words), dtype=bool, count=len(words))
        return
    table, accepting = _dfa_columns(oracle, letters)
    frontier = np.array([oracle._index[oracle.start]])
    yield accepting[frontier]
    for _ in range(max_len):
        frontier = table[frontier].reshape(-1)
        yield accepting[frontier]


def _word_at(letters: tuple[str, ...], n: int, j) -> str:
    """Word j of length n over `letters` in `all_words` order: the n
    base-|letters| digits of j, most significant first."""
    chars = []
    j = int(j)
    for _ in range(n):
        j, digit = divmod(j, len(letters))
        chars.append(letters[digit])
    return "".join(reversed(chars))


@dataclass(frozen=True)
class RecognitionReport:
    passed: bool
    probability: float
    tol: float
    max_len: int
    words_checked: int
    worst_accept_margin: float  # min over in-language words of p_accept - p
    worst_reject_margin: float  # min over out-of-language words of p_reject - p
    counterexamples: tuple[tuple[str, float], ...]
    residual_flagged: bool


class _Tally:
    """What a check of recognition at p has read so far: the worst margins,
    the first five counterexamples in `all_words` order and whether some
    residual was flagged."""

    def __init__(self, p: float, tol: float):
        self.p, self.tol = p, tol
        self.worst_acc = self.worst_rej = float("inf")
        self.counterexamples: list[tuple[str, float]] = []
        self.residual_seen = False

    def add(self, labels: np.ndarray, p_accept: np.ndarray, p_reject: np.ndarray, p_residual: np.ndarray):
        """Read units, each a word or a node of words with equal outcomes and
        labels, into the worst margins and the residual flag; return their
        margins and the mask of those that fail."""
        margins = np.where(labels, p_accept, p_reject) - self.p
        # np.minimum and ndarray.min propagate NaN where the builtin min drops it
        if labels.any():
            self.worst_acc = float(np.minimum(self.worst_acc, margins[labels].min()))
        if not labels.all():
            self.worst_rej = float(np.minimum(self.worst_rej, margins[~labels].min()))
        self.residual_seen = self.residual_seen or bool((p_residual > RESIDUAL_TOL).any())
        return margins, ~(margins >= -self.tol)

    def add_words(self, letters: tuple[str, ...], n: int, labels, p_accept, p_reject, p_residual) -> None:
        """Read every word of length n over `letters`, in `all_words` order."""
        margins, fail = self.add(labels, p_accept, p_reject, p_residual)
        for j in np.flatnonzero(fail)[: 5 - len(self.counterexamples)]:
            self.counterexamples.append((_word_at(letters, n, j), float(margins[j] + self.p)))


def _product_walk(table: _Table, dfa: Dfa, letters: tuple[str, ...], max_len: int, tally: _Tally) -> bool:
    """Check the machine of `table` against `dfa` on every word over `letters`
    up to max_len into `tally`; False, with nothing read, once the table
    could overflow.

    A node is config * |Q| + state: the `_Table` id of a word's configuration
    and the index of the DFA state it leads to.  A word of length <= max_len
    reaches a node exactly when the node's `bfs` depth is <= max_len, so one
    walk cut at that depth meets every node to read, each once.  A node
    below the cut has its configuration expanded (`_Table.grow`) when met,
    so the table never reads a length past max_len.  The worst margins and
    the residual flag are one read of the nodes met.  No word is built but
    a counterexample: when a node fails, each length's node set is rebuilt
    from the walk's children, and `_first_words` spells the failing words
    of each length from them, up to the fifth counterexample or to a node
    set met again with no failing one since, after which the sets cycle.
    """
    columns, accepting = _dfa_columns(dfa, letters)
    columns, size, start = columns.tolist(), len(dfa.states), dfa._index[dfa.start]
    links, depth = {}, {}  # depth: each node met, in `bfs` order -> its depth
    kids: dict[int, list[int]] = {}  # each node below depth max_len -> its children, one per letter
    for v in bfs([start], lambda v: zip(letters, kids.get(v, ())), links):
        depth[v] = 0 if links[v] is None else depth[links[v]] + 1
        if depth[v] < max_len:
            config, state = divmod(v, size)
            if config >= len(table.children) and not table.grow():
                return False
            kids[v] = [c * size + q for c, q in zip(table.children[config].tolist(), columns[state])]
    config, state = np.divmod(np.array(list(depth)), size)
    margins, fail = tally.add(accepting[state], *(outcome[config] for outcome in table.ends))
    failing = dict(zip(compress(depth, fail), margins[fail]))
    layers = [frozenset([start])]  # the nodes of each length so far
    seen = set()  # the node sets of the lengths since the last failing one
    while failing and len(tally.counterexamples) < 5 and layers[-1] not in seen:
        if failing.keys().isdisjoint(layers[-1]):
            seen.add(layers[-1])
        else:
            seen.clear()
            missing = 5 - len(tally.counterexamples)
            for word, v in _first_words(kids, layers, failing, letters, missing):
                tally.counterexamples.append((word, float(failing[v] + tally.p)))
        if len(layers) > max_len:
            break
        layers.append(frozenset(kid for v in layers[-1] for kid in kids[v]))
    return True


def _first_words(kids: dict[int, list[int]], layers: list[set[int]], targets, letters: tuple[str, ...], count: int):
    """The first `count` words of length n = len(layers) - 1 in `all_words`
    order whose node is in `targets`, each with that node.

    Each length's nodes are pruned back to those with a child left at the
    next length, from the targets at length n down to the start; a descent
    from the start in letter order then enters only nodes that lead to a
    target, so each word costs at most n * |letters| steps.
    """
    alive = [{v for v in layers[-1] if v in targets}]
    for nodes in reversed(layers[:-1]):
        alive.append({v for v in nodes if not alive[-1].isdisjoint(kids[v])})
    alive.reverse()
    (start,), n, found = layers[0], len(layers) - 1, []
    stack = [("", start)]  # (prefix, its node), the next in letter order on top
    while len(found) < count and stack:
        word, v = stack.pop()
        if len(word) == n:
            found.append((word, v))
            continue
        below = alive[len(word) + 1]
        stack += [(word + ch, kid) for ch, kid in zip(reversed(letters), reversed(kids[v])) if kid in below]
    return found


def verify_recognition(
    qfa: Qfa,
    oracle: Callable[[str], bool],
    p: float,
    max_len: int,
    tol: float = RECOGNITION_TOL,
    alphabet: Iterable[str] | None = None,
) -> RecognitionReport:
    """Exhaustively check recognition with probability p on all words up to max_len.

    In-language words must accept with probability >= p - tol and all other
    words must reject with probability >= p - tol.  The report carries the
    worst margins and the first five offending words in `all_words` order,
    if any.  A NaN probability fails: it becomes the worst margin and a
    counterexample.  p must lie in (1/2, 1].  A `Dfa` oracle is checked on
    the distinct (configuration, DFA state) pairs that the words reach, by
    one `bfs` cut at max_len (`_product_walk`), so that the check costs per
    pair, not per word or per length.  Any other callable, and a walk that
    would overflow the table, read every word from length 0
    (`_Table.levels`, over the table the walk grew) with its label
    (`word_labels`).  `words_checked`, the sum of k**n over n <= max_len
    for k letters, is taken in closed form.
    """
    if not 0.5 < p <= 1:
        raise ValueError(f"recognition probability must lie in (1/2, 1], not {p}")
    letters = _swept(qfa, max_len, alphabet)
    table = _Table(qfa, letters)
    tally = _Tally(p, tol)
    if not (isinstance(oracle, Dfa) and _product_walk(table, oracle, letters, max_len, tally)):
        for n, ends, labels in zip(range(max_len + 1), table.levels(max_len), word_labels(oracle, letters, max_len)):
            tally.add_words(letters, n, labels, *ends)
    k = len(letters)
    return RecognitionReport(
        passed=tally.worst_acc >= -tol and tally.worst_rej >= -tol,
        probability=p,
        tol=tol,
        max_len=max_len,
        words_checked=(k ** (max_len + 1) - 1) // (k - 1) if k > 1 else max_len + 1 if k else 1,
        worst_accept_margin=tally.worst_acc,
        worst_reject_margin=tally.worst_rej,
        counterexamples=tuple(tally.counterexamples),
        residual_flagged=tally.residual_seen,
    )


def complete_unitary(columns: Mapping[int, np.ndarray], dimension: int) -> np.ndarray:
    """Extend prescribed orthonormal columns to a full unitary.

    The prescribed columns are kept as given.  Stacked in the mapping's order
    into A, they must satisfy max |A^dag A - I| <= `GIVEN_COLUMNS_TOL`.  The
    free columns, in ascending index, are the trailing columns of the Q of
    A's complete QR factorization: an orthonormal basis of A's complement.
    """
    given = np.zeros((dimension, len(columns)), dtype=np.complex128)
    for k, col in enumerate(columns.values()):
        vec = np.asarray(col, dtype=np.complex128)
        if vec.shape != (dimension,):
            raise ValueError("column shape mismatch")
        given[:, k] = vec
    deviation = _gram_deviation(given)
    if not deviation <= GIVEN_COLUMNS_TOL:
        raise ValueError(f"prescribed columns are not orthonormal: max Gram deviation {deviation:.6g}")
    mat = np.empty((dimension, dimension), dtype=np.complex128)
    mat[:, list(columns)] = given
    free = np.linalg.qr(given, mode="complete")[0][:, len(columns) :]
    mat[:, [j for j in range(dimension) if j not in columns]] = free
    return mat


def freeze(qfa: Qfa) -> Qfa:
    """Mark all matrices read-only (shared values should not be mutated)."""
    for mat in qfa.unitaries.values():
        mat.flags.writeable = False
    return qfa


def qfa_to_json(qfa: Qfa) -> str:
    def encode(mat: np.ndarray) -> list[list[float]]:
        flat = mat.reshape(-1)
        return [[float(z.real), float(z.imag)] for z in flat]

    obj = {
        "dimension": qfa.dimension,
        "alphabet": list(qfa.alphabet),
        "start": qfa.start,
        "acc": sorted(qfa.acc),
        "rej": sorted(qfa.rej),
        "unitaries": {sym: encode(mat) for sym, mat in qfa.unitaries.items()},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_qfa(text: str, validate_tol: float | None = USER_UNITARITY_TOL) -> Qfa:
    """Parse the structured-text QFA format; validates unitarity unless tol is None.

    The text is decoded and converted with the garbage collector paused:
    its JSON tree, one list per matrix entry (over a thousand at dimension
    15), would set off collections mid-parse, and being acyclic and freed
    before the collector resumes, it gives them nothing to free.  The pause
    is process-wide; the collector's prior state, enabled or disabled, is
    restored on every exit, an error included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        qfa = _decode(text)
    finally:
        if enabled:
            gc.enable()
    if validate_tol is not None:
        report = validate(qfa, validate_tol)
        if not report.passed:
            raise QfaParseError(
                f"matrix for {report.worst_symbol!r} is not unitary: "
                f"max Gram deviation {report.worst_deviation:.6g} > {validate_tol:.6g}"
            )
    return freeze(qfa)


def _decode(text: str) -> Qfa:
    """The `Qfa` that `text` spells, unvalidated; its JSON tree is freed on return."""
    obj = load_json(text, QfaParseError)
    if not isinstance(obj, dict):
        raise QfaParseError("top-level value must be an object")
    for key in ("dimension", "alphabet", "start", "acc", "rej", "unitaries"):
        if key not in obj:
            raise QfaParseError(f"missing key {key!r}")
    dim = obj["dimension"]
    if not _is_int(dim) or dim < 1:
        raise QfaParseError("dimension must be a positive integer")
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(a, str) and len(a) == 1 for a in alphabet):
        raise QfaParseError("alphabet must be a list of single-character strings")
    if len(set(alphabet)) != len(alphabet):
        raise QfaParseError("duplicate alphabet symbols")
    if KAPPA in alphabet or DOLLAR in alphabet:
        raise QfaParseError('input alphabet must not contain the endmarkers "^" or "$"')
    if not _is_int(obj["start"]):
        raise QfaParseError("start must be a basis index")
    for key in ("acc", "rej"):
        if not isinstance(obj[key], list) or not all(_is_int(i) for i in obj[key]):
            raise QfaParseError(f"{key} must be a list of basis indices")

    unitaries = {}
    raw = obj["unitaries"]
    if not isinstance(raw, dict):
        raise QfaParseError("unitaries must be an object")
    for sym, entries in raw.items():
        if not isinstance(entries, list) or len(entries) != dim * dim:
            raise QfaParseError(f"matrix for {sym!r} must have {dim * dim} entries")
        try:
            flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):
            raise QfaParseError(f"matrix entries for {sym!r} must be [re, im] pairs of numbers") from None
        if not np.isfinite(flat).all():
            raise QfaParseError(f"matrix entries for {sym!r} must be finite")
        unitaries[sym] = flat.reshape(dim, dim)
    try:
        return Qfa(
            dimension=dim,
            alphabet=tuple(alphabet),
            unitaries=unitaries,
            start=obj["start"],
            acc=frozenset(obj["acc"]),
            rej=frozenset(obj["rej"]),
        )
    except (TypeError, ValueError) as exc:
        raise QfaParseError(str(exc)) from None
