"""Forbidden-fragment detection in minimal DFAs and the recognizability verdict.

A fragment is a pattern of states and words in the minimal automaton whose
presence rules out recognition by a measure-many 1-way QFA (or, for the
two-cycles pattern, moves the language outside the class on which the
fragment conditions are an exact characterization).  Detectors quantify
over transition-monoid elements instead of raw words, which turns the
unbounded word quantifiers into finite exact searches; witness words are
the elements' shortest witness words.  Every pattern is built from pumps
q -x-> t with x fixing t, and each detector reads them in two stages.
First the exact relations `Dfa._pump_targets` (which pairs some word
pumps) and `Dfa._separable` (which ordered pairs some suffix separates),
both labellings of one closure over the square product,
`automata.pair_reach`, leave the pairs (q, t) the pattern could use; when
none is left, no element is read.  Then one early-exit scan of the elements,
`_pump_scan`, yields the pumps of those pairs in element order.  The order
violation closes one pump back to q1 and two-cycles chains two; their
conditions on (q1, q2) do not depend on x, so each takes the first pump the
scan yields.  The fork takes two pumps of one state into targets separable
both ways, and its scan lists every pump of the pairs left.  The two-level
fork is not searched for: `parse_witness` reads a witness of any kind and
`verify_witness` replays it.

Witness kinds:

  partial-order-violation   q1 -x-> q2, x fixes q2, and q2 can reach q1 back
  two-cycles                chained pumping q1 -x-> q2 -y-> q3 with x, y
                            fixing q2, q3 respectively
  fork                      one state pumped by x and y into two jointly
                            recurrent states whose futures are incomparable
  two-level-fork            three branches, each splitting into two of three
                            second-stage cycles, with a 3-accept/3-reject
                            suffix assignment; verification only

A sound check of the general k-level form needs the paper's exact statement,
so that form is not a witness kind.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import merge
from itertools import islice, repeat
from typing import Mapping, Sequence

from qfalab.automata import (
    DEFAULT_MONOID_CAP,
    Dfa,
    Monoid,
    ParseError,
    load_json,
    minimize,
    recurrent_states,
    separating_word,
    shortest_word_between,
    transition_monoid,
)

ORDER_VIOLATION = "partial-order-violation"
TWO_CYCLES = "two-cycles"
FORK = "fork"
TWO_LEVEL_FORK = "two-level-fork"

WITNESS_KINDS = (ORDER_VIOLATION, TWO_CYCLES, FORK, TWO_LEVEL_FORK)

NOT_RECOGNIZABLE = "not-recognizable"
CONSTRUCTIBLE = "constructible"
OUTSIDE_CHARACTERIZED_CLASS = "outside-characterized-class"
INCONCLUSIVE = "inconclusive"

# two-level-fork shape: its words, the defined (branch, stage) pairs and the
# suffix outcome table (suffix index, branch, stage, accepting?)
_FORK2_WORDS = ("u1", "u2", "u3", "v1", "v2", "v3", "s1", "s2", "s3")
_FORK2_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3))
_FORK2_OUTCOMES = (
    ("s1", 1, 1, True),
    ("s2", 2, 3, True),
    ("s3", 3, 2, True),
    ("s2", 1, 2, False),
    ("s3", 2, 1, False),
    ("s1", 3, 3, False),
)


class WitnessParseError(ParseError):
    """Raised when a witness file is malformed."""


@dataclass(frozen=True, slots=True)
class FragmentWitness:
    """States and words instantiating one forbidden construction."""

    kind: str
    states: Mapping[str, str] = field(default_factory=dict)
    words: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")


@dataclass(frozen=True)
class ConditionCheck:
    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    conditions: tuple[ConditionCheck, ...]
    passed: bool


def witness_to_dict(witness: FragmentWitness) -> dict:
    """The witness as plain JSON data; empty bindings are left out."""
    obj: dict = {"kind": witness.kind}
    if witness.states:
        obj["states"] = dict(witness.states)
    if witness.words:
        obj["words"] = dict(witness.words)
    return obj


def witness_to_json(witness: FragmentWitness) -> str:
    return json.dumps({"witness": witness_to_dict(witness)}, indent=2, sort_keys=True) + "\n"


def _string_map(value, what: str) -> dict[str, str]:
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise WitnessParseError(f"{what} must be an object of strings")
    return dict(value)


def parse_witness(text: str) -> FragmentWitness:
    """Read the `witness_to_json` format; every malformed input raises WitnessParseError.

    Keys other than the witness bindings (a `"verification"` report, say)
    are ignored.
    """
    obj = load_json(text, WitnessParseError)
    body = obj.get("witness") if isinstance(obj, dict) else None
    if not isinstance(body, dict) or not isinstance(body.get("kind"), str):
        raise WitnessParseError('expected an object with a "witness" object naming its "kind"')
    if body["kind"] not in WITNESS_KINDS:
        raise WitnessParseError(f"unknown witness kind {body['kind']!r}")
    return FragmentWitness(
        kind=body["kind"],
        states=_string_map(body.get("states", {}), "witness states"),
        words=_string_map(body.get("words", {}), "witness words"),
    )


# ---------------------------------------------------------------------------
# detectors

def _pump_scan(monoid: Monoid, wanted: dict[int, set[int]]):
    """Yield (element index, q1, q2) for each element f_i, i >= 1, and each q1
    of `wanted` with q2 = f_i(q1) in wanted[q1] and f_i(q2) = q2, in (index,
    q1) order, for as long as the caller reads.

    `wanted` lists q1 ascending; a caller may shrink its sets between
    yields, and the rest of the scan sees the change.
    """
    rows = list(wanted.items())
    for index, f in enumerate(islice(monoid.mappings, 1, None), 1):
        for q1, good in rows:
            q2 = f[q1]
            if q2 in good and f[q2] == q2:
                yield index, q1, q2


def _wanted(dfa: Dfa, condition) -> dict[int, set[int]]:
    """The pump targets t of each state q meeting condition(q, t); empty rows left out."""
    rows = ({t for t in ts if condition(q, t)} for q, ts in enumerate(dfa._pump_targets))
    return {q: good for q, good in enumerate(rows) if good}


def detect_order_violation(dfa: Dfa, monoid: Monoid) -> FragmentWitness | None:
    """Element f and states q1 != q2 with f(q1) = q2 = f(q2) and q2 ~> q1.

    f already takes q1 to q2, so q2 reaches q1 back exactly when both lie in
    one SCC of the DFA's one labelling, `Dfa._scc`.  When no pair of `Dfa._pump_targets` meets that, no element is
    read; otherwise the witness is the first (element index, q1) of the
    scan.  Absence is meaningful only when the monoid is complete.
    """
    scc = dfa._scc
    wanted = _wanted(dfa, lambda q1, q2: scc[q1] == scc[q2])
    hit = next(_pump_scan(monoid, wanted), None) if wanted else None
    if hit is None:
        return None
    index, q1, q2 = hit
    y = shortest_word_between(dfa, dfa.states[q2], [dfa.states[q1]])
    return FragmentWitness(
        kind=ORDER_VIOLATION,
        states={"q1": dfa.states[q1], "q2": dfa.states[q2]},
        words={"x": monoid.word(index), "y": y},
    )


def detect_two_cycles(dfa: Dfa, monoid: Monoid) -> FragmentWitness | None:
    """Chained pumping: f(q1) = q2 = f(q2), g(q2) = q3 = g(q3), all distinct.

    Pairwise distinctness matters: with q3 = q1 the pattern degenerates to a
    partial-order violation, which carries a different (stronger) verdict.
    When no pair of `Dfa._pump_targets` chains on to a third state, no
    element is read.  Otherwise f is the first (element index, q1) of the
    scan whose q2 pumps on to a third state, and g the first such onward
    pump.  On a capped monoid the onward pump that the targets promise may
    lie past the cap, so a second scan, of q2's targets other than q1,
    confirms it; when it finds none, (q1, q2) leaves the first scan.
    """
    targets = dfa._pump_targets
    wanted = _wanted(dfa, lambda q1, q2: bool(targets[q2] - {q1}))
    if not wanted:
        return None
    for index, q1, q2 in _pump_scan(monoid, wanted):
        g = next(_pump_scan(monoid, {q2: targets[q2] - {q1}}), None)
        if g is None:  # no onward pump of q2 to a third state lies within the cap
            wanted[q1].discard(q2)
            continue
        gi, _, q3 = g
        return FragmentWitness(
            kind=TWO_CYCLES,
            states={"q1": dfa.states[q1], "q2": dfa.states[q2], "q3": dfa.states[q3]},
            words={"x": monoid.word(index), "y": monoid.word(gi)},
        )
    return None


def detect_fork(dfa: Dfa, monoid: Monoid) -> FragmentWitness | None:
    """Two elements pumping one state into jointly recurrent, incomparable states.

    Conditions on (f, g, q1): q2 = f(q1) fixed by f, q3 = g(q1) fixed by g,
    q2 != q3; every state reachable from q2 (resp. q3) in the two-edge graph
    {f, g} can return to it; and suffixes z1, z2 separate (q2, q3) both ways.
    Both targets lie in q1's set T: `Dfa._pump_targets[q1]`, exact over all
    words, with q1 itself when q1 lies on a cycle (a word fixing q1 is
    nonempty); and the exact `Dfa._separable` separates them both ways.  So
    q1's row keeps only the states of T separable both ways from another
    state of T, and when no row is left no element is read.  Otherwise one
    scan lists, per q1 and t of its row, the ascending indices of the
    elements pumping q1 into t.  For each f, the g's listed for (q1, q3),
    over f's fixed-point pairs (q1, q2) and q2's separable partners q3, are
    visited in (g, q1) order, so the witness is the least (f, g, q1), the
    one a scan of all pairs would find.
    """
    sep = dfa._separable
    partners: dict[int, list[int]] = {}
    for s, t in sep:
        if (t, s) in sep:
            partners.setdefault(s, []).append(t)
    scc, table, rows = dfa._scc, dfa._table, {}
    for q1, ts in enumerate(dfa._pump_targets):
        if any(scc[t] == scc[q1] for t in table[q1]):  # q1 lies on a cycle: some f fixes it
            ts = ts | {q1}
        if good := {s for s in ts if s in partners and not ts.isdisjoint(partners[s])}:
            rows[q1] = good
    if not rows:
        return None
    pumps = [defaultdict(list) for _ in table]  # pumps[q1][t]: element indices, ascending
    for index, q1, t in _pump_scan(monoid, rows):
        pumps[q1][t].append(index)
    mappings = monoid.mappings
    for fi in range(1, len(mappings)):
        f = mappings[fi]
        runs = [
            zip(pumps[q1][q3], repeat(q1), repeat(q3))
            for q1, q2 in enumerate(f) if f[q2] == q2
            for q3 in partners.get(q2, ()) if q3 in pumps[q1]
        ]
        rec_gi, rec = 0, set()
        for gi, q1, q3 in merge(*runs):
            if gi != rec_gi:  # recurrent states under {f, g}, once per pair
                rec, rec_gi = recurrent_states(zip(f, mappings[gi])), gi
            q2 = f[q1]
            if q2 not in rec or q3 not in rec:
                continue
            return FragmentWitness(
                kind=FORK,
                states={"q1": dfa.states[q1], "q2": dfa.states[q2], "q3": dfa.states[q3]},
                words={
                    "x": monoid.word(fi),
                    "y": monoid.word(gi),
                    "z1": separating_word(dfa, dfa.states[q2], dfa, dfa.states[q3]),
                    "z2": separating_word(dfa, dfa.states[q3], dfa, dfa.states[q2]),
                },
            )
    return None


# ---------------------------------------------------------------------------
# verification

def _bind(dfa: Dfa, w: FragmentWitness, state_names: Sequence[str], word_names: Sequence[str]):
    """The witness's named states as indices and its named words as maps on
    state indices; a missing binding or an unknown state raises ValueError."""
    missing = [k for k in state_names if k not in w.states]
    missing += [k for k in word_names if k not in w.words]
    if missing:
        raise ValueError(f"witness is missing bindings: {missing}")
    try:
        states = [dfa._index[w.states[k]] for k in state_names]
    except KeyError as exc:
        raise ValueError(f"witness references unknown state {exc.args[0]!r}") from None
    return states, [_word_mapping(dfa, w.words[k]) for k in word_names]


def _word_mapping(dfa: Dfa, word: str) -> list[int]:
    """delta_word as a function on state indices."""
    sym, table = dfa._symbols, dfa._table
    out = []
    for i in range(len(dfa.states)):
        j = i
        for ch in word:
            if ch not in sym:
                raise ValueError(f"word {word!r} uses symbol {ch!r} outside the alphabet")
            j = table[j][sym[ch]]
        out.append(j)
    return out


def _order_violation(dfa: Dfa, q1, q2, mx, my) -> tuple[ConditionCheck, ...]:
    return (
        ConditionCheck("1: q1 != q2", q1 != q2),
        ConditionCheck("2: x sends q1 to q2", mx[q1] == q2),
        ConditionCheck("3: x fixes q2", mx[q2] == q2),
        ConditionCheck("4: y sends q2 to q1", my[q2] == q1),
    )


def _two_cycles(dfa: Dfa, q1, q2, q3, mx, my) -> tuple[ConditionCheck, ...]:
    return (
        ConditionCheck("1: q1 != q2", q1 != q2),
        ConditionCheck("2: q2 != q3", q2 != q3),
        ConditionCheck("3: q1 != q3", q1 != q3),
        ConditionCheck("4: x sends q1 to q2", mx[q1] == q2),
        ConditionCheck("5: x fixes q2", mx[q2] == q2),
        ConditionCheck("6: y sends q2 to q3", my[q2] == q3),
        ConditionCheck("7: y fixes q3", my[q3] == q3),
    )


def _fork(dfa: Dfa, q1, q2, q3, mx, my, mz1, mz2) -> tuple[ConditionCheck, ...]:
    acc = dfa._accepting_indices
    rec = recurrent_states(zip(mx, my))
    return (
        ConditionCheck("1: q2 != q3", q2 != q3),
        ConditionCheck("2: x sends q1 to q2", mx[q1] == q2),
        ConditionCheck("3: x fixes q2", mx[q2] == q2),
        ConditionCheck("4: y sends q1 to q3", my[q1] == q3),
        ConditionCheck("5: y fixes q3", my[q3] == q3),
        ConditionCheck("6: q2 recurrent under {x, y}", q2 in rec),
        ConditionCheck("7: q3 recurrent under {x, y}", q3 in rec),
        ConditionCheck("8: z1 accepts from q2", mz1[q2] in acc),
        ConditionCheck("9: z2 rejects from q2", mz2[q2] not in acc),
        ConditionCheck("10: z1 rejects from q3", mz1[q3] not in acc),
        ConditionCheck("11: z2 accepts from q3", mz2[q3] in acc),
    )


def _two_level_fork(dfa: Dfa, q0, *words) -> tuple[ConditionCheck, ...]:
    maps = dict(zip(_FORK2_WORDS, words))
    acc = dfa._accepting_indices

    branch = {k: maps[f"u{k}"][q0] for k in (1, 2, 3)}
    c1 = ConditionCheck("1: branch words leave q0 at their branch states", True,
                        detail=", ".join(f"u{k} -> {dfa.states[branch[k]]}" for k in (1, 2, 3)))
    bad2 = [k for k in (1, 2, 3) if maps[f"u{k}"][branch[k]] != branch[k]]
    c2 = ConditionCheck("2: each branch word fixes its branch state", not bad2,
                        detail=f"violated for u{bad2}" if bad2 else "")
    rec1 = recurrent_states(zip(*(maps[f"u{k}"] for k in (1, 2, 3))))
    bad3 = [k for k in (1, 2, 3) if branch[k] not in rec1]
    c3 = ConditionCheck("3: branch states recurrent under the branch words", not bad3,
                        detail=f"violated for branch {bad3}" if bad3 else "")

    stage = {(k, m): maps[f"v{m}"][branch[k]] for (k, m) in _FORK2_PAIRS}
    c4 = ConditionCheck("4: stage words move branch states to stage states", True,
                        detail=", ".join(f"(u{k},v{m}) -> {dfa.states[s]}" for (k, m), s in stage.items()))
    bad5 = [(k, m) for (k, m) in _FORK2_PAIRS if maps[f"v{m}"][stage[(k, m)]] != stage[(k, m)]]
    c5 = ConditionCheck("5: each stage word fixes its stage state", not bad5,
                        detail=f"violated for {bad5}" if bad5 else "")
    rec2 = recurrent_states(zip(*(maps[f"v{m}"] for m in (1, 2, 3))))
    bad6 = sorted({(k, m) for (k, m) in _FORK2_PAIRS if stage[(k, m)] not in rec2})
    c6 = ConditionCheck("6: stage states recurrent under the stage words", not bad6,
                        detail=f"violated for {bad6}" if bad6 else "")

    bad7 = []
    for sname, k, m, should_accept in _FORK2_OUTCOMES:
        target = maps[sname][stage[(k, m)]]
        if (target in acc) != should_accept:
            bad7.append(f"{sname} from (u{k},v{m}) -> {dfa.states[target]}")
    c7 = ConditionCheck("7: suffix outcomes (three accept, three reject)", not bad7,
                        detail="; ".join(bad7))

    return (c1, c2, c3, c4, c5, c6, c7)


# per kind: the state and word bindings, in the order its conditions take them
_VERIFIERS = {
    ORDER_VIOLATION: (("q1", "q2"), ("x", "y"), _order_violation),
    TWO_CYCLES: (("q1", "q2", "q3"), ("x", "y"), _two_cycles),
    FORK: (("q1", "q2", "q3"), ("x", "y", "z1", "z2"), _fork),
    TWO_LEVEL_FORK: (("q0",), _FORK2_WORDS, _two_level_fork),
}


def verify_witness(dfa: Dfa, witness: FragmentWitness) -> VerificationReport:
    """Replay every condition of the witness kind literally against the DFA.

    State equations are checked by word replay, recurrence conditions by
    the closed SCCs of the words' graph, and outcome conditions by
    membership of the reached state in the accepting set.
    """
    state_names, word_names, conditions = _VERIFIERS[witness.kind]
    states, maps = _bind(dfa, witness, state_names, word_names)
    checks = conditions(dfa, *states, *maps)
    return VerificationReport(witness.kind, checks, all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class Verdict:
    """Outcome of the recognizability decision for one DFA."""

    classification: str
    minimal_dfa: Dfa
    monoid_complete: bool
    monoid_size: int
    witness: FragmentWitness | None = None
    plan: "object | None" = None  # SynthesisPlan for CONSTRUCTIBLE verdicts
    reason: str | None = None


def classify(dfa: Dfa, monoid_cap: int = DEFAULT_MONOID_CAP) -> Verdict:
    """Decide QFA-recognizability of the DFA's language.

    Minimizes internally.  Chained cycles put the language outside the class
    where the fragment conditions characterize recognizability; otherwise a
    verified fragment witness proves non-recognizability, and absence of
    fragments over a complete monoid yields a synthesis plan.  An incomplete
    monoid with no fragment found is reported as inconclusive, never guessed.
    """
    minimal = minimize(dfa)
    monoid = transition_monoid(minimal, monoid_cap)

    def verdict(classification: str, **found) -> Verdict:
        return Verdict(classification, minimal, monoid.complete, len(monoid), **found)

    witness = detect_two_cycles(minimal, monoid)
    if witness is not None:
        return verdict(OUTSIDE_CHARACTERIZED_CLASS, witness=witness)
    witness = detect_order_violation(minimal, monoid) or detect_fork(minimal, monoid)
    if witness is not None:
        return verdict(NOT_RECOGNIZABLE, witness=witness)
    if not monoid.complete:
        return verdict(
            INCONCLUSIVE,
            reason=f"monoid enumeration hit the cap ({monoid_cap}); no fragment found so far",
        )
    from qfalab.synthesis import plan as _plan

    return verdict(CONSTRUCTIBLE, plan=_plan(minimal))
