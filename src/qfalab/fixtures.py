"""Canonical languages, automata and machines used by tests and the CLI.

The fixture family over {a, b} is built around one tail condition (an odd
number of a's after the first b, vacuous when there is no b) combined with
head conditions on the leading block of a's:

  odd_tail            any head, odd tail
  even_head_odd_tail  even head, odd tail
  odd_head_odd_tail   odd head, odd tail

odd_tail is exactly the union of the other two, which makes the trio the
standard demonstration that QFA-recognizability is not closed under union.

DFA fixtures are built from semantics (parity/phase trackers fed through
`minimize`), never transcribed from drawings, and the test suite checks each
one exhaustively against a hand-written membership predicate.  The oracle
`name`, the language an exhaustive check labels words with, is the DFA
fixture `name` itself: `verify_recognition` and `separability` label a
whole word length from one DFA-state frontier.  The QFA fixtures import
numpy and `qfa` when one is built, so listing fixtures and building DFA
fixtures load neither.
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, Callable

from qfalab.automata import Dfa, minimize

if TYPE_CHECKING:
    from qfalab.qfa import Qfa


# Membership table of the layered fixture: which final letters are accepted
# after a first-block letter x and a first-second-stage letter y.  Chosen so
# that all rows are pairwise comparable as sets, the three per-x squares are
# pairwise cellwise comparable, and the six outcome constraints of the
# two-level-fork fragment hold.
LAYERED_TABLE: dict[tuple[str, str], frozenset[str]] = {
    ("a", "d"): frozenset("g"),
    ("a", "e"): frozenset("g"),
    ("a", "f"): frozenset(),
    ("b", "d"): frozenset("g"),
    ("b", "e"): frozenset("ghi"),
    ("b", "f"): frozenset("gh"),
    ("c", "d"): frozenset("g"),
    ("c", "e"): frozenset("ghi"),
    ("c", "f"): frozenset(),
}


def _tracker_dfa(accept: Callable[[str, int, int], bool]) -> Dfa:
    """8-state phase/parity tracker over {a, b}.

    States are (phase, head parity, tail parity); `accept` decides membership
    from those coordinates.  Minimization collapses the unused parities.
    """
    states = [f"{p}{h}{t}" for p in "01" for h in "01" for t in "01"]
    transitions = {}
    for p in "01":
        for h in "01":
            for t in "01":
                s = f"{p}{h}{t}"
                if p == "0":
                    transitions[(s, "a")] = f"0{1 - int(h)}{t}"
                    transitions[(s, "b")] = f"1{h}{t}"
                else:
                    transitions[(s, "a")] = f"1{h}{1 - int(t)}"
                    transitions[(s, "b")] = s
    accepting = frozenset(s for s in states if accept(s[0], int(s[1]), int(s[2])))
    return Dfa(tuple(states), ("a", "b"), "000", accepting, transitions)


def _odd_tail_dfa() -> Dfa:
    return _tracker_dfa(lambda p, h, t: t == 1 if p == "1" else True)


def _even_head_odd_tail_dfa() -> Dfa:
    return _tracker_dfa(lambda p, h, t: h == 0 and (t == 1 if p == "1" else True))


def _odd_head_odd_tail_dfa() -> Dfa:
    return _tracker_dfa(lambda p, h, t: h == 1 and (t == 1 if p == "1" else True))


def _layered_dfa() -> Dfa:
    letters = tuple("abcdefghi")
    rows = sorted({r for r in LAYERED_TABLE.values()}, key=sorted)
    row_name = {r: "row_" + ("".join(sorted(r)) or "none") for r in rows}
    states = ["begin", "blk_a", "blk_b", "blk_c", *row_name.values(), "hit", "dead"]
    transitions = {}

    def set_row(state, mapping):
        for sym in letters:
            transitions[(state, sym)] = mapping(sym)

    set_row("begin", lambda sym: f"blk_{sym}" if sym in "abc" else "dead")
    for x in "abc":
        set_row(
            f"blk_{x}",
            lambda sym, x=x: f"blk_{x}"
            if sym in "abc"
            else (row_name[LAYERED_TABLE[(x, sym)]] if sym in "def" else "dead"),
        )
    for r in rows:
        set_row(
            row_name[r],
            lambda sym, r=r: row_name[r]
            if sym in "def"
            else ("hit" if sym in r else "dead"),
        )
    set_row("hit", lambda sym: "dead")
    set_row("dead", lambda sym: "dead")
    return Dfa(tuple(dict.fromkeys(states)), letters, "begin", frozenset(["hit"]), transitions)


def _a_star_b_star_dfa() -> Dfa:
    transitions = {
        ("p", "a"): "p", ("p", "b"): "q",
        ("q", "a"): "x", ("q", "b"): "q",
        ("x", "a"): "x", ("x", "b"): "x",
    }
    return Dfa(("p", "q", "x"), ("a", "b"), "p", frozenset(["p", "q"]), transitions)


def _order_violation_demo_dfa() -> Dfa:
    # one letter pumps q1 into the q2-loop, the other returns
    transitions = {
        ("q1", "a"): "q2", ("q1", "b"): "q1",
        ("q2", "a"): "q2", ("q2", "b"): "q1",
    }
    return Dfa(("q1", "q2"), ("a", "b"), "q1", frozenset(["q2"]), transitions)


_DFA_BUILDERS = {
    "odd_tail": _odd_tail_dfa,
    "even_head_odd_tail": _even_head_odd_tail_dfa,
    "odd_head_odd_tail": _odd_head_odd_tail_dfa,
    "layered": _layered_dfa,
    "a_star_b_star": _a_star_b_star_dfa,
    "order_violation_demo": _order_violation_demo_dfa,
}


def dfa_fixture(name: str) -> Dfa:
    """Minimal DFA for a named fixture language."""
    try:
        builder = _DFA_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown DFA fixture {name!r}; known: {sorted(_DFA_BUILDERS)}") from None
    return minimize(builder())


def dfa_fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_DFA_BUILDERS))


_ORACLE_NAMES = ("even_head_odd_tail", "layered", "odd_head_odd_tail", "odd_tail")


@cache
def oracle(name: str) -> Dfa:
    """The language `name` as its DFA fixture, built once per process."""
    if name not in _ORACLE_NAMES:
        raise KeyError(f"unknown oracle {name!r}; known: {list(_ORACLE_NAMES)}")
    return dfa_fixture(name)


def oracle_names() -> tuple[str, ...]:
    return _ORACLE_NAMES


def _pair_qfa(start: int, repaired_kappa: bool) -> Qfa:
    """The 8-state machine recognizing even_head_odd_tail / odd_head_odd_tail.

    Indices 0..3 are non-halting, 4 and 7 accept, 5 and 6 reject.  All
    entries are built from square-root formulas so unitarity holds to
    machine precision.  With `repaired_kappa=False` the left-endmarker
    matrix keeps a deliberately inconsistent lower block (columns of norms
    sqrt(4/3) and sqrt(2/3)) and serves as the validator's negative fixture.
    """
    import numpy as np

    from qfalab.qfa import DOLLAR, KAPPA, Qfa, freeze

    s13 = math.sqrt(1.0 / 3.0)
    s23 = math.sqrt(2.0 / 3.0)
    s12 = math.sqrt(0.5)
    dim = 8

    kappa = np.zeros((dim, dim), dtype=np.complex128)
    kappa[0, 0], kappa[1, 0] = s23, s13
    kappa[0, 1], kappa[1, 1] = s13, -s23
    if repaired_kappa:
        kappa[2, 2], kappa[3, 2] = s23, -s13
        kappa[2, 3], kappa[3, 3] = s13, s23
    else:
        kappa[2, 2], kappa[3, 2] = -s23, s23
        kappa[2, 3], kappa[3, 3] = s13, s13
    for i in range(4, 8):
        kappa[i, i] = 1.0

    amat = np.zeros((dim, dim), dtype=np.complex128)
    for src, dst in ((0, 3), (1, 2), (2, 1), (3, 0)):
        amat[dst, src] = 1.0
    for i in range(4, 8):
        amat[i, i] = 1.0

    bmat = np.zeros((dim, dim), dtype=np.complex128)
    bmat[4, 0], bmat[5, 0] = s12, s12
    bmat[1, 1] = 1.0
    bmat[2, 2] = 1.0
    bmat[6, 3] = 1.0
    bmat[0, 4], bmat[4, 4], bmat[5, 4] = s12, 0.5, -0.5
    bmat[0, 5], bmat[4, 5], bmat[5, 5] = s12, -0.5, 0.5
    bmat[3, 6] = 1.0
    bmat[7, 7] = 1.0

    dollar = np.zeros((dim, dim), dtype=np.complex128)
    for src, dst in ((0, 4), (1, 5), (2, 7), (3, 6), (4, 0), (5, 1), (6, 3), (7, 2)):
        dollar[dst, src] = 1.0

    return freeze(
        Qfa(
            dimension=dim,
            alphabet=("a", "b"),
            unitaries={KAPPA: kappa, "a": amat, "b": bmat, DOLLAR: dollar},
            start=start,
            acc=frozenset([4, 7]),
            rej=frozenset([5, 6]),
        )
    )


_QFA_BUILDERS = {
    "even_head_odd_tail_qfa": lambda: _pair_qfa(start=0, repaired_kappa=True),
    "odd_head_odd_tail_qfa": lambda: _pair_qfa(start=3, repaired_kappa=True),
    "bad_left_marker_qfa": lambda: _pair_qfa(start=0, repaired_kappa=False),
}


def qfa_fixture(name: str) -> Qfa:
    try:
        builder = _QFA_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown QFA fixture {name!r}; known: {sorted(_QFA_BUILDERS)}") from None
    return builder()


def qfa_fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_QFA_BUILDERS))
