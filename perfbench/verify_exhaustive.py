"""Workload `verify-exhaustive`: exhaustive exact simulation of fixed machines.

One op is one (machine, word) simulation.  A step is one sweep: load a
machine from its JSON text, check unitarity, and `verify_recognition` it on
every word up to a fixed length (or, for the separability step, run two
machines on every word and compute the exact hull geometry).  The time goes
to `qfa.run` and its measurements plus the language oracles; there is no
fragment search.  A pass is the seven sweeps below, always in this order:

  pair_even    8-dim even_head_odd_tail_qfa, p = 2/3, words up to 10
  pair_odd     8-dim odd_head_odd_tail_qfa, p = 2/3, words up to 10
  separability even/odd pair machines against odd_tail, words up to 8
  seeded       compiled seeded constructible DFA over {a,b,c}, 5 minimal
               states (dimension 15), p = 2/3, words up to 5
  compiled_even  compiled even_head_odd_tail, dimension 15, p = 3/5, up to 9
  compiled_odd   compiled odd_head_odd_tail, dimension 15, p = 3/5, up to 9
  union        6/11 union of the two 3/4 mixtures, rebuilt each sweep, up to 9

Only the seeded machine depends on the seed.  Per word it costs about as
much as the pair machines, so the per-op median falls in that group of four
sweeps and the tail on the union sweep whatever the seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from qfalab.automata import Dfa, closed_sccs
from qfalab.combinators import MixtureSpec, mix, separability, union
from qfalab.fixtures import dfa_fixture, oracle, qfa_fixture
from qfalab.fragments import CONSTRUCTIBLE, classify
from qfalab.qfa import Qfa, all_words, parse_qfa, qfa_to_json, validate, verify_recognition
from qfalab.synthesis import plan, reversible_qfa, synthesize

from classify_random import AB, ABC
from harness import Outcome
from tracing import NULL

NAME = "verify-exhaustive"

MARGIN = 1e-9  # margins are exactly 0 at p, so each check runs at p - MARGIN
TOY_P = 0.75
UNION_P = 6 / 11
SEEDED_COMPONENT = 4
SEEDED_TRIES = 1000
SEPARABILITY, UNION = "separability", "union"  # the two steps that are not a Sweep
SEPARABILITY_LEN = 8
CYCLE = 7  # steps in one pass
TRACED_STEPS = 2 * CYCLE


@dataclass(frozen=True)
class Sweep:
    name: str
    text: str  # the machine as qfa_to_json wrote it
    p: float
    oracle: Callable[[str], bool]
    letters: tuple[str, ...]
    max_len: int
    fixture_oracle: bool
    claim_ok: bool = True  # the compiler's claimed p is (n+1)/(2n+1)


@dataclass(frozen=True)
class Inputs:
    order: tuple  # one pass: Sweep, SEPARABILITY or UNION
    pair: tuple[Qfa, Qfa]
    toys: tuple[Qfa, Qfa]  # 2-state parity machines inside the 3/4 mixtures


def word_count(letters: tuple[str, ...], max_len: int) -> int:
    return sum(len(letters) ** k for k in range(max_len + 1))


def _compiled_sweep(name: str, dfa: Dfa, oracle_fn, letters, max_len: int, fixture_oracle: bool, rec) -> Sweep:
    with rec.span("synthesis.plan"):
        plan(dfa)
    with rec.span("synthesis.synthesize") as s:
        qfa, p = synthesize(dfa)
        s.counters["dimension"] = qfa.dimension
    n = len(closed_sccs(dfa))
    claim_ok = p == Fraction(n + 1, 2 * n + 1)
    return Sweep(name, qfa_to_json(qfa), float(p), oracle_fn, letters, max_len, fixture_oracle, claim_ok)


def seeded_constructible(seed: int) -> Dfa:
    """Seeded constructible DFA over {a,b,c} with 5 minimal states.

    A transient start state sits in front of a random 4-state permutation
    component.  The start state moves like one component state and has the
    opposite acceptance, so its entry state is certified, it is never merged
    away, and no fragment can exist: the compiled machine has dimension 15
    and p = 2/3.  Draws whose component is not transitive or not minimal
    are skipped.
    """
    rng = random.Random(seed)
    component = [f"c{i}" for i in range(SEEDED_COMPONENT)]
    for _ in range(SEEDED_TRIES):
        perms = {a: rng.sample(range(SEEDED_COMPONENT), SEEDED_COMPONENT) for a in ABC}
        accepting = {q for q in component if rng.random() < 0.5}
        like = rng.randrange(SEEDED_COMPONENT)
        delta = {(q, a): component[perms[a][i]] for i, q in enumerate(component) for a in ABC}
        delta.update({("t", a): component[perms[a][like]] for a in ABC})
        if component[like] not in accepting:
            accepting.add("t")
        verdict = classify(Dfa(("t", *component), ABC, "t", frozenset(accepting), delta))
        if verdict.classification == CONSTRUCTIBLE and len(verdict.minimal_dfa.states) == SEEDED_COMPONENT + 1:
            return verdict.minimal_dfa
    raise RuntimeError(f"no constructible DFA in {SEEDED_TRIES} draws for seed {seed}")


def _two_state(flip: str) -> Dfa:
    """Parity of the letter `flip` over {a,b}, accepting even counts."""
    states = ("q0", "q1")
    delta = {}
    for i, q in enumerate(states):
        for a in AB:
            delta[(q, a)] = states[1 - i] if a == flip else q
    return Dfa(states, AB, "q0", frozenset(["q0"]), delta)


def _in_union(word: str) -> bool:
    return word.count("a") % 2 == 0 or word.count("b") % 2 == 0


def build(seed: int, rec) -> Inputs:
    pair = []
    for name in ("even_head_odd_tail", "odd_head_odd_tail"):
        text = qfa_to_json(qfa_fixture(f"{name}_qfa"))
        pair.append(Sweep(f"{name}_qfa", text, 2 / 3, oracle(name), AB, 10, True))
    minimal = seeded_constructible(seed)
    seeded = _compiled_sweep("seeded", minimal, minimal.accepts, ABC, 5, False, rec)
    compiled = [
        _compiled_sweep(f"compiled {name}", dfa_fixture(name), oracle(name), AB, 9, True, rec)
        for name in ("even_head_odd_tail", "odd_head_odd_tail")
    ]
    return Inputs(
        order=(*pair, SEPARABILITY, seeded, *compiled, UNION),
        pair=(qfa_fixture("even_head_odd_tail_qfa"), qfa_fixture("odd_head_odd_tail_qfa")),
        toys=parity_machines(),
    )


def _verify(name: str, qfa: Qfa, p: float, oracle_fn, letters, max_len: int, rec, precondition: bool) -> Outcome:
    """Sweep all words up to max_len at p - MARGIN; every op fails unless the
    sweep passes, covers every word and `precondition` holds."""
    with rec.span("qfa.verify_recognition") as s:
        report = verify_recognition(qfa, oracle_fn, p - MARGIN, max_len, alphabet=letters)
        s.counters["words"] = report.words_checked
    expected = word_count(letters, max_len)
    ok = precondition and report.passed and report.words_checked == expected
    if not ok:
        print(f"verify-exhaustive: {name} failed: {report}", file=sys.stderr)
    return Outcome(expected, 0 if ok else expected, 0 if report.residual_flagged else expected)


def _sweep(sweep: Sweep, rec) -> Outcome:
    with rec.span("qfa.parse_qfa"):
        qfa = parse_qfa(sweep.text, validate_tol=None)
    with rec.span("qfa.validate"):
        unitary = validate(qfa).passed
    precondition = unitary and sweep.claim_ok
    return _verify(sweep.name, qfa, sweep.p, sweep.oracle, sweep.letters, sweep.max_len, rec, precondition)


def parity_machines() -> tuple[Qfa, Qfa]:
    """Exact recognizers of 'even number of a's' and 'even number of b's'."""
    return reversible_qfa(_two_state("a")), reversible_qfa(_two_state("b"))


def mixtures(parts: tuple[Qfa, Qfa], rec) -> list[Qfa]:
    """The acceptance suite's 3/4 toys: each part at weight 1/2 plus 1/4 biases."""
    toys = []
    for part in parts:
        with rec.span("combinators.mix"):
            toys.append(mix(MixtureSpec(parts=((part, 0.5),), accept_bias=0.25, reject_bias=0.25)))
    return toys


def _union(inputs: Inputs, rec) -> Outcome:
    toys = mixtures(inputs.toys, rec)
    with rec.span("combinators.union"):
        machine, p = union(toys[0], TOY_P, toys[1], TOY_P)
    return _verify(UNION, machine, p, _in_union, AB, 9, rec, abs(p - UNION_P) <= 1e-12)


def _separability(inputs: Inputs, rec) -> Outcome:
    with rec.span("combinators.separability") as s:
        result = separability(*inputs.pair, oracle("odd_tail"), SEPARABILITY_LEN)
        s.counters["points"] = len(result.cloud)
    expected = word_count(AB, SEPARABILITY_LEN)
    # the pair's hulls touch (the paper's limit case), so a separating line exists
    ok = len(result.cloud) == expected and result.separable and result.margin >= 0
    if ok and result.line is not None:
        a, b, c = result.line
        ok = all(
            (a * pt.p1 + b * pt.p2 >= c - MARGIN) if pt.in_language else (a * pt.p1 + b * pt.p2 <= c + MARGIN)
            for pt in result.cloud
        )
    return Outcome(2 * expected, 0 if ok else 2 * expected, 2 * expected)


def _run(inputs: Inputs, i: int, rec) -> Outcome:
    item = inputs.order[i % CYCLE]
    if item == SEPARABILITY:
        return _separability(inputs, rec)
    if item == UNION:
        return _union(inputs, rec)
    return _sweep(item, rec)


def step(inputs: Inputs, i: int) -> Outcome:
    return _run(inputs, i, NULL)


def traced_step(inputs: Inputs, i: int, rec, reference) -> Outcome:
    with rec.span(f"{NAME}.op"):
        outcome = _run(inputs, i, rec)
    _time_oracle(inputs.order[i % CYCLE], rec)
    return outcome


def _time_oracle(item, rec) -> None:
    """Label the step's words with its fixture oracle, timed apart from the sweep."""
    if item == SEPARABILITY:
        label, letters, max_len = oracle("odd_tail"), AB, SEPARABILITY_LEN
    elif isinstance(item, Sweep) and item.fixture_oracle:
        label, letters, max_len = item.oracle, item.letters, item.max_len
    else:
        return
    words = list(all_words(letters, max_len))
    with rec.span("fixtures.oracle") as s:
        for w in words:
            label(w)
        s.counters["calls"] = len(words)


def layer_metrics(rec, busy: dict[str, float]) -> dict[str, tuple[float, str]]:
    compiled = rec.named("synthesis.synthesize")
    words = sum(s.counters["words"] for s in rec.named("qfa.verify_recognition"))
    metrics = {
        f"{layer}.busy_s": (busy.get(layer, 0.0), "s")
        for layer in (
            "synthesis.plan",
            "synthesis.synthesize",
            "qfa.parse_qfa",
            "qfa.validate",
            "qfa.verify_recognition",
            "fixtures.oracle",
            "combinators.separability",
            "combinators.union",
            "combinators.mix",
        )
    }
    metrics["synthesis.qfa_dimension"] = (sum(s.counters["dimension"] for s in compiled) / len(compiled), "count")
    metrics["qfa.words_checked"] = (words, "count")
    metrics["qfa.us_per_word"] = (1e6 * busy["qfa.verify_recognition"] / words, "us")
    metrics["fixtures.oracle.calls"] = (sum(s.counters["calls"] for s in rec.named("fixtures.oracle")), "count")
    metrics["combinators.cloud_points"] = (
        sum(s.counters["points"] for s in rec.named("combinators.separability")),
        "count",
    )
    return metrics
