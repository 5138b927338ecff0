"""Workload `classify-random`: seeded random complete DFAs through `classify`.

One op is one DFA verdict: parse the DFA text, `classify` it and replay its
witness with `verify_witness`, which is the work `qfalab classify` does.
The time goes to `automata` (minimization, monoid enumeration) and
`fragments` (the detectors); `qfa` is never called.

The mix is fixed per cycle of 109 DFAs, so every seed sees the same strata
in the same proportions and runs of different seeds stay comparable:

* 96 small uniform DFAs (4-8 states over {a,b}, 4-6 over {a,b,c}, twelve
  of each): small monoids, mostly under 20 ms each.  They are seven in
  eight ops, so the median falls inside their bulk (about 1 ms) and rests
  on about 2 000 of them per run.  With two of each it sat at their sparse
  upper edge and moved by about 15% from seed to seed.
* 2 borderline uniform DFAs (9 states over {a,b}, 7 over {a,b,c}).
* 7 large uniform DFAs (10-14 states over {a,b}, 8-9 over {a,b,c}): many
  hit the 20 000 monoid cap, where `transition_monoid` and
  `detect_two_cycles` cost about 0.1-0.3 s each.  They hold the tail.
* 4 permutation DFAs (5-6 states over {a,b} and {a,b,c}): complete group
  monoids make `detect_fork` run to completion.  Seven states are left
  out: one S7 monoid costs seconds and would dominate a run by itself.

`detect_fork` is quadratic in the monoid size.  With a complete monoid it
is reached only when every letter permutes every closed component of the
minimal DFA (otherwise an order violation exists).  A uniform DFA with that property and more than
FORK_SEARCH_STATES minimal states is redrawn: one such 14-state DFA (6064
monoid elements, constructible) took 16.7 s, and larger ones could outlast
a run.  The fork search to completion stays covered, at bounded size, by
the permutation slots.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from qfalab.automata import DEFAULT_MONOID_CAP, closed_sccs, minimize, parse_dfa, transition_monoid
from qfalab.fragments import (
    CONSTRUCTIBLE,
    INCONCLUSIVE,
    NOT_RECOGNIZABLE,
    OUTSIDE_CHARACTERIZED_CLASS,
    classify,
    detect_fork,
    detect_order_violation,
    detect_two_cycles,
    verify_witness,
)
from qfalab.synthesis import plan

from harness import Outcome
from tracing import Span

NAME = "classify-random"

AB, ABC = ("a", "b"), ("a", "b", "c")

SMALL_COPIES = 12  # slots per small size; puts the median well inside the fast cluster
# (alphabet, states, every letter a permutation) for one cycle of the mix
SLOTS = (
    *[(AB, n, False) for n in range(4, 9) for _ in range(SMALL_COPIES)],
    *[(ABC, n, False) for n in range(4, 7) for _ in range(SMALL_COPIES)],
    (AB, 9, False),
    (ABC, 7, False),
    *[(AB, n, False) for n in range(10, 15)],
    (ABC, 8, False),
    (ABC, 9, False),
    (AB, 5, True),
    (AB, 6, True),
    (ABC, 5, True),
    (ABC, 6, True),
)
CYCLE = len(SLOTS)
FORK_SEARCH_STATES = 6  # largest minimal DFA that may reach detect_fork
POOL_CYCLES = 30  # a 40 s run gets through about 23; the loop wraps around the pool if it gets through it
TRACED_STEPS = 3 * CYCLE

# classify's short-circuit order: the first detector to return a witness
# decides the verdict.  The stage replay follows the same order.
DETECTORS = (
    (detect_two_cycles, OUTSIDE_CHARACTERIZED_CLASS),
    (detect_order_violation, NOT_RECOGNIZABLE),
    (detect_fork, NOT_RECOGNIZABLE),
)
VERDICTS = (NOT_RECOGNIZABLE, CONSTRUCTIBLE, OUTSIDE_CHARACTERIZED_CLASS, INCONCLUSIVE)


@dataclass(frozen=True)
class Inputs:
    texts: tuple[str, ...]


def random_dfa_text(rng: random.Random, alphabet: tuple[str, ...], n: int, permutation: bool) -> str:
    states = [f"q{i}" for i in range(n)]
    images = {}
    for a in alphabet:
        if permutation:
            image = list(range(n))
            rng.shuffle(image)
        else:
            image = [rng.randrange(n) for _ in range(n)]
        images[a] = image
    delta = {q: {a: states[images[a][i]] for a in alphabet} for i, q in enumerate(states)}
    accept = [q for q in states if rng.random() < 0.5]
    return json.dumps(
        {"alphabet": list(alphabet), "states": states, "start": states[0], "accept": accept, "delta": delta}
    )


def reaches_large_fork_search(text: str) -> bool:
    """True when classify may run detect_fork on a minimal DFA above FORK_SEARCH_STATES."""
    minimal = minimize(parse_dfa(text)[0])
    if len(minimal.states) <= FORK_SEARCH_STATES:
        return False
    return all(
        {minimal.transitions[(q, a)] for q in comp} == comp for comp in closed_sccs(minimal) for a in minimal.alphabet
    )


def build(seed: int, rec) -> Inputs:
    rng = random.Random(seed)
    texts = []
    for _ in range(POOL_CYCLES):
        slots = list(SLOTS)
        rng.shuffle(slots)
        for alphabet, n, permutation in slots:
            text = random_dfa_text(rng, alphabet, n, permutation)
            while not permutation and reaches_large_fork_search(text):
                text = random_dfa_text(rng, alphabet, n, permutation)
            texts.append(text)
    return Inputs(tuple(texts))


def check(classification, minimal, witness, syn_plan) -> bool:
    """Soundness of one verdict, independent of which detector won."""
    if witness is not None:
        return (
            classification in (OUTSIDE_CHARACTERIZED_CLASS, NOT_RECOGNIZABLE)
            and verify_witness(minimal, witness).passed
        )
    if classification == CONSTRUCTIBLE:
        n = len(closed_sccs(minimal))
        return syn_plan is not None and syn_plan.success_probability == Fraction(n + 1, 2 * n + 1)
    return classification == INCONCLUSIVE and syn_plan is None


def step(inputs: Inputs, i: int) -> Outcome:
    dfa, _ = parse_dfa(inputs.texts[i % len(inputs.texts)])
    verdict = classify(dfa)
    ok = check(verdict.classification, verdict.minimal_dfa, verdict.witness, verdict.plan)
    summary = (
        verdict.classification,
        verdict.witness,
        verdict.plan,
        verdict.monoid_size,
        verdict.monoid_complete,
    )
    return Outcome(1, 0 if ok else 1, int(verdict.classification != INCONCLUSIVE), summary)


def traced_step(inputs: Inputs, i: int, rec, reference) -> Outcome:
    """Stage replay of `classify`, one span per stage, checked against `reference`."""
    with rec.span(f"{NAME}.op") as top:
        with rec.span("automata.parse_dfa"):
            dfa, _ = parse_dfa(inputs.texts[i % len(inputs.texts)])
        with rec.span("automata.minimize"):
            minimal = minimize(dfa)
        with rec.span("automata.transition_monoid") as s:
            monoid = transition_monoid(minimal, DEFAULT_MONOID_CAP)
            s.counters.update(elements=len(monoid), capped=int(not monoid.complete))
        witness = syn_plan = None
        for detector, verdict in DETECTORS:
            with rec.span(f"fragments.{detector.__name__}") as s:
                witness = detector(minimal, monoid)
                s.counters["hit"] = int(witness is not None)
            if witness is not None:
                classification = verdict
                break
        else:
            if monoid.complete:
                with rec.span("synthesis.plan"):
                    syn_plan = plan(minimal)
                classification = CONSTRUCTIBLE
            else:
                classification = INCONCLUSIVE
        top.counters["verdict"] = classification
        if witness is not None:
            with rec.span("fragments.verify_witness"):
                ok = verify_witness(minimal, witness).passed
        else:
            ok = check(classification, minimal, witness, syn_plan)
    replayed = (classification, witness, syn_plan, len(monoid), monoid.complete)
    if replayed != reference:
        print(f"classify-random: stage replay of DFA {i} differs from classify", file=sys.stderr)
    ok = ok and replayed == reference
    return Outcome(1, 0 if ok else 1, int(classification != INCONCLUSIVE))


def layer_metrics(rec, busy: dict[str, float]) -> dict[str, tuple[float, str]]:
    monoids = rec.named("automata.transition_monoid")
    detector_spans = [s for d, _ in DETECTORS for s in rec.named(f"fragments.{d.__name__}")]
    verdicts = [s.counters["verdict"] for s in rec.named(f"{NAME}.op")]
    metrics = {
        f"automata.{stage}.busy_s": (busy.get(f"automata.{stage}", 0.0), "s")
        for stage in ("parse_dfa", "minimize", "transition_monoid")
    }
    metrics["automata.transition_monoid.elements"] = (_total(monoids, "elements"), "count")
    metrics["automata.transition_monoid.capped"] = (_total(monoids, "capped"), "count")
    for stage in (*(d.__name__ for d, _ in DETECTORS), "verify_witness"):
        metrics[f"fragments.{stage}.busy_s"] = (busy.get(f"fragments.{stage}", 0.0), "s")
    metrics["fragments.witness_hit_ratio"] = (_total(detector_spans, "hit") / len(detector_spans), "ratio")
    for verdict in VERDICTS:
        metrics[f"fragments.verdict.{verdict}"] = (verdicts.count(verdict), "count")
    return metrics


def _total(spans: list[Span], key: str) -> int:
    return sum(s.counters[key] for s in spans)
