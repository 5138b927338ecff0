"""`minimize` against the frozenset refinement it replaced, and its scaling.

`reference_minimize` is the earlier `minimize`: for each splitter and letter
it scans every block of the partition, over frozensets, and takes each
class's representative by `min`.  The Hopcroft refinement on state indices
must return an equal `Dfa` with an equal `_table` on seeded random DFAs
(permutation DFAs among them) and on the `chain` and `cycle_with_reset`
families.  The scaling guard times `minimize` and `parse_dfa` at 1 000 and
3 000 states: a cost of O(n log n) keeps the ratio near 3.3, and the
block scans and list lookups they replaced read 7-11.  It times
`dfa_to_json` at 3 000 and 9 000 states, all but one of them accepting:
ordering the accepting states by `Dfa._index` keeps the ratio near 3, and
the `states.index` key it replaced read about 9.
"""

import gc
import random
import statistics
import sys
import time

import pytest

from conftest import chain, cycle_with_reset, seeded_dfa
from qfalab.automata import Dfa, bfs, dfa_to_json, letter_steps, minimize, parse_dfa

RANDOM_DFAS = 2_000
SCALING_RATIO = 5  # t(3n) / t(n); linear is 3, quadratic 9


def reference_minimize(dfa: Dfa) -> Dfa:
    reach = list(bfs([dfa._index[dfa.start]], letter_steps(dfa)))
    reach_set = set(reach)
    table = dfa._table
    acc = dfa._accepting_indices

    final = frozenset(i for i in reach if i in acc)
    nonfinal = frozenset(reach_set - final)
    partition = {b for b in (final, nonfinal) if b}
    worklist = {min((final, nonfinal), key=len)} if final and nonfinal else set(partition)
    nsym = len(dfa.alphabet)
    preimage: list[dict[int, list[int]]] = [dict() for _ in range(nsym)]
    for i in reach:
        for s in range(nsym):
            preimage[s].setdefault(table[i][s], []).append(i)

    while worklist:
        splitter = worklist.pop()
        for s in range(nsym):
            affected: set[int] = set()
            for t in splitter:
                affected.update(preimage[s].get(t, ()))
            if not affected:
                continue
            for block in [b for b in partition if affected & b and not b <= affected]:
                inside = frozenset(block & affected)
                outside = frozenset(block - affected)
                partition.remove(block)
                partition.add(inside)
                partition.add(outside)
                if block in worklist:
                    worklist.remove(block)
                    worklist.add(inside)
                    worklist.add(outside)
                else:
                    worklist.add(min(inside, outside, key=len))

    block_of = {i: b for b in partition for i in b}

    def quotient_steps(block):
        return zip(dfa.alphabet, (block_of[j] for j in table[min(block)]))

    order = list(bfs([block_of[dfa._index[dfa.start]]], quotient_steps))
    number = {b: k for k, b in enumerate(order)}

    names = [sys.intern(f"s{k}") for k in range(len(order))]
    transitions = {}
    for k, b in enumerate(order):
        for a, t in quotient_steps(b):
            transitions[(names[k], a)] = names[number[t]]
    accepting = frozenset(names[k] for k, b in enumerate(order) if min(b) in acc)
    return Dfa(
        states=tuple(names),
        alphabet=dfa.alphabet,
        start=names[0],
        accepting=accepting,
        transitions=transitions,
    )


def assert_same_minimization(dfa: Dfa) -> None:
    got, want = minimize(dfa), reference_minimize(dfa)
    assert got == want
    assert got._table == want._table


def test_random_dfas_match_the_reference():
    rng = random.Random(21)
    for _ in range(RANDOM_DFAS):
        assert_same_minimization(seeded_dfa(rng, 1, 40))


@pytest.mark.parametrize("family", [chain, cycle_with_reset])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 257, 1000])
def test_families_match_the_reference(family, n):
    assert_same_minimization(family(n))


def cpu_seconds_ratio(call, large, small, rounds: int = 7) -> float:
    """Median over `rounds` of the CPU time of call(large) over that of
    call(small), with the two calls of a round back to back and the
    collector paused.  A slow or fast stretch of the host then lands on both
    sides of a ratio, and no collection of the rest of the suite's heap
    lands in one call.  On a shared 2-CPU host the least time of three
    calls per side, taken apart, read ratios up to 5.1 for linear stages;
    this median read 2.9-3.4 over 120 samples."""
    ratios = []
    gc.disable()
    try:
        for _ in range(rounds):
            started = time.process_time()
            call(large)
            middle = time.process_time()
            call(small)
            ratios.append((middle - started) / (time.process_time() - middle))
    finally:
        gc.enable()
    return statistics.median(ratios)


def accepting_chain(n: int) -> Dfa:
    """`chain(n)` with every state but its end accepting."""
    return chain(n).complement()


STAGES = {  # stage -> (call, its argument from a DFA, the two sizes timed)
    "minimize": (minimize, lambda dfa: dfa, (1000, 3000)),
    "parse_dfa": (parse_dfa, dfa_to_json, (1000, 3000)),
    "dfa_to_json": (dfa_to_json, lambda dfa: dfa, (3000, 9000)),
}


@pytest.mark.parametrize(
    "stage, family",
    [(stage, family) for stage in ("minimize", "parse_dfa") for family in (chain, cycle_with_reset)]
    + [("dfa_to_json", accepting_chain)],
)
def test_cost_grows_near_linearly(stage, family):
    call, argument, (small, large) = STAGES[stage]
    ratio = cpu_seconds_ratio(call, argument(family(large)), argument(family(small)))
    assert ratio < SCALING_RATIO, ratio
