"""The batched simulation engine `sweep` against the per-word reference path.

`sweep` must list the words of each length in `all_words` order and give
bitwise the accept and reject probabilities of `run(..., with_trace=True)`.
`verify_recognition` and `separability`, which consume it, must equal the
per-word loops kept here.  Blocks are shrunk so that short sweeps cross
block boundaries and outgrow the table of configurations; one sweep also
crosses the real `FRONTIER_BLOCK`.  Machines whose configurations repeat
(the pair fixtures, a union, compiled and embedded DFAs) run through the
table, and each of their configurations is read once per letter.  A
language given as a `Dfa` is labelled one length at a time from a frontier
of DFA states; those labels must be the DFA's own `accepts` on every word.
`verify_recognition` against a `Dfa` walks (configuration, DFA state)
pairs and builds no word; it must equal the per-word path that calls
`accepts` on each word, on machines that close and on machines that
outgrow the table; a walk that outgrows it reads every word over the table
it grew, and simulates no row twice.  Its cost follows the pairs, not the
length: a check up to 10**6 reads what one up to 40 does, and a check
with fewer than five failing words stops spelling once the pairs of a
length repeat.  `words_checked` is the number of words, in closed form.
An empty alphabet sweeps the empty word alone.
"""

import itertools
import json
import random
import time
import tracemalloc
import zlib
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dfas, make_dfa, random_qfa, seeded_dfa, three_quarter_machine
from qfalab import FRONTIER_BLOCK, RECOGNITION_TOL
from qfalab import qfa as qfa_module
from qfalab.automata import Dfa
from qfalab.combinators import CloudPoint, _max_margin_line, _snap, separability, union
from qfalab.fixtures import dfa_fixture, oracle, qfa_fixture
from qfalab.fragments import CONSTRUCTIBLE, classify
from qfalab.qfa import (
    DOLLAR,
    KAPPA,
    RecognitionReport,
    _apply,
    _measure,
    all_words,
    parse_qfa,
    qfa_to_json,
    run,
    sweep,
    verify_recognition,
    word_labels,
)
from qfalab.synthesis import reversible_qfa, synthesize

# longest words per alphabet size, so that a sweep stays near 100 words
MAX_LEN = {1: 12, 2: 6, 3: 4}


def reference_verify(qfa, oracle_fn, p, max_len, tol=RECOGNITION_TOL, alphabet=None):
    """`verify_recognition` as one `run` per word."""
    letters = tuple(alphabet) if alphabet is not None else qfa.alphabet
    worst_acc = float("inf")
    worst_rej = float("inf")
    counterexamples = []
    residual_seen = False
    count = 0
    for w in all_words(letters, max_len):
        outcome = run(qfa, w)
        count += 1
        residual_seen = residual_seen or outcome.residual_flagged
        if oracle_fn(w):
            margin = outcome.p_accept - p
            worst_acc = min(worst_acc, margin)
        else:
            margin = outcome.p_reject - p
            worst_rej = min(worst_rej, margin)
        if margin < -tol and len(counterexamples) < 5:
            counterexamples.append((w, margin + p))
    return RecognitionReport(
        passed=worst_acc >= -tol and worst_rej >= -tol,
        probability=p,
        tol=tol,
        max_len=max_len,
        words_checked=count,
        worst_accept_margin=worst_acc,
        worst_reject_margin=worst_rej,
        counterexamples=tuple(counterexamples),
        residual_flagged=residual_seen,
    )


def reference_separability(q1, q2, oracle_fn, max_len):
    """`separability` with one `run` per word and machine and one snap per point."""
    cloud, inside, outside = [], [], []
    for w in all_words(q1.alphabet, max_len):
        a1 = run(q1, w).p_accept
        a2 = run(q2, w).p_accept
        label = bool(oracle_fn(w))
        cloud.append(CloudPoint(w, a1, a2, label))
        (inside if label else outside).append((_snap(a1), _snap(a2)))
    return _max_margin_line(tuple(cloud), inside, outside)


def hashed_oracle(salt: int):
    """A fixed pseudo-random language: about one word in three is in it."""
    return lambda w: zlib.crc32(f"{salt}:{w}".encode()) % 3 == 0


@st.composite
def machines(draw):
    k = draw(st.integers(1, 3))
    dim = draw(st.integers(3, 8))
    n_acc = draw(st.integers(1, dim - 2))
    n_rej = draw(st.integers(1, dim - 1 - n_acc))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return random_qfa(rng, dim=dim, alphabet=tuple("abc"[:k]), n_acc=n_acc, n_rej=n_rej)


def scalar_masses(qfa, psi) -> tuple[float, float]:
    """The accept and reject masses of one row: `abs(z) ** 2` added one
    term at a time, over `acc` and then `rej` in their iteration order."""
    acc = rej = 0.0
    for i in qfa.acc:
        acc += abs(complex(psi[i])) ** 2
    for i in qfa.rej:
        rej += abs(complex(psi[i])) ** 2
    return acc, rej


@given(machines(), st.integers(1, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_measure_is_the_scalar_sum_over_each_set(qfa, width, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(width, qfa.dimension)) + 1j * rng.normal(size=(width, qfa.dimension))
    states *= rng.choice([1e-8, 1e-3, 0.3, 1.0], size=(width, 1))
    before = states.copy()
    acc, rej = _measure(qfa, states)
    for row, psi in enumerate(before):
        assert (acc[row], rej[row]) == scalar_masses(qfa, psi)
        kept = list(qfa.non_halting)
        assert np.array_equal(states[row, kept], psi[kept])
        assert not states[row, [*qfa.acc, *qfa.rej]].any()


@pytest.mark.parametrize("rows", [1, 2, FRONTIER_BLOCK])
@pytest.mark.parametrize(
    "n_acc, n_rej, nan",
    [(9, 8, False), (0, 17, False), (17, 0, False), (12, 6, True), (1, 1, False)],
    ids=["both", "empty acc", "empty rej", "nan amplitude", "one each"],
)
def test_measure_is_bitwise_the_scalar_sum(rows, n_acc, n_rej, nan):
    # sets of 8 or more terms tell a row-by-row sum from numpy's pairwise
    # one, which a single column would get
    rng = np.random.default_rng(rows * 100 + n_acc)
    qfa = random_qfa(rng, dim=20, n_acc=n_acc, n_rej=n_rej)
    states = rng.normal(size=(rows, qfa.dimension)) + 1j * rng.normal(size=(rows, qfa.dimension))
    states *= rng.choice([1e-8, 1e-3, 0.3, 1.0], size=(rows, 1))
    if nan:
        states[0, next(iter(qfa.acc))] = complex(float("nan"), 1.0)
    before = states.copy()
    acc, rej = _measure(qfa, states)
    expected = np.array([scalar_masses(qfa, psi) for psi in before])
    assert acc.tobytes() == expected[:, 0].tobytes()
    assert rej.tobytes() == expected[:, 1].tobytes()
    assert np.isnan(acc[0]) == nan
    kept = list(qfa.non_halting)
    assert states[:, kept].tobytes() == before[:, kept].tobytes()
    assert not states[:, [*qfa.acc, *qfa.rej]].any()


def assert_sweep_matches_run(qfa, max_len):
    words = []
    for level in sweep(qfa, max_len):
        assert len(level.words) == len(level.p_accept) == len(level.p_reject) == len(level.p_residual)
        for w, acc, rej, residual in zip(level.words, level.p_accept, level.p_reject, level.p_residual):
            reference = run(qfa, w, with_trace=True)
            assert acc == reference.p_accept, w
            assert rej == reference.p_reject, w
            assert abs(residual - reference.p_residual) <= 1e-15, w
        words.extend(level.words)
    assert words == list(all_words(qfa.alphabet, max_len))


@given(machines(), st.integers(1, 5), st.integers(0, 12))
@settings(max_examples=40)
def test_sweep_is_run_on_every_word(qfa, block, max_len):
    with mock.patch.object(qfa_module, "FRONTIER_BLOCK", block):
        assert_sweep_matches_run(qfa, min(max_len, MAX_LEN[len(qfa.alphabet)]))


def test_sweep_crosses_the_real_block():
    qfa = random_qfa(np.random.default_rng(7), dim=5)
    max_len = 11  # 2**11 words at the last length: two blocks
    assert 2**max_len > FRONTIER_BLOCK
    assert_sweep_matches_run(qfa, max_len)


# Machines whose configurations repeat: each distinct configuration is one
# entry of `sweep`'s table, and a block of 3 or 7 fills the table mid-sweep,
# after which every word keeps its own row.

LONG_LEN = {1: 16, 2: 9, 3: 6}  # longest words per alphabet size: about 1 000 words over 2 or 3 letters
CLOSING = (
    "even_head_odd_tail_qfa",
    "odd_head_odd_tail_qfa",
    "union",
    *(f"compiled {i}" for i in range(4)),
    *(f"reversible {i}" for i in range(4)),
)


def permutation_dfa(rng: random.Random) -> Dfa:
    """2-5 states over {a, b}, each letter a random permutation."""
    n = rng.randint(2, 5)
    perms = [rng.sample(range(n), n) for _ in "ab"]
    return make_dfa(n, [perm[i] for i in range(n) for perm in perms], [rng.random() < 0.5 for _ in range(n)])


@cache
def closing_machines() -> dict[str, tuple]:
    """`CLOSING` name -> (machine, language): the two pair fixtures, the 6/11
    union of the 3/4 toys, the compiled machines of the first four seeded
    constructible DFAs with more than one minimal state, and the embeddings
    of four seeded permutation DFAs."""
    cases = {name: (qfa_fixture(name), oracle(name[: -len("_qfa")])) for name in CLOSING[:2]}
    machine, _ = union(three_quarter_machine("a"), 0.75, three_quarter_machine("b"), 0.75)
    cases["union"] = (machine, lambda w: w.count("a") % 2 == 0 or w.count("b") % 2 == 0)
    rng = random.Random(5)
    while len(cases) < 7:
        verdict = classify(seeded_dfa(rng, 2, 6))
        if verdict.classification == CONSTRUCTIBLE and len(verdict.minimal_dfa.states) > 1:
            cases[f"compiled {len(cases) - 3}"] = (synthesize(verdict.minimal_dfa)[0], verdict.minimal_dfa)
    for i in range(4):
        dfa = permutation_dfa(rng)
        cases[f"reversible {i}"] = (reversible_qfa(dfa), dfa)
    return cases


def configurations(qfa, max_len: int) -> set[bytes]:
    """The distinct configurations after ^w over the words w up to max_len,
    each found once by `run`'s product and measurement; a configuration is
    the bytes of its row and of its accepted and rejected masses."""
    def key_of(config) -> bytes:
        return b"".join(part.tobytes() for part in config)

    psi = _apply(qfa.unitaries[KAPPA], qfa.initial_state()[None, :])
    root = (psi, *_measure(qfa, psi))
    level = {key_of(root): root}
    seen = set(level)
    for _ in range(max_len):
        found = {}
        for psi, acc, rej in level.values():
            for ch in qfa.alphabet:
                child = _apply(qfa.unitaries[ch], psi)
                acc_inc, rej_inc = _measure(qfa, child)
                config = (child, acc + acc_inc, rej + rej_inc)
                found.setdefault(key_of(config), config)
        level = {key: config for key, config in found.items() if key not in seen}
        seen.update(level)
    return seen


@pytest.mark.parametrize("block", [3, 7, FRONTIER_BLOCK])
@pytest.mark.parametrize("name", CLOSING)
def test_sweep_is_run_on_machines_whose_configurations_repeat(name, block):
    qfa, _ = closing_machines()[name]
    with mock.patch.object(qfa_module, "FRONTIER_BLOCK", block):
        assert_sweep_matches_run(qfa, LONG_LEN[len(qfa.alphabet)])


@pytest.mark.parametrize("p", [0.52, 0.95])
@pytest.mark.parametrize("name", CLOSING)
def test_verify_recognition_on_machines_whose_configurations_repeat(name, p):
    # every machine recognizes its language at 0.52; at 0.95 all but the
    # reversible ones fail, so the first five counterexamples are compared
    qfa, lang = closing_machines()[name]
    max_len = LONG_LEN[len(qfa.alphabet)]
    expected = reference_verify(qfa, lang, p, max_len)
    assert expected.passed == (p < 0.9 or name.startswith("reversible"))
    for block in (3, 7, FRONTIER_BLOCK):
        with mock.patch.object(qfa_module, "FRONTIER_BLOCK", block):
            assert verify_recognition(qfa, lang, p, max_len) == expected


@pytest.mark.parametrize("block", [3, 7, 100])
def test_the_table_holds_at_most_a_block_of_configurations(block):
    # a random machine meets a new configuration with almost every word, so
    # its sweep outgrows the table and goes on with one row per word; each
    # configuration of the table is expanded once, so the keys taken bound it
    qfa = random_qfa(np.random.default_rng(3), dim=4)
    with (
        mock.patch.object(qfa_module, "FRONTIER_BLOCK", block),
        mock.patch.object(qfa_module, "_keys", wraps=qfa_module._keys) as spy,
    ):
        assert_sweep_matches_run(qfa, 10)
    keyed = sum(len(call.args[0]) for call in spy.call_args_list)
    assert keyed <= 1 + block * len(qfa.alphabet)


def letter_rows(qfa, spy) -> int:
    """The rows that the `_apply` spy saw read by a letter, not by "^" or "$"."""
    letters = [qfa.unitaries[ch] for ch in qfa.alphabet]
    return sum(len(call.args[1]) for call in spy.call_args_list if any(call.args[0] is mat for mat in letters))


def test_each_configuration_is_expanded_once():
    # the compiled chain machine meets a handful of configurations up to
    # length 11, and only they are read by a letter: not every word up to 11
    qfa = synthesize(dfa_fixture("even_head_odd_tail"))[0]
    with mock.patch.object(qfa_module, "_apply", wraps=_apply) as spy:
        words = sum(len(level.words) for level in sweep(qfa, 12))
    expanded = configurations(qfa, 11)
    assert words == 2**13 - 1
    assert len(expanded) <= 8
    assert letter_rows(qfa, spy) <= len(expanded) * len(qfa.alphabet)


def test_a_check_against_a_dfa_costs_per_pair_not_per_word():
    # 2**41 - 1 or 2**1000001 - 1 words, read as the same few (configuration,
    # DFA state) pairs: every pair is met by length 40
    qfa, dfa = synthesize(dfa_fixture("odd_head_odd_tail"))[0], oracle("odd_head_odd_tail")
    expanded = configurations(qfa, 39)
    assert len(expanded) <= 8
    worst = []
    for max_len in (40, 10**6):
        started = time.perf_counter()
        with mock.patch.object(qfa_module, "_apply", wraps=_apply) as spy:
            report = verify_recognition(qfa, dfa, 0.6 - 1e-9, max_len)
        assert time.perf_counter() - started < 1.0
        assert report.passed and report.words_checked == 2 ** (max_len + 1) - 1
        assert not report.counterexamples
        assert letter_rows(qfa, spy) <= len(expanded) * len(qfa.alphabet)
        worst.append((report.worst_accept_margin, report.worst_reject_margin, report.residual_flagged))
    assert worst[0] == worst[1] and not worst[0][2]


def test_a_check_against_a_dfa_up_to_length_0_reads_no_letter():
    qfa, dfa = synthesize(dfa_fixture("odd_head_odd_tail"))[0], oracle("odd_head_odd_tail")
    with mock.patch.object(qfa_module, "_apply", wraps=_apply) as spy:
        report = verify_recognition(qfa, dfa, 0.6 - 1e-9, 0)
    symbols = {id(mat): sym for sym, mat in qfa.unitaries.items()}
    assert [symbols[id(call.args[0])] for call in spy.call_args_list] == [KAPPA, DOLLAR]
    assert report.words_checked == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_words_checked_is_the_number_of_words(k):
    # the count is a closed form; a machine whose pairs close at length 2 keeps each check short
    dfa = make_dfa(3, [1, 0, 2, 2, 1, 0, 0, 2, 1], [True, False, False], alphabet=("a", "b", "c"))
    qfa = reversible_qfa(dfa)
    for max_len in range(41):
        report = verify_recognition(qfa, dfa, 0.9, max_len, alphabet="abc"[:k])
        assert report.passed and report.words_checked == sum(k**n for n in range(max_len + 1))


@pytest.mark.parametrize("case", ["closing", "outgrowing"])
def test_a_check_against_a_dfa_builds_no_word(case):
    # a passing check spells nothing; a failing one spells its counterexamples
    # from their positions, also once the table is outgrown
    if case == "closing":
        qfa, dfa, p, max_len = qfa_fixture("odd_head_odd_tail_qfa"), oracle("odd_head_odd_tail"), 2 / 3 - 1e-9, 10
    else:
        qfa, dfa, p, max_len = random_qfa(np.random.default_rng(7)), oracle("odd_tail"), 0.6, 9
    expected = reference_verify(qfa, dfa, p, max_len)
    with (
        mock.patch.object(qfa_module, "FRONTIER_BLOCK", 7),
        mock.patch.object(qfa_module, "_word_levels", side_effect=AssertionError("a word list was built")),
    ):
        assert verify_recognition(qfa, dfa, p, max_len) == expected
    assert expected.passed == (case == "closing")


def applied_rows(work) -> int:
    """The rows that `_apply` reads while `work()` runs, by any matrix."""
    with mock.patch.object(qfa_module, "_apply", wraps=_apply) as spy:
        work()
    return sum(len(call.args[1]) for call in spy.call_args_list)


@pytest.mark.parametrize("block", [3, 7, FRONTIER_BLOCK])
def test_the_overflow_hand_off_simulates_nothing_twice(block):
    # a walk that would overflow the table reads every word from length 0 over
    # the table it grew: the configurations it expanded are not read again.
    # Nothing repeats in a random machine, so a sweep up to 9 reads "^" once,
    # each word of length 1..9 once by its last letter and each word by "$"
    qfa, dfa = random_qfa(np.random.default_rng(7)), oracle("odd_tail")
    with mock.patch.object(qfa_module, "FRONTIER_BLOCK", block):
        rows = applied_rows(lambda: list(sweep(qfa, 9)))
        for lang in (dfa, dfa.accepts):
            assert applied_rows(lambda: verify_recognition(qfa, lang, 0.6, 9)) == rows
    assert rows == 1 + (2**10 - 2) + (2**10 - 1)


def letterless(name: str):
    """The fixture machine parsed with an empty alphabet: only "^" and "$"."""
    obj = json.loads(qfa_to_json(qfa_fixture(name)))
    obj["alphabet"] = []
    obj["unitaries"] = {sym: entries for sym, entries in obj["unitaries"].items() if sym in (KAPPA, DOLLAR)}
    return parse_qfa(json.dumps(obj))


def test_an_empty_swept_alphabet_has_the_empty_word_alone():
    k2, k3 = letterless("even_head_odd_tail_qfa"), letterless("odd_head_odd_tail_qfa")
    empty = run(k2, "")
    levels = list(sweep(k2, 3))
    assert [level.words for level in levels] == [[""], [], [], []]
    assert [level.p_accept.tolist() for level in levels] == [[empty.p_accept], [], [], []]
    assert [level.p_reject.tolist() for level in levels] == [[empty.p_reject], [], [], []]
    assert all(len(level.p_residual) == len(level.words) for level in levels)
    nothing = Dfa(("q",), (), "q", frozenset(), {})
    for lang in (nothing, lambda w: False):
        report = verify_recognition(k2, lang, 0.6, 3)
        assert report.words_checked == 1
        assert report == reference_verify(k2, lang, 0.6, 3)
        result = separability(k2, k3, lang, 3)
        assert len(result.cloud) == 1
        assert result == reference_separability(k2, k3, lang, 3)
    pair, lang = qfa_fixture("even_head_odd_tail_qfa"), oracle("even_head_odd_tail")
    for labeller in (lang, lang.accepts):
        report = verify_recognition(pair, labeller, 0.6, 3, alphabet=())
        assert report.words_checked == 1
        assert report == reference_verify(pair, labeller, 0.6, 3, alphabet=())


@given(
    machines(),
    st.integers(1, 5),
    st.integers(0, 12),
    st.floats(0.51, 0.99),
    st.integers(0, 1000),
    st.booleans(),
)
@settings(max_examples=40)
def test_verify_recognition_equals_the_per_word_loop(qfa, block, max_len, p, salt, first_letter_only):
    max_len = min(max_len, MAX_LEN[len(qfa.alphabet)])
    alphabet = qfa.alphabet[:1] if first_letter_only else None
    with mock.patch.object(qfa_module, "FRONTIER_BLOCK", block):
        got = verify_recognition(qfa, hashed_oracle(salt), p, max_len, alphabet=alphabet)
    assert got == reference_verify(qfa, hashed_oracle(salt), p, max_len, alphabet=alphabet)


@pytest.mark.parametrize("p", [2 / 3 - 1e-9, 0.7, 0.95])
def test_verify_recognition_on_the_fixture_equals_the_per_word_loop(p):
    # 2/3 passes; 0.7 and 0.95 fail, so the first five shortlex counterexamples are compared
    qfa = qfa_fixture("even_head_odd_tail_qfa")
    lang = oracle("even_head_odd_tail")
    with mock.patch.object(qfa_module, "FRONTIER_BLOCK", 3):
        got = verify_recognition(qfa, lang, p, 8)
    assert got == reference_verify(qfa, lang, p, 8)
    assert got.passed == (p < 2 / 3)
    assert len(got.counterexamples) == (0 if got.passed else 5)


@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(1, 5), st.integers(0, 12), st.integers(0, 1000))
@settings(max_examples=25)
def test_separability_equals_the_per_word_loop(seed, k, block, max_len, salt):
    rng = np.random.default_rng(seed)
    letters = tuple("abc"[:k])
    q1, q2 = random_qfa(rng, dim=4, alphabet=letters), random_qfa(rng, dim=5, alphabet=letters)
    max_len = min(max_len, MAX_LEN[k])
    with mock.patch.object(qfa_module, "FRONTIER_BLOCK", block):
        got = separability(q1, q2, hashed_oracle(salt), max_len)
    assert got == reference_separability(q1, q2, hashed_oracle(salt), max_len)


def hull_case(hulls: str, seed: int):
    """Two machines, a language and a length whose cloud's hulls are `hulls`."""
    rng = np.random.default_rng(seed)
    q1, q2 = random_qfa(rng, dim=4), random_qfa(rng, dim=5)
    if hulls == "overlapping":
        return q1, q2, hashed_oracle(seed), 6
    if hulls == "disjoint":
        values = sorted(run(q1, w).p_accept for w in all_words(q1.alphabet, 6))
        cut = values[len(values) // 2]
        return q1, q2, lambda w: run(q1, w).p_accept >= cut, 6
    # the 3/4 toys put each word on a corner of [1/4, 3/4]^2, by the parities
    # of its a's and b's: one side of the square and one word of the other
    # side make hulls that meet at that word's corner
    letter, even = "ab"[seed % 2], seed // 2 % 2 == 0
    moved = letter if even else ""
    lang = lambda w: (w.count(letter) % 2 == 0) == even or w == moved  # noqa: E731
    return three_quarter_machine("a"), three_quarter_machine("b"), lang, 6


def hulls_of(result) -> str:
    if not result.separable:
        return "overlapping"
    return "touching" if result.limit_case else "disjoint"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("hulls", ["overlapping", "touching", "disjoint"])
def test_separability_is_the_hull_geometry_of_every_snapped_point(hulls, seed):
    # `separability` hulls each distinct point once; the reference snaps and
    # hulls every point of the cloud, repeats and all
    q1, q2, lang, max_len = hull_case(hulls, seed)
    got = separability(q1, q2, lang, max_len)
    inside = [(_snap(pt.p1), _snap(pt.p2)) for pt in got.cloud if pt.in_language]
    outside = [(_snap(pt.p1), _snap(pt.p2)) for pt in got.cloud if not pt.in_language]
    assert got == _max_margin_line(got.cloud, inside, outside)
    assert got == reference_separability(q1, q2, lang, max_len)
    assert hulls_of(got) == hulls


def test_separability_of_the_fixture_pair_equals_the_per_word_loop():
    k2, k3 = qfa_fixture("even_head_odd_tail_qfa"), qfa_fixture("odd_head_odd_tail_qfa")
    for name in ("odd_tail", "even_head_odd_tail"):
        assert separability(k2, k3, oracle(name), 7) == reference_separability(k2, k3, oracle(name), 7)


def test_negative_length_is_rejected():
    k2, k3 = qfa_fixture("even_head_odd_tail_qfa"), qfa_fixture("odd_head_odd_tail_qfa")
    lang = oracle("even_head_odd_tail")
    with pytest.raises(ValueError, match="non-negative"):
        next(sweep(k2, -1))
    with pytest.raises(ValueError, match="non-negative"):
        verify_recognition(k2, lang, 0.6, -1)
    with pytest.raises(ValueError, match="non-negative"):
        separability(k2, k3, lang, -1)


@st.composite
def machines_and_languages(draw, qfas=machines()):
    """A machine drawn from `qfas`; a DFA of 1-9 states over the machine's
    letters in shuffled order; and the swept letters, a shuffled non-empty
    subset of them."""
    qfa = draw(qfas)
    dfa = draw(dfas(1, 9, tuple(draw(st.permutations(qfa.alphabet)))))
    swept = draw(st.permutations(qfa.alphabet))[: draw(st.integers(1, len(qfa.alphabet)))]
    return qfa, dfa, tuple(swept)


@given(machines_and_languages(), st.integers(0, 12))
@settings(max_examples=60)
def test_frontier_labels_are_accepts_on_every_word(case, max_len):
    # a `Dfa` labels each length from its frontier, its bound `accepts` word by word
    _, dfa, swept = case
    max_len = min(max_len, MAX_LEN[len(swept)])
    expected = [dfa.accepts(w) for w in all_words(swept, max_len)]
    for labeller in (dfa, dfa.accepts):
        levels = list(word_labels(labeller, swept, max_len))
        assert [len(labels) for labels in levels] == [len(swept) ** n for n in range(max_len + 1)]
        assert np.concatenate(levels).tolist() == expected


@given(
    machines_and_languages(st.one_of(machines(), st.sampled_from(CLOSING).map(lambda name: closing_machines()[name][0]))),
    st.integers(0, 16),
    st.floats(0.51, 0.99),
)
@settings(max_examples=60)
def test_verify_recognition_with_a_dfa_equals_the_per_word_path(case, max_len, p):
    # random machines outgrow a table of 3 or 7 and go on per word; most
    # draws fail, so their counterexamples are compared too
    qfa, dfa, swept = case
    max_len = min(max_len, LONG_LEN[len(swept)])
    expected = verify_recognition(qfa, dfa.accepts, p, max_len, alphabet=swept)
    for block in (3, 7, FRONTIER_BLOCK):
        with mock.patch.object(qfa_module, "FRONTIER_BLOCK", block):
            got = verify_recognition(qfa, dfa, p, max_len, alphabet=swept)
        assert got == expected
        assert repr(got) == repr(expected)


def flipped_from(dfa: Dfa, m: int) -> Dfa:
    """`dfa`'s language on the words shorter than m, its complement on the others."""
    def name(q, c):
        return f"{q}/{c}"

    counts = range(m + 1)
    states = tuple(name(q, c) for q in dfa.states for c in counts)
    delta = {
        (name(q, c), a): name(dfa.transitions[q, a], min(c + 1, m)) for q in dfa.states for c in counts for a in dfa.alphabet
    }
    accepting = frozenset(name(q, c) for q in dfa.states for c in counts if (q in dfa.accepting) != (c == m))
    return Dfa(states, dfa.alphabet, name(dfa.start, 0), accepting, delta)


@pytest.mark.parametrize("block", [3, 7, FRONTIER_BLOCK])
@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("name", ["odd_head_odd_tail_qfa", "compiled 0", "compiled 3"])
def test_counterexamples_are_spelled_at_the_first_failing_length(name, m, block):
    # the machine recognizes its language at 0.52, so every word fails first at
    # length m, where the language flips; a table of 3 is outgrown before m
    qfa, lang = closing_machines()[name]
    dfa = flipped_from(lang, m)
    expected = verify_recognition(qfa, dfa.accepts, 0.52, m)
    with mock.patch.object(qfa_module, "FRONTIER_BLOCK", block):
        got = verify_recognition(qfa, dfa, 0.52, m)
    assert got == expected
    assert [w for w, _ in got.counterexamples] == list(all_words(qfa.alphabet, m))[-len(qfa.alphabet) ** m :][:5]


def test_a_first_failure_at_a_deep_length_costs_per_node():
    # every word fails first at length 20: its first five are spelled from the
    # walk's node sets, not from the 2**20 per-word ids of that length
    lang = dfa_fixture("odd_head_odd_tail")
    qfa, _ = synthesize(lang)
    dfa = flipped_from(lang, 20)
    verify_recognition(qfa, dfa, 0.52, 2)  # warm the caches the check reads
    tracemalloc.start()
    try:
        got = verify_recognition(qfa, dfa, 0.52, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == verify_recognition(qfa, dfa.accepts, 0.52, 20)
    assert [w for w, _ in got.counterexamples] == ["a" * 17 + "".join(t) for t in itertools.product("ab", repeat=3)][:5]


def test_spelling_stops_once_the_node_sets_cycle_with_no_failure():
    # only the empty word fails, so fewer than five counterexamples exist:
    # the node sets of each length are rebuilt until one repeats, not up to N
    lang = dfa_fixture("odd_head_odd_tail")
    qfa, _ = synthesize(lang)
    delta = {**lang.transitions, **{("s", a): lang.transitions[lang.start, a] for a in lang.alphabet}}
    flipped = {"s"} if lang.start not in lang.accepting else set()
    dfa = Dfa(("s", *lang.states), lang.alphabet, "s", lang.accepting | flipped, delta)
    verify_recognition(qfa, dfa, 0.52, 2)  # warm the caches the check reads
    tracemalloc.start()
    try:
        started = time.perf_counter()
        got = verify_recognition(qfa, dfa, 0.52, 10**5)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 2**20
    short = verify_recognition(qfa, dfa.accepts, 0.52, 12)
    assert [w for w, _ in got.counterexamples] == [""]
    assert (got.worst_accept_margin, got.worst_reject_margin, got.counterexamples, got.residual_flagged) == (
        short.worst_accept_margin, short.worst_reject_margin, short.counterexamples, short.residual_flagged
    )


@given(machines_and_languages(), st.integers(0, 12), st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_separability_with_a_dfa_equals_the_per_word_path(case, max_len, seed):
    q1, dfa, _ = case
    q2 = random_qfa(np.random.default_rng(seed), dim=4, alphabet=q1.alphabet)
    max_len = min(max_len, MAX_LEN[len(q1.alphabet)])
    assert separability(q1, q2, dfa, max_len) == separability(q1, q2, dfa.accepts, max_len)


@given(machines_and_languages(), st.integers(0, 3))
@settings(max_examples=20)
def test_a_dfa_without_a_swept_letter_is_an_error(case, max_len):
    qfa, dfa, swept = case
    letters = tuple(ch for ch in dfa.alphabet if ch != swept[0])
    delta = {(q, ch): t for (q, ch), t in dfa.transitions.items() if ch in letters}
    lacking = Dfa(dfa.states, letters, dfa.start, dfa.accepting, delta)
    with pytest.raises(ValueError, match="no letter"):
        verify_recognition(qfa, lacking, 0.6, max_len, alphabet=swept)
    with pytest.raises(ValueError, match="no letter"):
        separability(qfa, qfa, lacking, max_len)
    if max_len:  # the per-word path meets the letter at length 1 and names it
        with pytest.raises(ValueError, match=f"no letter {swept[0]!r}"):
            verify_recognition(qfa, lacking.accepts, 0.6, max_len, alphabet=swept)
    with pytest.raises(ValueError, match="non-negative"):
        verify_recognition(qfa, lacking, 0.6, -1, alphabet=swept)
