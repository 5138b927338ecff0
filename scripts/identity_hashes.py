#!/usr/bin/env python3
"""Output-identity check: one digest per group of results.

    python3 scripts/identity_hashes.py

Each digest covers, per DFA: classification, reason, minimal DFA, plan,
`witness_to_json`, the `verify_witness` report, monoid size and
completeness.  The groups are the first 436 `classify-random` DFAs of seeds
11 and 12 (the benchmark's generator, imported read only), every DFA
fixture, and `qfalab --format structured classify` on every DFA fixture with
`timing_s` removed.  A fifth digest covers `classify` of both
classify-random groups at monoid caps 12 and 500, where many verdicts are
inconclusive and witnesses are found inside a capped monoid.  A sixth
digest covers `plan`, or the `SynthesisError` subclass and message it
raises, on seeded DFAs made of a transient prefix into 2-4 blocks on which
each letter is a random permutation, so the containment chain is exercised
far more often than by `classify`.  A seventh digest covers the compiled
machines: `qfa_to_json` and p of `synthesize`, or the
`SynthesisError` subclass and message, on every constructible minimal DFA
of both classify-random groups and on the plan digest's DFAs, and
`qfa_to_json` of `reversible_qfa`, or its error, on every classify-random
minimal DFA.  An eighth digest covers how those machines behave: the bytes
of `p_accept`, `p_reject` and `p_residual` of every `sweep` level up to
length `SWEEP_LEN`, for every machine the seventh digest builds (errors
skipped).  A change to matrix columns that no run reads moves the seventh
digest and leaves the eighth.  A ninth digest covers the subspaces of
`qfalab --format structured decompose` for fixed one- and two-word cases on
every QFA fixture and on the compiled `even_head_odd_tail` and
`odd_head_odd_tail` machines: the exit code, the two dimensions and the
projector B B* of each printed basis rounded to 6 decimals, so another
orthonormal basis of the same subspace leaves it as it is.  A tenth digest
covers every subcommand's CLI output, run in this process: the exit code,
stderr and stdout (a structured document with `timing_s` removed) of the
cli-session calls of seed `CLI_SEED` in order, of a malformed DFA, QFA and
witness file (exit 2), and of `qfalab --help` and `qfalab simulate --help`.
The temporary directory the calls read and write is spelled `<tmp>` in
their output.  An eleventh digest covers exhaustive checks against the
named oracles: the `repr` of `verify_recognition` of each machine of the
ninth digest against each oracle over the machine's alphabet, at each p of
`RECOGNITION_PS` up to length `RECOGNITION_LEN`, and of `separability` of
each pair of those machines against each such oracle up to length
`SEPARABILITY_LEN`.  A twelfth digest covers minimization beyond the
small DFAs the first digest minimizes: `dfa_to_json(minimize(d))` of
seeded random DFAs of 15-200 states over 1-3 letters (`seeded_dfa`, a
quarter of them permutation DFAs) and of the `chain` and `cycle_with_reset`
families at each size of `FAMILY_SIZES`; the three builders are the test
suite's, from `tests/conftest.py`.  A thirteenth digest covers the three
fragment detectors called on their own, not in `classify`'s short-circuit
order, which the first and fifth digests see: the `repr` of each one's
witness or None on the classify-random minimal DFAs at the default cap,
and on seeded random DFAs of 2-9 states (`seeded_dfa`) at caps
|alphabet|+1 and `DETECTOR_CAPS`.  A fourteenth digest covers how
element words are spelled, of which the witness digests see at most four
per verdict: `Monoid.word(i)` of every element of the monoid of each
classify-random minimal DFA at cap `WORD_CAP`, and of the tuple mappings
of `minimize(cycle_with_reset(257))` at cap `TUPLE_WORD_CAP`, which holds
its whole monoid.  A fifteenth digest covers long sweeps, where `sweep`
meets most configurations again: the bytes of `p_accept`, `p_reject` and
`p_residual` of every `sweep` level up to length `LONG_SWEEP_LEN` of the
ninth digest's machines (the QFA fixtures and the compiled fixtures), of
verify-exhaustive's 6/11 union of two 3/4 toys, and of one random
6-dimensional machine (`random_qfa`, seed `RANDOM_QFA_SEED`) whose
configurations hardly repeat, so that its sweep outgrows the table of
`FRONTIER_BLOCK` configurations and goes on with one row per word.  A
sixteenth digest covers deeper and mostly failing exhaustive checks: the
`repr` of `verify_recognition` of each machine of the ninth digest against
each named oracle over its alphabet, at each p of `DEEP_PS` up to length
`DEEP_LEN`, so that counterexamples are spelled at many lengths.  A
seventeenth digest covers the same checks at each length of `FAR_LENS`,
far past where every one of those machines' (configuration, DFA state)
graphs closes, with word counts of hundreds of digits.  The library, the
test builders and the generator are imported from the checkout that holds
this script, so running it in two checkouts and comparing the outputs
with `diff` shows whether a change moved any output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from itertools import chain, combinations
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from qfalab.automata import DEFAULT_MONOID_CAP, Dfa, dfa_to_json, minimize, parse_dfa, transition_monoid  # noqa: E402
from qfalab.cli import main as cli_main  # noqa: E402
from qfalab.combinators import separability, union  # noqa: E402
from qfalab.fixtures import (  # noqa: E402
    dfa_fixture,
    dfa_fixture_names,
    oracle,
    oracle_names,
    qfa_fixture,
    qfa_fixture_names,
)
from qfalab.fragments import (  # noqa: E402
    CONSTRUCTIBLE,
    classify,
    detect_fork,
    detect_order_violation,
    detect_two_cycles,
    verify_witness,
    witness_to_json,
)
from qfalab.qfa import qfa_to_json, sweep, verify_recognition  # noqa: E402
from qfalab.synthesis import SynthesisError, plan, reversible_qfa, synthesize  # noqa: E402

import classify_random  # noqa: E402
import cli_session  # noqa: E402
import verify_exhaustive  # noqa: E402
from conftest import chain as chain_dfa, cycle_with_reset, random_qfa, seeded_dfa  # noqa: E402
from tracing import NULL  # noqa: E402

RANDOM_SEEDS = (11, 12)
RANDOM_DFAS = 436  # four cycles of the classify-random mix
CAPS = (12, 500)  # classify-random again, on capped monoids
COMPONENT_DFAS = 1_000  # per seed, for the plan digest
SWEEP_LEN = 4  # longest word of the behaviour digest
LONG_SWEEP_LEN = 12  # longest word of the long-sweep digest
RANDOM_QFA_SEED = 7  # seed of the long-sweep digest's random machine
CLI_SEED = 11  # cli-session seed of the CLI output digest
RECOGNITION_PS = (0.6, 2 / 3 - 1e-9, 0.9)  # probabilities of the oracle digest
RECOGNITION_LEN = 10  # longest word of the oracle digest's recognition checks
SEPARABILITY_LEN = 8  # longest word of the oracle digest's separability checks
DEEP_PS = (0.55, 0.6, 2 / 3 - 1e-9, 0.7, 0.9, 0.99)  # probabilities of the deep-check digest
DEEP_LEN = 13  # longest word of the deep-check digest
FAR_LENS = (100, 1000)  # longest words of the far-check digest
MINIMIZE_DFAS = 300  # per seed, for the minimization digest
FAMILY_SIZES = (1, 2, 3, 17, 256, 257, 1000, 3000)
DETECTOR_DFAS = 1_000  # per seed, for the detector digest
DETECTOR_CAPS = (12, 500, DEFAULT_MONOID_CAP)  # with |alphabet|+1, the detector digest's caps
WORD_CAP = 500  # cap of the element-word digest's classify-random monoids
TUPLE_WORD_CAP = 2_000  # cap of the element-word digest's monoid over tuple mappings
DECOMPOSE_WORDS = (("a",), ("b",), ("ab",), ("ba",), ("a", "b"), ("b", "a"), ("a", "aa"), ("ab", "ba"), ("b", "ab"))


def verdict_record(dfa, **options) -> str:
    verdict = classify(dfa, **options)
    witness = verdict.witness
    return repr((
        verdict.classification,
        verdict.reason,
        dfa_to_json(verdict.minimal_dfa),
        repr(verdict.plan),
        witness_to_json(witness) if witness is not None else None,
        repr(verify_witness(verdict.minimal_dfa, witness)) if witness is not None else None,
        verdict.monoid_size,
        verdict.monoid_complete,
    ))


def detector_record(dfa, cap: int = DEFAULT_MONOID_CAP) -> str:
    """`repr` of each detector's result, called on its own, on the monoid of `dfa` up to `cap`."""
    monoid = transition_monoid(dfa, cap)
    return repr([detect(dfa, monoid) for detect in (detect_two_cycles, detect_order_violation, detect_fork)])


def words_record(dfa, cap: int) -> str:
    """`repr` of the word of every element of the monoid of `dfa` up to `cap`."""
    monoid = transition_monoid(dfa, cap)
    return repr([monoid.word(i) for i in range(len(monoid))])


def component_dfa(rng: random.Random) -> Dfa:
    """A transient prefix into 2-4 blocks of 1-3 states on which each of 2-3
    letters is a random permutation; accepting states are random.  Transient
    state i moves to i + 1 on the first letter; its other letters, and every
    letter of the last transient state, lead to later states, the first of
    them (in a random order) into each block in turn."""
    alphabet = ("a", "b", "c")[: rng.randint(2, 3)]
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    n_transient = rng.randint(len(sizes) - 1, 3)
    n = n_transient + sum(sizes)
    states = tuple(f"q{i}" for i in range(n))
    transitions = {(states[i], alphabet[0]): states[i + 1] for i in range(n_transient - 1)}
    free = [(states[i], a) for i in range(n_transient) for a in alphabet if (states[i], a) not in transitions]
    rng.shuffle(free)
    base, blocks = n_transient, []
    for size in sizes:
        blocks.append(states[base : base + size])
        base += size
    for k, (q, a) in enumerate(free):
        later = blocks[k] if k < len(blocks) else states[states.index(q) + 1 :]
        transitions[q, a] = rng.choice(later)
    for block in blocks:
        for a in alphabet:
            transitions.update(zip(((q, a) for q in block), rng.sample(block, len(block))))
    accepting = frozenset(q for q in states if rng.random() < 0.5)
    return Dfa(states, alphabet, states[0], accepting, transitions)


def guarded(build, dfa) -> str:
    """`repr` of build(dfa), or of the SynthesisError subclass and message."""
    try:
        return repr(build(dfa))
    except SynthesisError as exc:
        return repr((type(exc).__name__, str(exc)))


def compiled(dfa):
    qfa, p = synthesize(dfa)
    return repr((qfa_to_json(qfa), p)), qfa


def embedded(dfa):
    qfa = reversible_qfa(dfa)
    return repr(qfa_to_json(qfa)), qfa


def built(build, dfa):
    """build(dfa): a record and its machine; or `repr` of the SynthesisError
    subclass and message, with no machine."""
    try:
        return build(dfa)
    except SynthesisError as exc:
        return repr((type(exc).__name__, str(exc))), None


def sweep_record(qfa, max_len: int = SWEEP_LEN) -> str:
    """The bytes of p_accept, p_reject and p_residual of every `sweep` level up to max_len, in hex."""
    levels = sweep(qfa, max_len)
    return b"".join(a.tobytes() for lv in levels for a in (lv.p_accept, lv.p_reject, lv.p_residual)).hex()


def feed(h, record: str) -> None:
    h.update(record.encode())
    h.update(b"\0")


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        feed(h, record)
    return h.hexdigest()


def cli_record(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["--format", "structured", "classify", str(path)])
    doc = json.loads(out.getvalue())
    doc.pop("timing_s")
    return repr((code, json.dumps(doc, sort_keys=True)))


def decompose_record(path: Path, dimension: int, words: tuple[str, ...]) -> str:
    """Exit code and dimensions of `decompose` with the projectors of its two
    printed bases, rounded to 6 decimals with -0.0 folded to 0.0; or the exit
    code and stderr when it prints no payload."""
    argv = ["--format", "structured", "decompose", str(path), "--word", words[0]]
    argv += ["--word2", words[1]] if len(words) > 1 else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if not out.getvalue():
        return repr((code, err.getvalue()))
    payload = json.loads(out.getvalue())["payload"]
    projectors = []
    for key in ("isometric_basis", "transient_basis"):
        pairs = np.array(payload[key], dtype=float).reshape(-1, dimension, 2)
        basis = (pairs[..., 0] + 1j * pairs[..., 1]).T
        projectors.append((np.round(basis @ basis.conj().T, 6) + 0.0).tobytes().hex())
    return repr((code, payload["isometric_dimension"], payload["transient_dimension"], *projectors))


def over(qfa) -> list[Dfa]:
    """The named oracles over the machine's alphabet."""
    return [oracle(name) for name in oracle_names() if set(oracle(name).alphabet) == set(qfa.alphabet)]


def recognition_records(qfas, ps, max_len: int) -> list[str]:
    """`repr` of `verify_recognition` of each machine against each oracle over its alphabet at each p."""
    return [repr(verify_recognition(q, lang, p, max_len)) for q in qfas for lang in over(q) for p in ps]


def oracle_records(qfas) -> list[str]:
    """`repr` of every recognition and separability check of the oracle digest."""
    records = recognition_records(qfas, RECOGNITION_PS, RECOGNITION_LEN)
    records += [repr(separability(q1, q2, lang, SEPARABILITY_LEN)) for q1, q2 in combinations(qfas, 2) for lang in over(q1)]
    return records


def cli_output_record(argv: list[str], tmp: str) -> str:
    """Exit code, stderr and stdout of `qfalab *argv` with `timing_s` removed
    from a structured document and `tmp` spelled <tmp>."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    text = out.getvalue()
    if text.startswith('{\n  "command"'):
        doc = json.loads(text)
        doc.pop("timing_s")
        text = json.dumps(doc, sort_keys=True)
    return repr((code, err.getvalue().replace(tmp, "<tmp>"), text.replace(tmp, "<tmp>")))


def cli_output_records(tmp: str) -> list[str]:
    with mock.patch.object(cli_session, "OUT", Path(tmp)):
        calls = cli_session.build(CLI_SEED, NULL).calls
    records = [cli_output_record(["--format", "structured", *call.args], tmp) for call in calls]
    bad = {
        "bad.dfa": '{"alphabet": ["a"]}',
        "bad.qfa": qfa_to_json(qfa_fixture("bad_left_marker_qfa")),
        "bad.witness": '{"witness": {"kind": "none"}}',
        "good.dfa": dfa_to_json(dfa_fixture("odd_tail")),
    }
    for name, text in bad.items():
        (Path(tmp) / name).write_text(text, encoding="utf-8")
    malformed = (
        ["classify", f"{tmp}/bad.dfa"],
        ["simulate", f"{tmp}/bad.qfa", "ab"],
        ["verify-witness", f"{tmp}/good.dfa", f"{tmp}/bad.witness"],
    )
    records += [cli_output_record(["--format", "structured", *argv], tmp) for argv in malformed]
    with mock.patch.dict("os.environ", COLUMNS="80"):  # argparse wraps help to the terminal width
        records += [cli_output_record(argv, tmp) for argv in (["--help"], ["simulate", "--help"])]
    return records


def main() -> None:
    random_dfas = []
    for seed in RANDOM_SEEDS:
        dfas = [parse_dfa(text)[0] for text in classify_random.build(seed, None).texts[:RANDOM_DFAS]]
        print(f"classify-random seed {seed} ({RANDOM_DFAS} DFAs): {digest(map(verdict_record, dfas))}")
        random_dfas += dfas
    names = dfa_fixture_names()
    print(f"dfa fixtures ({len(names)}): {digest(verdict_record(dfa_fixture(n)) for n in names)}")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in names:
            path = Path(tmp) / f"{name}.json"
            path.write_text(dfa_to_json(dfa_fixture(name)), encoding="utf-8")
            paths.append(path)
        print(f"cli structured classify ({len(names)}): {digest(cli_record(p) for p in paths)}")
    records = (verdict_record(dfa, monoid_cap=cap) for cap in CAPS for dfa in random_dfas)
    print(f"classify-random at monoid caps {CAPS} ({len(random_dfas)} DFAs): {digest(records)}")
    rngs = [random.Random(seed) for seed in RANDOM_SEEDS]
    component_dfas = [component_dfa(rng) for rng in rngs for _ in range(COMPONENT_DFAS)]
    records = (guarded(plan, dfa) for dfa in component_dfas)
    print(f"plan on permutation-component DFAs (seeds {RANDOM_SEEDS}, {COMPONENT_DFAS} each): {digest(records)}")
    verdicts = [classify(dfa) for dfa in random_dfas]
    constructible = [v.minimal_dfa for v in verdicts if v.classification == CONSTRUCTIBLE]
    payloads, behaviour, machines = hashlib.sha256(), hashlib.sha256(), 0
    builds = chain(
        (built(compiled, dfa) for dfa in chain(constructible, component_dfas)),
        (built(embedded, v.minimal_dfa) for v in verdicts),
    )
    for record, qfa in builds:
        feed(payloads, record)
        if qfa is not None:
            feed(behaviour, sweep_record(qfa))
            machines += 1
    print(
        f"synthesize ({len(constructible)} constructible classify-random, {len(component_dfas)} "
        f"permutation-component DFAs), reversible_qfa ({len(verdicts)} classify-random): {payloads.hexdigest()}"
    )
    print(f"sweep up to length {SWEEP_LEN} of those {machines} machines: {behaviour.hexdigest()}")
    qfas = [qfa_fixture(name) for name in qfa_fixture_names()]
    qfas += [synthesize(minimize(dfa_fixture(name)))[0] for name in ("even_head_odd_tail", "odd_head_odd_tail")]
    with tempfile.TemporaryDirectory() as tmp:
        records = []
        for i, qfa in enumerate(qfas):
            path = Path(tmp) / f"m{i}.qfa"
            path.write_text(qfa_to_json(qfa), encoding="utf-8")
            records += [decompose_record(path, qfa.dimension, words) for words in DECOMPOSE_WORDS]
        print(f"cli structured decompose ({len(qfas)} machines, {len(DECOMPOSE_WORDS)} cases each): {digest(records)}")
    with tempfile.TemporaryDirectory() as tmp:
        records = cli_output_records(tmp)
        print(f"cli output of every subcommand (cli-session seed {CLI_SEED}, malformed inputs, help; {len(records)} calls): {digest(records)}")
    records = oracle_records(qfas)
    print(f"exhaustive checks of those {len(qfas)} machines against the oracles ({len(records)} checks): {digest(records)}")
    rngs = [random.Random(seed) for seed in RANDOM_SEEDS]
    dfas = [seeded_dfa(rng, 15, 200) for rng in rngs for _ in range(MINIMIZE_DFAS)]
    dfas += [family(n) for family in (chain_dfa, cycle_with_reset) for n in FAMILY_SIZES]
    print(
        f"minimize ({len(RANDOM_SEEDS) * MINIMIZE_DFAS} seeded 15-200-state DFAs, chain and cycle_with_reset "
        f"at {FAMILY_SIZES}): {digest(dfa_to_json(minimize(dfa)) for dfa in dfas)}"
    )
    rngs = [random.Random(seed) for seed in RANDOM_SEEDS]
    dfas = [seeded_dfa(rng, 2, 9) for rng in rngs for _ in range(DETECTOR_DFAS)]
    records = chain(
        (detector_record(v.minimal_dfa) for v in verdicts),
        (detector_record(dfa, cap) for dfa in dfas for cap in (len(dfa.alphabet) + 1, *DETECTOR_CAPS)),
    )
    print(
        f"detectors called alone ({len(verdicts)} classify-random minimal DFAs; {len(dfas)} seeded 2-9-state "
        f"DFAs at caps |alphabet|+1 and {DETECTOR_CAPS}): {digest(records)}"
    )
    records = chain(
        (words_record(v.minimal_dfa, WORD_CAP) for v in verdicts),
        [words_record(minimize(cycle_with_reset(257)), TUPLE_WORD_CAP)],
    )
    print(
        f"element words ({len(verdicts)} classify-random minimal DFAs at cap {WORD_CAP}; "
        f"minimize(cycle_with_reset(257)) at cap {TUPLE_WORD_CAP}): {digest(records)}"
    )
    toys = verify_exhaustive.mixtures(verify_exhaustive.parity_machines(), NULL)
    long_swept = [*qfas, union(toys[0], verify_exhaustive.TOY_P, toys[1], verify_exhaustive.TOY_P)[0]]
    long_swept.append(random_qfa(np.random.default_rng(RANDOM_QFA_SEED)))
    records = (sweep_record(qfa, LONG_SWEEP_LEN) for qfa in long_swept)
    print(
        f"sweep up to length {LONG_SWEEP_LEN} of the {len(qfas)} decompose machines, the 6/11 union and a random "
        f"6-dimensional machine: {digest(records)}"
    )
    records = recognition_records(qfas, DEEP_PS, DEEP_LEN)
    print(f"exhaustive checks of the {len(qfas)} decompose machines up to length {DEEP_LEN} at p in {DEEP_PS} ({len(records)} checks): {digest(records)}")
    records = [record for max_len in FAR_LENS for record in recognition_records(qfas, DEEP_PS, max_len)]
    print(f"exhaustive checks of the {len(qfas)} decompose machines up to lengths {FAR_LENS} at p in {DEEP_PS} ({len(records)} checks): {digest(records)}")


if __name__ == "__main__":
    main()
