"""Fuzzing the file parsers: every input parses to a valid value or raises
the module's parse error, never anything else.  The `verify-witness`
command, which parses a witness and replays it, exits 0, 1 or 2 on any
witness file, never with a traceback."""

from __future__ import annotations

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfalab import cli
from qfalab.automata import Dfa, DfaParseError, dfa_to_json, minimize, parse_dfa
from qfalab.fixtures import dfa_fixture, qfa_fixture
from qfalab.fragments import (
    TWO_LEVEL_FORK,
    WITNESS_KINDS,
    FragmentWitness,
    WitnessParseError,
    classify,
    parse_witness,
    witness_to_json,
)
from qfalab.qfa import Qfa, QfaParseError, parse_qfa, qfa_to_json, run

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)
# values of the wrong type that still compare or hash like the right one
confusable = st.sampled_from([True, False, 0.0, 0.5, -1, 10**30, "s0", "a", None, [], {}, [["x"]], [0.5]])


@st.composite
def mutated(draw, doc):
    """`doc` with one value somewhere inside replaced by any JSON value, or
    one object key dropped."""
    doc = copy.deepcopy(doc)
    container = doc
    while True:
        keys = list(container) if isinstance(container, dict) else range(len(container))
        key = draw(st.sampled_from(keys))
        child = container[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            container = child
        else:
            break
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(confusable | json_values)
    return doc


def documents(valid: dict):
    """Arbitrary text, arbitrary JSON and mutations of a valid document."""
    return st.one_of(
        st.text(max_size=20),
        json_values.map(json.dumps),
        mutated(valid).map(json.dumps),
    )


DFA_DOC = json.loads(dfa_to_json(dfa_fixture("odd_tail")))
QFA_DOC = json.loads(qfa_to_json(qfa_fixture("even_head_odd_tail_qfa")))
# a valid 1-dimensional machine, so that `true` passes the matrix size check
ONE_DIM_QFA_DOC = {
    "dimension": 1, "alphabet": ["a"], "start": 0, "acc": [], "rej": [],
    "unitaries": {sym: [[1.0, 0.0]] for sym in ("a", "^", "$")},
}
WITNESS_DOCS = [
    json.loads(witness_to_json(classify(dfa_fixture("odd_tail")).witness)),
    # the general layered form, no longer a witness kind: a parse error
    {"witness": {"kind": "multilevel", "levels": [
        {"states": ["s0"], "words": ["a", "b"]}, {"states": ["s1", "s2"], "words": []},
    ]}},
    # the layered fixture's two-level fork
    json.loads(witness_to_json(FragmentWitness(
        kind=TWO_LEVEL_FORK,
        states={"q0": "s0"},
        words=dict(zip(("u1", "u2", "u3", "v1", "v2", "v3", "s1", "s2", "s3"), "abcdefghi")),
    ))),
]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@settings(max_examples=300)
@given(documents(DFA_DOC), st.booleans())
def test_parse_dfa_returns_a_dfa_or_raises_its_parse_error(text, complete_with_sink):
    try:
        dfa, _ = parse_dfa(text, complete_with_sink=complete_with_sink)
    except DfaParseError:
        return
    assert isinstance(dfa, Dfa)
    assert parse_dfa(dfa_to_json(dfa))[0] == dfa
    minimize(dfa)


@settings(max_examples=300)
@given(documents(QFA_DOC), st.sampled_from([1e-9, None]))
def test_parse_qfa_returns_a_qfa_or_raises_its_parse_error(text, tol):
    try:
        qfa = parse_qfa(text, validate_tol=tol)
    except QfaParseError:
        return
    assert isinstance(qfa, Qfa)
    assert _is_int(qfa.dimension) and _is_int(qfa.start)
    assert all(_is_int(i) and 0 <= i < qfa.dimension for i in qfa.acc | qfa.rej)
    assert len(set(qfa.alphabet)) == len(qfa.alphabet)
    for mat in qfa.unitaries.values():
        assert mat.dtype == np.complex128 and mat.shape == (qfa.dimension, qfa.dimension)
        assert np.isfinite(mat).all()
    run(qfa, qfa.alphabet[0] if qfa.alphabet else "")


@settings(max_examples=300)
@given(st.one_of(*(documents(doc) for doc in WITNESS_DOCS)))
def test_parse_witness_returns_a_witness_or_raises_value_error(text):
    try:
        witness = parse_witness(text)
    except WitnessParseError:
        return
    assert witness.kind in WITNESS_KINDS
    assert all(isinstance(v, str) for v in (*witness.states.values(), *witness.words.values()))
    assert parse_witness(witness_to_json(witness)) == witness


@pytest.fixture(scope="module")
def witness_dfa_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("verify_witness")
    paths = {}
    for name in ("odd_tail", "layered"):
        paths[name] = folder / f"{name}.dfa"
        paths[name].write_text(dfa_to_json(dfa_fixture(name)), encoding="utf-8")
    return folder / "witness.json", paths


@settings(max_examples=300)
@given(
    st.one_of(st.sampled_from(WITNESS_DOCS).map(json.dumps), *(documents(doc) for doc in WITNESS_DOCS)),
    st.sampled_from(["odd_tail", "layered"]),
)
def test_verify_witness_command_exits_0_1_or_2(witness_dfa_paths, text, name):
    witness_path, dfa_paths = witness_dfa_paths
    # lone surrogates reach the file as invalid UTF-8
    witness_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify-witness", str(dfa_paths[name]), str(witness_path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("parse error: ")
    if code == 1:
        # a failed condition, or an unknown state, missing binding or foreign letter
        assert out.startswith("[fail] verify-witness") or err.startswith("error: ValueError: ")


def _with(doc: dict, **changes) -> str:
    return json.dumps({**doc, **changes})


def _with_entry(symbol: str, k: int, value: float) -> str:
    unitaries = copy.deepcopy(QFA_DOC["unitaries"])
    unitaries[symbol][k] = [value, 0.0]
    return _with(QFA_DOC, unitaries=unitaries)


@pytest.mark.parametrize(
    "parse, error, text",
    [
        (parse_dfa, DfaParseError, _with(DFA_DOC, accept=[["x"]])),
        (parse_dfa, DfaParseError, _with(DFA_DOC, delta={**DFA_DOC["delta"], "nowhere": {}})),
        (parse_qfa, QfaParseError, _with(QFA_DOC, acc=[0.5])),
        (parse_qfa, QfaParseError, _with(QFA_DOC, start=0.0)),
        (parse_qfa, QfaParseError, _with(ONE_DIM_QFA_DOC, dimension=True)),
        (parse_qfa, QfaParseError, _with(QFA_DOC, rej=[True])),
        (parse_qfa, QfaParseError, _with_entry("b", 9, float("nan"))),
        (parse_qfa, QfaParseError, _with_entry("^", 0, float("inf"))),
        (parse_witness, WitnessParseError, '{"witness": 3}'),
        (parse_witness, WitnessParseError, '{"witness": {}}'),
        (parse_witness, WitnessParseError, '{"witness": {"kind": "fork", "states": [1]}}'),
        (parse_witness, WitnessParseError, '{"witness": {"kind": "spoon"}}'),
        (parse_witness, WitnessParseError, '{"witness": {"kind": "fork"'),
        (parse_witness, WitnessParseError, '{"witness": ' + "9" * 5000 + "}"),
        (parse_dfa, DfaParseError, '{"alphabet": ' + "9" * 5000 + "}"),
        (parse_qfa, QfaParseError, '{"dimension": ' + "9" * 5000 + "}"),
        (parse_dfa, DfaParseError, "[" * 100_000),
        (parse_qfa, QfaParseError, "[" * 100_000),
        (parse_witness, WitnessParseError, "[" * 100_000),
    ],
    ids=[
        "dfa-accept-nested-list",
        "dfa-delta-unknown-row",
        "qfa-acc-float",
        "qfa-start-float",
        "qfa-dimension-bool",
        "qfa-rej-bool",
        "qfa-entry-nan",
        "qfa-entry-inf",
        "witness-number",
        "witness-no-kind",
        "witness-states-list",
        "witness-unknown-kind",
        "witness-truncated-json",
        "witness-integer-past-the-digit-limit",
        "dfa-integer-past-the-digit-limit",
        "qfa-integer-past-the-digit-limit",
        "dfa-deep-nesting",
        "qfa-deep-nesting",
        "witness-deep-nesting",
    ],
)
def test_known_malformed_inputs_are_parse_errors(parse, error, text):
    with pytest.raises(error):
        parse(text)
