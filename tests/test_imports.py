"""Each CLI command loads only what it computes with, and BLAS starts with one thread.

Every condition `classify` checks is read off the minimal DFA, so parsing a
DFA, classifying it, planning a constructible one and replaying a witness
need no linear algebra: a fresh interpreter does that and then looks for
numpy among its loaded modules.  The commands that read or build a QFA
never search for fragments: a fresh interpreter runs each of them and then
looks for `qfalab.fragments`.  `main` sets `OPENBLAS_NUM_THREADS` to "1"
unless it is set already, and the thread count moves no bit of a payload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from qfalab.automata import dfa_to_json
from qfalab.fixtures import dfa_fixture, qfa_fixture
from qfalab.fragments import classify, witness_to_json
from qfalab.qfa import qfa_to_json

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY_SCRIPT = """
import sys
import qfalab, qfalab.automata, qfalab.fragments
dfa, _ = qfalab.automata.parse_dfa(open(sys.argv[1], encoding="utf-8").read())
verdict = qfalab.fragments.classify(dfa)
assert verdict.classification == qfalab.fragments.NOT_RECOGNIZABLE, verdict.classification
assert qfalab.fragments.verify_witness(verdict.minimal_dfa, verdict.witness).passed
assert "numpy" not in sys.modules, "numpy was loaded"
"""
# argv: constructible DFA, not-recognizable DFA, its witness, fixtures emit target
CLI_SCRIPT = """
import contextlib, io, sys
from qfalab.cli import main
constructible, odd_tail, witness, emitted = sys.argv[1:]
calls = (
    ["classify", constructible],
    ["classify", odd_tail],
    ["verify-witness", odd_tail, witness],
    ["fixtures", "list"],
    ["fixtures", "emit", "odd_tail", "-o", emitted],
)
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--format", "structured", *argv])
    assert code == 0, (argv, code)
assert "numpy" not in sys.modules, "numpy was loaded"
"""
# argv: a JSON list of CLI argument lists; prints each structured output, timing aside
NUMERIC_SCRIPT = """
import contextlib, io, json, os, sys
from qfalab.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "structured", *argv])
    assert code == 0, (argv, code)
    doc = json.loads(out.getvalue())
    doc.pop("timing_s", None)  # a bare `fixtures emit` prints the fixture itself
    print(json.dumps(doc, indent=2, sort_keys=True))
print(os.environ["OPENBLAS_NUM_THREADS"])
print("qfalab.fragments" in sys.modules)
"""
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def run_fresh(script: str, *argv, blas_threads: str | None = None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}  # an earlier `main` may have set it
    if blas_threads is not None:
        env[BLAS_THREADS] = blas_threads
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, timeout=120,
        env={**env, "PYTHONPATH": str(SRC)},
    )


def write_dfa(tmp_path: Path, name: str) -> Path:
    path = tmp_path / f"{name}.dfa"
    path.write_text(dfa_to_json(dfa_fixture(name)), encoding="utf-8")
    return path


def test_classify_and_verify_witness_leave_numpy_unloaded(tmp_path):
    proc = run_fresh(LIBRARY_SCRIPT, write_dfa(tmp_path, "odd_tail"))
    assert proc.returncode == 0, proc.stderr


def test_decision_commands_leave_numpy_unloaded(tmp_path):
    witness = tmp_path / "odd_tail.witness"
    witness.write_text(witness_to_json(classify(dfa_fixture("odd_tail")).witness), encoding="utf-8")
    proc = run_fresh(
        CLI_SCRIPT,
        write_dfa(tmp_path, "even_head_odd_tail"),
        write_dfa(tmp_path, "odd_tail"),
        witness,
        tmp_path / "emitted.dfa",
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "emitted.dfa").read_text(encoding="utf-8") == dfa_to_json(dfa_fixture("odd_tail"))


def write_qfa(tmp_path: Path, name: str) -> Path:
    path = tmp_path / f"{name}.qfa"
    path.write_text(qfa_to_json(qfa_fixture(name)), encoding="utf-8")
    return path


def test_qfa_commands_leave_the_fragment_search_unloaded(tmp_path):
    k2, k3 = str(write_qfa(tmp_path, "even_head_odd_tail_qfa")), str(write_qfa(tmp_path, "odd_head_odd_tail_qfa"))
    calls = [
        ["simulate", k2, "abba"],
        ["simulate", k2, "--all-up-to", "5", "--oracle", "even_head_odd_tail", "--p", "0.6"],
        ["complement", k2, "-o", str(tmp_path / "complement.qfa")],
        ["union", k2, "0.75", k3, "0.75", "-o", str(tmp_path / "union.qfa")],
        ["decompose", k2, "--word", "b"],
        ["separability", k2, k3, "--oracle", "odd_tail", "--max-len", "4"],
        ["fixtures", "emit", "odd_head_odd_tail_qfa"],
    ]
    proc = run_fresh(NUMERIC_SCRIPT, json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False", "qfalab.fragments was loaded"


def test_main_starts_blas_with_one_thread_unless_told_otherwise(tmp_path):
    calls = [
        ["synthesize", str(write_dfa(tmp_path, "even_head_odd_tail")), "-o", str(tmp_path / "compiled.qfa")],
        ["simulate", str(tmp_path / "compiled.qfa"), "--all-up-to", "8", "--oracle", "even_head_odd_tail",
         "--p", "0.6"],
        ["union", str(tmp_path / "compiled.qfa"), "0.75", str(write_qfa(tmp_path, "odd_head_odd_tail_qfa")),
         "0.75", "-o", str(tmp_path / "union.qfa")],
        ["decompose", str(tmp_path / "union.qfa"), "--word", "ab", "--word2", "b"],
        ["separability", str(tmp_path / "compiled.qfa"), str(tmp_path / "union.qfa"),
         "--oracle", "odd_tail", "--max-len", "5"],
    ]
    default, preset = (run_fresh(NUMERIC_SCRIPT, json.dumps(calls), blas_threads=n) for n in (None, "2"))
    assert default.returncode == 0, default.stderr
    assert preset.returncode == 0, preset.stderr
    *default_outputs, default_threads, _ = default.stdout.splitlines()
    *preset_outputs, preset_threads, _ = preset.stdout.splitlines()
    assert (default_threads, preset_threads) == ("1", "2")
    assert default_outputs == preset_outputs
