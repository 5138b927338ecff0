"""The decision procedure loads without numpy, in the library and in the CLI.

Every condition `classify` checks is read off the minimal DFA, so parsing a
DFA, classifying it, planning a constructible one and replaying a witness
need no linear algebra.  Each test runs a fresh interpreter that does that
and then looks for numpy among its loaded modules.
"""

import os
import subprocess
import sys
from pathlib import Path

from qfalab.automata import dfa_to_json
from qfalab.fixtures import dfa_fixture
from qfalab.fragments import classify, witness_to_json

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


def run_fresh(script: str, *argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
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
