"""The decision procedure loads without numpy.

Every condition `classify` checks is read off the minimal DFA, so parsing a
DFA, classifying it and replaying its witness need no linear algebra.  A
fresh interpreter does exactly that and then looks for numpy among its
loaded modules.  The DFA is not recognizable: a constructible verdict
still imports `synthesis.plan`, and with it numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

from qfalab.automata import dfa_to_json
from qfalab.fixtures import dfa_fixture

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = """
import sys
import qfalab, qfalab.automata, qfalab.fragments
dfa, _ = qfalab.automata.parse_dfa(open(sys.argv[1], encoding="utf-8").read())
verdict = qfalab.fragments.classify(dfa)
assert verdict.classification == qfalab.fragments.NOT_RECOGNIZABLE, verdict.classification
assert qfalab.fragments.verify_witness(verdict.minimal_dfa, verdict.witness).passed
assert "numpy" not in sys.modules, "numpy was loaded"
"""


def test_classify_and_verify_witness_leave_numpy_unloaded(tmp_path):
    path = tmp_path / "odd_tail.dfa"
    path.write_text(dfa_to_json(dfa_fixture("odd_tail")), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
