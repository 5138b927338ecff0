"""Smoke tests of the demo scripts, each run as `PYTHONPATH=src python3 scripts/<name>.py`."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_nonclosure_demo_runs():
    proc = run_script("nonclosure_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "FAILED" not in proc.stdout


def test_separability_demo_shows_the_limit_case():
    proc = run_script("separability_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "# limit_case: True" in proc.stderr.splitlines()


def test_separability_demo_puts_each_row_on_its_side_of_the_line():
    proc = run_script("separability_demo.py", "--oracle", "even_head_odd_tail")
    assert proc.returncode == 0, proc.stderr
    [line] = re.findall(r"^# line: (\S+) \* x \+ (\S+) \* y = (\S+)$", proc.stderr, re.MULTILINE)
    a, b, c = map(float, line)
    header, *rows = proc.stdout.splitlines()
    assert header == "word\tp1\tp2\tlabel"
    assert len(rows) == 2**7 - 1
    for row in rows:
        _, p1, p2, label = row.split("\t")
        side = 1 if label == "in" else -1
        assert side * (a * float(p1) + b * float(p2) - c) >= -1e-9, row
