"""One BFS toolkit: no module of the library keeps a queue of its own.

Every breadth-first search in `src/` goes through `automata.bfs`, so the
words `deque` and `popleft` may appear only inside that function.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
QUEUE = re.compile(r"\b(deque|popleft)\b")


def bfs_lines(path: Path, text: str) -> range:
    """Line numbers of `automata.bfs`, or none outside automata.py."""
    if path.name == "automata.py":
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and node.name == "bfs":
                return range(node.lineno, node.end_lineno + 1)
    return range(0)


def test_queues_appear_only_in_bfs():
    stray = []
    for path in LIBRARY:
        text = path.read_text(encoding="utf-8")
        allowed = bfs_lines(path, text)
        for number, line in enumerate(text.splitlines(), start=1):
            if QUEUE.search(line) and number not in allowed:
                stray.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    assert stray == []
