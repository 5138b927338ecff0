"""No dead code: every top-level name of the library is used somewhere.

Each top-level function, class or assigned name in `src/qfalab/*.py` (dunders
aside) must appear as a whole word in some Python file under `src/`,
`tests/`, `scripts/` or `perfbench/`, outside the lines of its own
definition.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "qfalab").glob("*.py"))
SEARCHED = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


def top_level_definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def test_every_top_level_name_is_used():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in SEARCHED}
    unused = []
    for path in LIBRARY:
        for name, first, last in top_level_definitions(ast.parse("\n".join(lines[path]))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, start=1)
                if not (other == path and first <= number <= last)
            )
            if not used:
                unused.append(f"{path.name}: {name}")
    assert unused == []
