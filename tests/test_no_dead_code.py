"""No dead code: every top-level name and method of the library is used somewhere.

Each top-level function, class or assigned name in `src/qfalab/*.py` (dunders
aside) must appear as a whole word in some Python file under `src/`,
`tests/`, `scripts/` or `perfbench/`, outside the lines of its own
definition.  Each method or property of a top-level class (dunders aside)
must appear there as `.name`, outside the lines of its own definition.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "qfalab").glob("*.py"))
SEARCHED = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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
            if not is_dunder(name):
                yield name, node.lineno, node.end_lineno


def methods(tree: ast.Module):
    """(name, first line, last line) of each method or property of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not is_dunder(node.name):
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    yield node.name, first, node.end_lineno


def unused(definitions, pattern: str) -> list[str]:
    """Each definition, from `definitions(tree)` of a library file, whose
    `pattern` (formatted with the escaped name) appears nowhere outside it."""
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in SEARCHED}
    found = []
    for path in LIBRARY:
        for name, first, last in definitions(ast.parse("\n".join(lines[path]))):
            word = re.compile(pattern.format(re.escape(name)))
            used = any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, start=1)
                if not (other == path and first <= number <= last)
            )
            if not used:
                found.append(f"{path.name}: {name}")
    return found


def test_every_top_level_name_is_used():
    assert unused(top_level_definitions, r"\b{}\b") == []


def test_every_method_is_used():
    assert unused(methods, r"\.{}\b") == []
