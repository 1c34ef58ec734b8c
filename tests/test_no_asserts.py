"""No invariant of the package is written as an ``assert`` statement:
``python -O`` removes those, so every check raises explicitly."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toric_spectrum"


def test_no_assert_statement_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
