"""The code-line count of ``tools/src_lines.py``: docstrings, comments and
blank lines count for nothing, and every other line of a statement counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line

    return (x +
            1)


MESSAGE = """a string
that is code"""
'''


def test_counts_code_lines_only():
    # import, def, the two lines of the return and the two of MESSAGE
    assert src_lines.code_lines(SAMPLE) == 6


def test_counts_a_file_without_a_final_newline():
    assert src_lines.code_lines("x = 1\n'''not a docstring''' + 'y'") == 2
