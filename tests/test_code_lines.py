"""Tests for ``tools/code_lines.py``, the code-line counter."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


def f(x):
    """Function docstring."""
    return os.path.join(x,
                        "y")
'''


def test_counts_code_lines_only():
    # import, def, and both lines of the two-line return
    assert _tool().count_code_lines(SNIPPET) == 4


def test_prints_a_count_per_file_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["4", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["5", "total"],
    ]
