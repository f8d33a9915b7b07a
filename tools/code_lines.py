"""Count the code lines of Python files.

A code line is a physical line that holds a token of code: blank lines,
comment-only lines and docstrings do not count. A docstring here is any
string that is a statement on its own (the first statement of a module,
class or function, or a bare string anywhere else). Every line of a
statement that spans several lines counts. Uses the standard library only.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them (default
``src``). Prints each file's count and the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code of their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count_code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the code tokens of the current logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    """The ``.py`` files named by ``paths``, directories searched, sorted."""
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str] | None = None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = 0
    for path in python_files(paths):
        n = count_code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
