"""The README's library example runs as printed and gives what its comments say."""

from __future__ import annotations

import math
import re
from pathlib import Path

from addobs_certify.entanglement import VerdictStatus

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), names)
    assert names["verdict"].status is VerdictStatus.ENTANGLED_CERTIFIED
    assert abs(names["cert"].f_max - 2.0 * math.sqrt(2.0)) <= 1e-12
    assert 0.0 <= names["gap"] <= 1e-9
