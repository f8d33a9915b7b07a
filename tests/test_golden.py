"""Certify reports on fixed documents, byte for byte.

``tests/data/*.json`` are state documents and ``tests/data/golden/`` holds
the reports the CLI printed for them (see ``tests/data/README.md``). Any
change to a verdict, witness, number or formatting shows up here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from addobs_certify import cli

DATA = Path(__file__).parent / "data"

#: (document, extra arguments, report stem, exit code)
CASES = [
    ("bell", [], "bell", 0),
    ("higgs_zz", [], "higgs_zz", 0),
    ("chain3_full", [], "chain3_full", 0),
    ("chain3_full", ["--grid", "64x128"], "chain3_full-grid", 0),
    ("chain3_sector", [], "chain3_sector", 0),
    ("texture_invalid", [], "texture_invalid", 2),
]


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("doc, extra, stem, code", CASES, ids=[c[2] for c in CASES])
def test_certify_report_is_byte_identical(doc, extra, stem, code, fmt, suffix, capsys):
    argv = ["certify", str(DATA / f"{doc}.json"), "--format", fmt, *extra]
    assert cli.main(argv) == code
    expected = (DATA / "golden" / f"{stem}.certify.{suffix}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected
