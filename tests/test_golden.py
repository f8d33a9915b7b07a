"""Certify and validate reports on fixed documents, and higgs reports, byte for byte.

``tests/data/*.json`` are state documents and ``tests/data/golden/`` holds
the reports the CLI printed for them (see ``tests/data/README.md``). Any
change to a verdict, witness, violation, number or formatting shows up here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
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
    ("chain3_invalid", [], "chain3_invalid", 2),
]

#: The same for ``validate``; at ``--zero-tol 0.5`` the off-shell entry
#: (0.1) of texture_invalid vanishes.
VALIDATE_CASES = [
    ("bell", [], "bell", 0),
    ("higgs_zz", [], "higgs_zz", 0),
    ("chain3_full", [], "chain3_full", 0),
    ("chain3_sector", [], "chain3_sector", 0),
    ("texture_invalid", [], "texture_invalid", 2),
    ("texture_invalid", ["--zero-tol", "0.5"], "texture_invalid-tol", 0),
    ("chain3_invalid", [], "chain3_invalid", 2),
]

#: ``higgs`` arguments, report stem and exit code. A non-PSD core prints
#: nothing on stdout (its error goes to stderr).
HIGGS_CASES = [
    (["--tables"], "tables", 0),
    (["--a12", "-0.33", "--a13", "0.20", "--sigma12", "0.10", "--sigma13", "0.12"], "measured", 0),
    (["--a12", "0.9", "--a13", "0.5"], "non_psd", 2),
]

@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("doc, extra, stem, code", CASES, ids=[c[2] for c in CASES])
def test_certify_report_is_byte_identical(doc, extra, stem, code, fmt, suffix, capsys):
    argv = ["certify", str(DATA / f"{doc}.json"), "--format", fmt, *extra]
    assert cli.main(argv) == code
    expected = (DATA / "golden" / f"{stem}.certify.{suffix}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("doc, extra, stem, code", VALIDATE_CASES, ids=[c[2] for c in VALIDATE_CASES])
def test_validate_report_is_byte_identical(doc, extra, stem, code, fmt, suffix, capsys):
    argv = ["validate", str(DATA / f"{doc}.json"), "--format", fmt, *extra]
    assert cli.main(argv) == code
    expected = (DATA / "golden" / f"{stem}.validate.{suffix}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("extra, stem, code", HIGGS_CASES, ids=[c[1] for c in HIGGS_CASES])
def test_higgs_report_is_byte_identical(extra, stem, code, fmt, suffix, capsys):
    assert cli.main(["higgs", *extra, "--format", fmt]) == code
    expected = (DATA / "golden" / f"{stem}.higgs.{suffix}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def _dense_partial_transpose(doc: str):
    s, rho = cli.load_document(str(DATA / f"{doc}.json"))
    pt = np.swapaxes(rho.matrix.reshape(s.d_a, s.d_b, s.d_a, s.d_b), 1, 3).reshape(s.dim, s.dim)
    return s, pt


@pytest.mark.parametrize("doc, stem", [(c[0], c[2]) for c in CASES if c[3] == 0])
def test_golden_min_pt_eigenvalue_matches_dense_solve(doc, stem):
    # from dim 32 up (the chain3 documents) the reports take the minimum
    # block by block; it must agree with one dense eigensolve of the whole
    # partial transpose to round-off
    _, pt = _dense_partial_transpose(doc)
    report = json.loads((DATA / "golden" / f"{stem}.certify.json").read_text())
    assert abs(report["minPtEigenvalue"] - np.linalg.eigvalsh(pt)[0]) <= 1e-15


def test_golden_grid_check_stays_below_the_closed_form():
    # the grid oracle scores points of the angle family the closed form
    # maximizes, so it never exceeds fMax; refined three times from 64 x 128
    # it lands within 1e-10 of it
    cert = json.loads((DATA / "golden" / "chain3_full-grid.certify.json").read_text())["chshCertificate"]
    assert 0.0 <= cert["fMax"] - cert["gridCheck"]["fGrid"] <= 1e-10


def test_golden_ppt_block_witnesses_match_the_unit_trace_block():
    # a ppt_block witness is lambda_min(B) / Tr B of its sector block B; it
    # must agree with the eigensolve of B / Tr B, read from the dense partial
    # transpose, to round-off
    checked = 0
    for doc, _, stem, code in CASES:
        if code:
            continue
        report = json.loads((DATA / "golden" / f"{stem}.certify.json").read_text())
        witness = report["entanglementVerdict"]["witness"]
        if not witness or witness["kind"] != "ppt_block":
            continue
        s, pt = _dense_partial_transpose(doc)
        idx = [
            m * s.d_b + q
            for m in dict(s.alice_groups)[witness["mValue"]]
            for q in dict(s.bob_groups)[witness["qValue"]]
        ]
        assert len(idx) == witness["degM"] * witness["degQ"]
        block = pt[np.ix_(idx, idx)]
        expected = np.linalg.eigvalsh(block / np.trace(block).real)[0]
        assert abs(witness["minEigenvalue"] - expected) <= 1e-15
        checked += 1
    assert checked
