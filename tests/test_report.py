"""The text and JSON reports of ``certify`` and ``validate`` tell the same story.

Generated states of dim 4-64 (with and without anchor entries, some pushed
off the texture) are written as documents, and each command is run on each
in both formats. Every text line is rebuilt here from the JSON report's
values, in the text's formats (``.12g``, ``.12f``, ``.3e``), and must equal
the line printed; so every number of the text equals its JSON value, and
both reports list the same violations, witness, sectors and certificate.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addobs_certify import cli

from helpers import (
    chain_structure,
    make_rng,
    random_anchored_system,
    random_product_mixture,
    random_shell_state,
    random_structure,
    sector_diagonal_state,
)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_json(argv) -> tuple[int, dict]:
    code, out = run([*argv, "--format", "json"])
    return code, json.loads(out, parse_constant=_no_constant)


# --- the text each JSON value dictates ---


def texture_lines(violations: list[dict]) -> list[str]:
    if not violations:
        return ["texture: VALID"]
    lines = [f"texture: INVALID ({len(violations)} violating entries)"]
    for v in violations:
        lines.append(
            f"  entry ({v['row']},{v['col']}) = rho[(m={v['aliceRow']},p={v['bobRow']}),"
            f"(n={v['aliceCol']},q={v['bobCol']})] |value| = {v['magnitude']:.12g}"
            f" label sums ({v['rowLabelSum']:.12g}, {v['colLabelSum']:.12g})"
        )
    return lines


def witness_lines(w: dict | None) -> list[str]:
    if w is None:
        return []
    if w["kind"] == "crossed_entry":
        (m, n), (p, q), z = w["alice"], w["bob"], w["value"]
        return [f"witness: crossed entry rho[({m},{p}),({n},{q})] = {z['re']:.12g}{z['im']:+.12g}j"]
    assert w["kind"] == "ppt_block"
    return [
        f"witness: PPT block (M={w['mValue']:.12g}, Q={w['qValue']:.12g})"
        f" min eigenvalue {w['minEigenvalue']:.12g}"
    ]


def certificate_lines(c: dict | None) -> list[str]:
    if c is None:
        return ["CHSH: no anchor entry; no violation certified"]
    (m, n), (p, q), z = c["anchor"]["alice"], c["anchor"]["bob"], c["anchor"]["value"]
    lines = [
        f"CHSH: fMax = {c['fMax']:.12f}  theta = {c['thetaOpt']:.12g}  phi = {c['phiOpt']:.12g}",
        f"CHSH anchor: rho[(m={m},p={p}),(n={n},q={q})]  |value| = {abs(complex(z['re'], z['im'])):.12g}",
    ]
    if "gridCheck" in c:
        g = c["gridCheck"]
        lines.append(f"grid check ({g['nTheta']}x{g['nPhi']}): fGrid = {g['fGrid']:.12f}  gap = {g['gap']:.3e}")
    return lines


def certify_lines(report: dict) -> list[str]:
    lines = texture_lines(report["textureViolations"])
    if report["textureViolations"]:
        return lines
    verdict, purity = report["entanglementVerdict"], report["reducedPurities"]
    sectors = ", ".join(
        f"(M={c['mValue']:.12g},Q={c['qValue']:.12g}) {c['degM']}x{c['degQ']} {c['kind']}"
        for c in report["sectorClasses"]
    )
    return [
        *lines,
        f"verdict: {verdict['status']}",
        *witness_lines(verdict["witness"]),
        f"min PT eigenvalue: {report['minPtEigenvalue']:.12g}",
        f"reduced purity: A = {purity['A']:.12g}  B = {purity['B']:.12g}",
        f"shell sectors: {sectors}",
        *certificate_lines(report["chshCertificate"]),
    ]


# --- generated documents ---


def off_texture(rng: np.random.Generator, s, mat: np.ndarray) -> np.ndarray:
    """``mat`` mixed with a pure state on an off-shell position and one other:
    a state whose texture is broken on the diagonal and off it."""
    off_shell = sorted(set(range(s.dim)) - set(s.shell_flats))
    if not off_shell:
        return mat
    k = off_shell[int(rng.integers(len(off_shell)))]
    other = int(rng.integers(s.dim - 1))
    psi = np.zeros(s.dim, complex)
    psi[k], psi[other + (other >= k)] = 1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))
    w = rng.uniform(1e-3, 0.3)
    return (1 - w) * mat + w * np.outer(psi, psi.conj()) / 2


@st.composite
def documents(draw):
    """(structure, matrix, extra arguments) of dim 4-64."""
    rng = make_rng(draw(st.integers(0, 2**20)))
    kind = draw(st.sampled_from(["anchored", "shell", "product", "chain", "chain_sectors"]))
    if kind == "anchored":
        s, rho, _ = random_anchored_system(rng)
        mat = rho.matrix
    elif kind in ("shell", "product"):
        d_a = draw(st.integers(2, 8))
        s = random_structure(rng, d_a, draw(st.integers(2, 64 // d_a)))
        rho = random_shell_state(rng, s) if kind == "shell" else random_product_mixture(rng, s)
        mat = rho.matrix
    else:
        s = chain_structure(draw(st.integers(1, 3)))
        mat = random_shell_state(rng, s).matrix if kind == "chain" else sector_diagonal_state(rng, s)
    if rng.random() < 0.25:
        mat = off_texture(rng, s, mat)
    extra = []
    if draw(st.booleans()):
        extra += ["--zero-tol", draw(st.sampled_from(["0", "1e-9", "1e-4"]))]
    return s, mat, extra


def write_document(path, s, mat) -> str:
    doc = {
        "dimA": s.d_a, "dimB": s.d_b, "jA": list(s.j_alice), "jB": list(s.j_bob), "jTotal": s.j_total,
        "matrix": [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in mat],
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("report") / "doc.json"


@settings(max_examples=60, deadline=None)
@given(case=documents(), grid=st.booleans())
def test_text_and_json_reports_agree(case, grid, doc_path):
    s, mat, extra = case
    assert 4 <= s.dim <= 64
    path = write_document(doc_path, s, mat)

    code, validate = run_json(["validate", path, *extra])
    assert run(["validate", path, *extra]) == (code, "\n".join(texture_lines(validate["textureViolations"])) + "\n")
    assert validate["textureValid"] is (not validate["textureViolations"]) is (code == 0)

    argv = ["certify", path, *extra, *(["--grid", "8x8"] if grid else [])]
    certify_code, certify = run_json(argv)
    assert certify_code == code
    assert run(argv) == (code, "\n".join(certify_lines(certify)) + "\n")
    # one texture section: validate's, less its textureValid key
    assert certify["textureViolations"] == validate["textureViolations"]
    assert certify["toolVersion"] == validate["toolVersion"] == cli.__version__
    if certify["textureViolations"]:
        assert set(certify) == {"textureViolations", "toolVersion"}
    elif grid and certify["chshCertificate"] is not None:
        assert "gridCheck" in certify["chshCertificate"]
