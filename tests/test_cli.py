"""End-to-end tests of the command-line interface and its exit codes."""

from __future__ import annotations

import argparse
import importlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from addobs_certify import chsh, cli, entanglement, structure
from addobs_certify.higgs_zz import params_from_measured, rho_from_params
from addobs_certify.linalg import eigenvalues_hermitian
from addobs_certify.structure import pt_block_decomposition

from helpers import bell_system, benchmark_corpus


def write_doc(path, j_a, j_b, j_total, matrix) -> str:
    mat = np.asarray(matrix, dtype=complex)
    doc = {
        "dimA": len(j_a),
        "dimB": len(j_b),
        "jA": list(j_a),
        "jB": list(j_b),
        "jTotal": j_total,
        "matrix": [
            [{"re": float(z.real), "im": float(z.imag)} for z in row] for row in mat
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def bell_doc(tmp_path):
    s, rho = bell_system()
    return write_doc(tmp_path / "bell.json", s.j_alice, s.j_bob, s.j_total, rho.matrix)


@pytest.fixture()
def higgs_doc(tmp_path):
    rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
    return write_doc(tmp_path / "higgs.json", s.j_alice, s.j_bob, s.j_total, rho.matrix)


@pytest.fixture()
def diagonal_doc(tmp_path):
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = mat[2, 2] = 0.5
    return write_doc(tmp_path / "diag.json", (0.5, -0.5), (0.5, -0.5), 0.0, mat)


@pytest.fixture()
def off_shell_doc(tmp_path):
    # one diagonal entry off the J shell
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 0.25
    mat[1, 1] = 0.375
    mat[2, 2] = 0.375
    return write_doc(tmp_path / "bad.json", (0.5, -0.5), (0.5, -0.5), 0.0, mat)


class TestValidate:
    def test_valid_higgs(self, higgs_doc, capsys):
        assert cli.main(["validate", higgs_doc]) == 0
        assert "texture: VALID" in capsys.readouterr().out

    def test_off_shell_entry(self, off_shell_doc, capsys):
        assert cli.main(["validate", off_shell_doc, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["textureValid"] is False
        assert len(payload["textureViolations"]) == 1
        assert payload["textureViolations"][0]["row"] == 0

    def test_truncated_file(self, tmp_path, capsys):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"dimA": 2, "dimB"')
        assert cli.main(["validate", str(bad)]) == 1

    def test_missing_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_shape_error(self, tmp_path):
        doc = {
            "dimA": 2, "dimB": 2, "jA": [0.5, -0.5], "jB": [0.5, -0.5],
            "jTotal": 0.0, "matrix": [[0.0] * 3] * 3,
        }
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 1

    def test_zero_tol_flag(self, tmp_path, capsys):
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = mat[2, 2] = 0.5
        mat[0, 0] = 1e-9  # only visible below the loosened tolerance
        mat[1, 1] -= 1e-9
        path = write_doc(tmp_path / "tiny.json", (0.5, -0.5), (0.5, -0.5), 0.0, mat)
        assert cli.main(["validate", path, "--zero-tol", "1e-6"]) == 0
        capsys.readouterr()
        assert cli.main(["validate", path, "--zero-tol", "1e-12"]) == 2


class TestCertify:
    def test_bell_state(self, bell_doc, capsys):
        assert cli.main(["certify", bell_doc]) == 0
        out = capsys.readouterr().out
        assert "verdict: ENTANGLED_CERTIFIED" in out
        assert "fMax = 2.828427124746" in out

    def test_higgs_fmax(self, higgs_doc, capsys):
        assert cli.main(["certify", higgs_doc, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entanglementVerdict"]["status"] == "ENTANGLED_CERTIFIED"
        assert payload["chshCertificate"]["fMax"] == pytest.approx(2.4742227, abs=1e-6)
        assert payload["minPtEigenvalue"] < 0
        assert payload["reducedPurities"]["A"] == pytest.approx(0.44, abs=1e-12)

    def test_diagonal_state(self, diagonal_doc, capsys):
        assert cli.main(["certify", diagonal_doc, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entanglementVerdict"]["status"] == "SEPARABLE_CERTIFIED"
        assert payload["chshCertificate"] is None

    def test_min_pt_below_psd_tol_certifies_without_witness(self, tmp_path, capsys):
        # the Bell coherence 1e-7 hides below --zero-tol 1e-6, but the min
        # PT it leaves, -1e-7, lies below psd_tol: entangled, with no witness
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = mat[2, 2] = 0.5
        mat[1, 2] = mat[2, 1] = 1e-7
        path = write_doc(tmp_path / "weak.json", (0.5, -0.5), (0.5, -0.5), 0.0, mat)
        assert cli.main(["certify", path, "--zero-tol", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "verdict: ENTANGLED_CERTIFIED\nmin PT eigenvalue: -1e-07\n" in out
        assert "witness" not in out
        assert cli.main(["certify", path, "--zero-tol", "1e-6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entanglementVerdict"] == {"status": "ENTANGLED_CERTIFIED", "witness": None}
        assert payload["minPtEigenvalue"] == pytest.approx(-1e-7, rel=1e-9)

    def test_texture_violation_exits_2(self, off_shell_doc, capsys):
        assert cli.main(["certify", off_shell_doc]) == 2
        assert "INVALID" in capsys.readouterr().out

    def test_grid_cross_check(self, bell_doc, capsys):
        assert cli.main(["certify", bell_doc, "--format", "json", "--grid", "96x192"]) == 0
        payload = json.loads(capsys.readouterr().out)
        grid = payload["chshCertificate"]["gridCheck"]
        assert grid["nTheta"] == 96 and grid["nPhi"] == 192
        assert grid["fGrid"] == pytest.approx(2 * math.sqrt(2), abs=1e-4)
        assert 0 <= grid["gap"] < 1e-4

    def test_grid_without_anchor_is_skipped(self, diagonal_doc, capsys):
        # no anchor, so nothing to cross-check: the run succeeds without a grid report
        assert cli.main(["certify", diagonal_doc, "--grid", "8x8"]) == 0
        out = capsys.readouterr().out
        assert "CHSH: no anchor entry; no violation certified" in out
        assert "grid" not in out
        assert cli.main(["certify", diagonal_doc, "--grid", "8x8", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["chshCertificate"] is None
        assert "gridCheck" not in out

    def test_bad_grid_spec(self, bell_doc):
        assert cli.main(["certify", bell_doc, "--grid", "coarse"]) == 1

    def test_json_report_round_trips(self, higgs_doc, capsys):
        assert cli.main(["certify", higgs_doc, "--format", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True) == out.strip()

    def test_reports_are_byte_identical(self, higgs_doc, capsys):
        cli.main(["certify", higgs_doc, "--format", "json"])
        first = capsys.readouterr().out
        cli.main(["certify", higgs_doc, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_no_settings_matrices_built(self, higgs_doc, monkeypatch):
        # a certificate is its anchor, orders, fMax and angles; the settings
        # matrices are built only when a caller asks build_observables
        calls = []
        real = chsh.build_observables

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(chsh, "build_observables", counting)
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        assert chsh.certify_nonlocality(rho, s) is not None
        assert cli.main(["certify", higgs_doc, "--grid", "8x8"]) == 0
        assert cli.main(["certify", higgs_doc, "--format", "json"]) == 0
        assert calls == []
        chsh.build_observables(0.0, 0.0, 2, 2)
        assert len(calls) == 1


class TestHiggs:
    def test_table_point(self, capsys):
        assert cli.main(["higgs", "--a12", "0.33", "--a13", "0.20", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f12"] == pytest.approx(2.4742227, abs=1e-6)
        assert payload["f13"] == pytest.approx(2.3313708, abs=1e-6)

    def test_zero_couplings(self, capsys):
        assert cli.main(["higgs", "--a12", "0", "--a13", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f12"] == 2.0
        assert payload["f13"] == 2.0

    def test_significances(self, capsys):
        code = cli.main(
            ["higgs", "--a12", "-0.33", "--a13", "0.20",
             "--sigma12", "0.10", "--sigma13", "0.12", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["significance12"] == pytest.approx(3.3)
        assert payload["significance13"] == pytest.approx(1.0 / 0.6)

    def test_tables_all_pass(self, capsys):
        assert cli.main(["higgs", "--tables"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 32
        assert "FAIL" not in out
        assert "ALL CHECKS: PASS (32/32)" in out

    def test_tables_json(self, capsys):
        assert cli.main(["higgs", "--tables", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["allPass"] is True
        assert len(payload["columns"]) == 8

    def test_non_psd_values_exit_2(self, capsys):
        assert cli.main(["higgs", "--a12", "0.9", "--a13", "0.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: not positive semi-definite: min eigenvalue -8.675e-01\n"

    def test_missing_values_usage_error(self, capsys):
        assert cli.main(["higgs"]) == 1

    @pytest.mark.parametrize("flag", ["--a12", "--a13", "--sigma12", "--sigma13"])
    def test_tables_with_measurement_flag_usage_error(self, flag, capsys):
        assert cli.main(["higgs", "--tables", flag, "0.9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tables takes no" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [("--a12", "nan"), ("--a13", "inf"), ("--sigma12", "inf"), ("--sigma13", "nan"), ("--a12", "-inf")],
    )
    def test_non_finite_values_usage_error(self, flag, value, capsys):
        values = {"--a12": "0.33", "--a13": "0.20", flag: value}
        argv = ["higgs", *(f"{k}={v}" for k, v in values.items())]
        assert cli.main(argv) == 1
        assert f"argument {flag}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sigma12", "--sigma13"])
    @pytest.mark.parametrize("value", ["0", "-0.1"])
    def test_nonpositive_sigma_usage_error(self, flag, value, capsys):
        values = {"--a12": "0.3", "--a13": "0.2", flag: value}
        argv = ["higgs", *(f"{k}={v}" for k, v in values.items())]
        assert cli.main(argv) == 1
        assert f"argument {flag}: must be positive" in capsys.readouterr().err


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_significance_is_domain_error(self, fmt, capsys):
        # |a12| / sigma12 = 0.33 / 1e-320 overflows to inf, which no JSON number spells
        argv = ["higgs", "--a12", "0.33", "--a13", "0.2", "--sigma12", "1e-320", "--format", fmt]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: significance")


class TestParsing:
    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_version_exits_zero(self):
        assert cli.main(["--version"]) == 0

    def test_pyproject_version_is_the_tool_version(self):
        # every report's toolVersion is __version__, and the wheel takes its
        # version from pyproject.toml (read by regex: Python 3.10 has no tomllib)
        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
        project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == cli.__version__

    def test_plain_number_entries_accepted(self, tmp_path):
        doc = {
            "dimA": 2, "dimB": 2, "jA": [0.5, -0.5], "jB": [0.5, -0.5],
            "jTotal": 0.0,
            "matrix": [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
        }
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 0

    def test_bad_entry_type_rejected(self, tmp_path):
        doc = {
            "dimA": 1, "dimB": 1, "jA": [0.0], "jB": [0.0], "jTotal": 0.0,
            "matrix": [["one"]],
        }
        path = tmp_path / "bad_entry.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 1

    def test_non_psd_document_is_domain_error(self, tmp_path):
        mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        path = write_doc(tmp_path / "npsd.json", (0.5, -0.5), (0.5, -0.5), 1.0, mat)
        assert cli.main(["validate", str(path)]) == 2


class TestArgumentChecks:
    @pytest.mark.parametrize("command", ["validate", "certify"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "tiny"])
    def test_bad_zero_tol_is_usage_error(self, bell_doc, command, tol, capsys):
        assert cli.main([command, bell_doc, f"--zero-tol={tol}"]) == 1
        assert "--zero-tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "certify"])
    def test_zero_tol_zero_accepted(self, bell_doc, command):
        assert cli.main([command, bell_doc, "--zero-tol", "0"]) == 0

    @pytest.mark.parametrize("spec", ["1x1", "1x64", "64x1", "0x0", "-4x8"])
    def test_grid_below_two_is_usage_error(self, bell_doc, diagonal_doc, spec, capsys):
        # rejected at parse time, also when the state has no anchor to check
        assert cli.main(["certify", bell_doc, "--grid", spec]) == 1
        assert cli.main(["certify", diagonal_doc, "--grid", spec]) == 1
        assert "--grid" in capsys.readouterr().err

    def test_smallest_grid_accepted(self, bell_doc):
        assert cli.main(["certify", bell_doc, "--grid", "2x2"]) == 0

    def test_grid_beyond_limit_rejected_at_parse_time(self, capsys):
        # parsed only: a grid this size is never run
        assert cli._parse_grid("4096x4096") == (4096, 4096)
        for spec in ("4097x4096", "2x8388609", "16777217x2"):
            with pytest.raises(argparse.ArgumentTypeError, match="at most 16777216 points"):
                cli._parse_grid(spec)
        with pytest.raises(SystemExit) as info:
            cli._build_parser().parse_args(["certify", "doc.json", "--grid", "4097x4097"])
        assert info.value.code != 0
        assert "--grid" in capsys.readouterr().err


BAD_LABEL_DOCS = {
    # no pair sums to J: the constrained state space is empty
    "empty_shell": {"dimA": 1, "dimB": 1, "jA": [1], "jB": [1], "jTotal": 0, "matrix": [[1]]},
    # Alice's label sums to J within EPS_J with two Bob labels 1.8e-9 apart
    "ambiguous": {
        "dimA": 1, "dimB": 2, "jA": [0], "jB": [-6e-10, 1.2e-9], "jTotal": 3e-10,
        "matrix": [[0.5, 0], [0, 0.5]],
    },
}


class TestBadLabels:
    @pytest.mark.parametrize("command", ["validate", "certify"])
    @pytest.mark.parametrize("name", sorted(BAD_LABEL_DOCS))
    def test_bad_labels_are_domain_errors(self, tmp_path, command, name, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(BAD_LABEL_DOCS[name]))
        assert cli.main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert ("ambiguous labels" if name == "ambiguous" else "no basis pair satisfies") in err


@pytest.mark.parametrize("command", ["validate", "certify"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("extreme", [1e308, -1e308])
def test_overflowing_label_sum_is_domain_error(tmp_path, command, fmt, extreme, capsys):
    # finite labels whose sum M + P at (0, 0) overflows: the row label sum of
    # the off-shell entry rho[0, 0] would be reported as inf
    doc = {
        "dimA": 2, "dimB": 2, "jA": [extreme, 0], "jB": [extreme, 0], "jTotal": 0,
        "matrix": [[0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.5]],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: label sums M + P must be finite\n"


BOOLEAN_DOCS = {
    "dims_and_entry": {"dimA": True, "dimB": True, "jA": [0], "jB": [0], "jTotal": 0, "matrix": [[True]]},
    "dim": {"dimA": True, "dimB": 1, "jA": [0], "jB": [0], "jTotal": 0, "matrix": [[1]]},
    "label": {"dimA": 1, "dimB": 1, "jA": [False], "jB": [0], "jTotal": 0, "matrix": [[1]]},
    "total": {"dimA": 1, "dimB": 1, "jA": [0], "jB": [0], "jTotal": False, "matrix": [[1]]},
    "plain_entry": {"dimA": 1, "dimB": 1, "jA": [0], "jB": [0], "jTotal": 0, "matrix": [[True]]},
    "re": {"dimA": 1, "dimB": 1, "jA": [0], "jB": [0], "jTotal": 0, "matrix": [[{"re": True}]]},
    "im": {"dimA": 1, "dimB": 1, "jA": [0], "jB": [0], "jTotal": 0, "matrix": [[{"re": 1, "im": False}]]},
}


class TestJsonBooleans:
    @pytest.mark.parametrize("command", ["validate", "certify"])
    @pytest.mark.parametrize("name", sorted(BOOLEAN_DOCS))
    def test_booleans_rejected(self, tmp_path, command, name, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(BOOLEAN_DOCS[name]))
        assert cli.main([command, str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_integer_document_accepted(self, tmp_path):
        doc = {"dimA": 1, "dimB": 1, "jA": [0], "jB": [0], "jTotal": 0, "matrix": [[1]]}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", str(path)]) == 0


def test_certify_tests_a_sector_between_zero_tol_and_eps_zero(tmp_path, capsys):
    # the sector (1, -1) has trace 5e-13, above --zero-tol 1e-15 and below
    # EPS_ZERO = 1e-12: the block-PPT rung tests it rather than failing
    mat = np.zeros((16, 16), dtype=complex)
    for k in (0, 1, 4, 5):
        mat[k, k] = (1 - 5e-13) / 4
    mat[10, 10] = 5e-13
    path = write_doc(tmp_path / "faint.json", (0, 0, 1, 1), (0, 0, -1, -1), 0, mat)
    assert cli.main(["certify", path, "--format", "json", "--zero-tol", "1e-15"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entanglementVerdict"]["status"] == "SEPARABLE_CERTIFIED"


def _expected_solves(rho, s) -> list[tuple[str, int]]:
    """(solver, block size) for each PT block of ``rho`` holding a nonzero
    entry: ``eigvalsh`` for a sector block, ``svd`` for a cross block."""
    decomposition = pt_block_decomposition(rho, s)
    return sorted(
        [("eigvalsh", len(b.matrix)) for b in decomposition.type_a if np.count_nonzero(b.matrix)]
        + [("svd", len(b.matrix)) for b in decomposition.type_b if np.count_nonzero(b.matrix)]
    )


def _count_pt_solves(monkeypatch) -> list[tuple[str, int]]:
    """A list that records each later solve as (solver, block size):
    ``eigenvalues_hermitian`` as called from ``structure`` and
    ``entanglement``, and ``np.linalg.svd`` of a cross block's coupling,
    whose rows plus columns are the block's size."""
    solves = []
    svd = np.linalg.svd

    def counting_eigenvalues(h, *args, **kwargs):
        solves.append(("eigvalsh", len(h)))
        return eigenvalues_hermitian(h, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        solves.append(("svd", sum(np.shape(a))))
        return svd(a, *args, **kwargs)

    for module in (structure, entanglement):
        monkeypatch.setattr(module, "eigenvalues_hermitian", counting_eigenvalues)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return solves


@pytest.mark.parametrize("kind", ["chain_sector_diagonal", "chain_full_support"])
def test_certify_scans_once_and_solves_each_pt_block_once(kind, tmp_path, monkeypatch, capsys):
    # one `certify` run on a 4|4 chain document (dim 256): the load finds the
    # live indices once and every later step reads them, so no flatnonzero
    # or count_nonzero call sees all dim x dim entries; one texture scan, on
    # the live x live mask, for the texture, the crossed entries and the
    # anchors; and one solve per PT block holding a nonzero entry (eigvalsh
    # of a sector block, the SVD of a cross block's coupling), shared by the
    # minimum PT eigenvalue and the block-PPT rung
    corpus = benchmark_corpus()
    path = tmp_path / f"{kind}.json"
    path.write_text(corpus.document_text(getattr(corpus, kind)(730, 0, 4)))
    s, rho = cli.load_document(str(path))
    expected = _expected_solves(rho, s)

    n_live = len(rho._live)
    assert n_live < s.dim
    passes, scans = [], []

    def counting(name):
        original = getattr(np, name)

        def count(a, *args, **kwargs):
            if np.size(a) == s.dim * s.dim:
                passes.append(name)
            if name == "flatnonzero" and np.ndim(a) == 2:
                scans.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, name, count)

    counting("flatnonzero")
    counting("count_nonzero")
    solves = _count_pt_solves(monkeypatch)
    assert cli.main(["certify", str(path)]) == 0
    assert "texture: VALID" in capsys.readouterr().out
    assert passes == []
    assert scans == [(n_live, n_live)]
    assert sorted(solves) == expected


@pytest.mark.parametrize("kind", ["chain_sector_diagonal", "chain_full_support"])
def test_public_calls_on_one_state_share_its_record(kind, tmp_path, monkeypatch):
    # the library calls on one DensityMatrix of a 4|4 chain document read the
    # record the state keeps: together they make one texture scan, on the
    # live x live mask, and one solve per PT block holding a nonzero entry,
    # counted as in the test above
    corpus = benchmark_corpus()
    path = tmp_path / f"{kind}.json"
    path.write_text(corpus.document_text(getattr(corpus, kind)(730, 0, 4)))
    s, rho = cli.load_document(str(path))
    other_s, other = cli.load_document(str(path))  # the blocks, from a state of its own
    expected = _expected_solves(other, other_s)

    n_live = len(rho._live)
    passes, scans = [], []

    def counting(name):
        original = getattr(np, name)

        def count(a, *args, **kwargs):
            if np.size(a) == s.dim * s.dim:
                passes.append(name)
            if name == "flatnonzero" and np.ndim(a) == 2:
                scans.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, name, count)

    counting("flatnonzero")
    counting("count_nonzero")
    solves = _count_pt_solves(monkeypatch)
    assert structure.validate_additivity(rho, s) == []
    entanglement.certify(rho, s)
    chsh.certify_nonlocality(rho, s)
    structure.min_pt_eigenvalue(rho, s)
    entanglement.find_crossed_entries(rho, s)
    chsh.find_anchor_entries(rho, s)
    assert passes == []
    assert scans == [(n_live, n_live)]
    assert sorted(solves) == expected


@pytest.mark.parametrize("kind", ["chain_sector_diagonal", "chain_full_support"])
def test_changing_zero_tol_solves_no_pt_block_again(kind, tmp_path, monkeypatch):
    # neither the PT blocks nor their spectra depend on zero_tol, so three
    # rounds of certify at 1e-10, min_pt_eigenvalue (no tolerance) and
    # validate_additivity at 0 on one 4|4 chain state make one solve per PT
    # block holding a nonzero entry, counted as above, and answer as a fresh
    # state does
    corpus = benchmark_corpus()
    path = tmp_path / f"{kind}.json"
    path.write_text(corpus.document_text(getattr(corpus, kind)(730, 0, 4)))
    s, rho = cli.load_document(str(path))

    def answers(state):
        return (
            entanglement.certify(state, s, 1e-10),
            structure.min_pt_eigenvalue(state, s),
            structure.validate_additivity(state, s, 0.0),
        )

    fresh = answers(cli.load_document(str(path))[1])
    other_s, other = cli.load_document(str(path))
    expected = _expected_solves(other, other_s)
    solves = _count_pt_solves(monkeypatch)
    for _ in range(3):
        assert answers(rho) == fresh
    assert sorted(solves) == expected


def test_console_script_target_is_callable():
    # the [project.scripts] entry that `pip install` turns into `addobs-certify`
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    target = re.search(r'^addobs-certify\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert target is not None
    module = importlib.import_module(target.group(1))
    assert callable(getattr(module, target.group(2)))


@pytest.mark.parametrize("separators", [None, (",", ":")], ids=["default", "compact"])
@pytest.mark.parametrize("kind", ["chain_sector_diagonal", "chain_full_support"])
def test_json_reads_two_numbers_per_nonzero_entry_and_no_zero_row(kind, separators, tmp_path, monkeypatch):
    # a 4|4 chain document (dim 256) is mostly zero entries in mostly
    # all-zero rows; json reads the head without the matrix (the hook runs on
    # its root object alone) and the re and im of each nonzero entry, no text
    # it reads holds a zero entry, and only the rows that hold a nonzero
    # entry are cut (one bytes.split each)
    corpus = benchmark_corpus()
    text = corpus.document_text(getattr(corpus, kind)(730, 0, 4))
    if separators is not None:
        text = json.dumps(json.loads(text), separators=separators)
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    zero = json.dumps({"re": 0.0, "im": 0.0}, separators=separators)
    assert 0 < text.count(zero) < 256 * 256
    loads, hook = json.loads, cli._entry_hook
    texts, numbers, hooked, splits = [], [], [], []

    def counting_loads(s, **kwargs):
        texts.append(s)
        return loads(s, parse_int=lambda t: numbers.append(t) or int(t),
                     parse_float=lambda t: numbers.append(t) or float(t), **kwargs)

    def counting_hook(obj):
        hooked.append(sorted(obj))
        return hook(obj)

    def count_splits(frame, event, arg):
        if event == "c_call" and arg.__name__ == "split" and type(arg.__self__) is bytes:
            splits.append(arg.__self__)

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(cli, "_entry_hook", counting_hook)
    sys.setprofile(count_splits)
    try:
        s, rho = cli.load_document(str(path))
    finally:
        sys.setprofile(None)
    nnz = np.count_nonzero(rho.matrix)
    assert 256 * 256 - text.count(zero) == nnz
    assert len(numbers) == 3 + s.d_a + s.d_b + 2 * nnz  # dimA, dimB, jTotal, the labels
    assert hooked == [["dimA", "dimB", "jA", "jB", "jTotal", "matrix"]]
    assert not any(zero in t for t in texts)
    assert 0 < len(splits) == np.count_nonzero(rho.matrix.any(axis=1)) < 256
