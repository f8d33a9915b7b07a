"""The state-document loader against a per-entry reference.

``cli.load_document`` parses each document in one ``json.load`` pass that
turns well-formed ``{"re": x, "im": y}`` objects into numbers, and only
rebuilds rows holding anything else. ``reference_load`` below is the
per-entry loop it replaced; on every generated document both must give the
same matrix bits or the same ``DocumentError`` message.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addobs_certify import cli
from addobs_certify.cli import DocumentError, load_document

# --- per-entry reference ---


def _require(condition, message):
    if not condition:
        raise DocumentError(message)


def reference_entry(entry) -> complex:
    if isinstance(entry, dict):
        _require(set(entry) <= {"re", "im"}, f"unexpected keys in matrix entry: {sorted(entry)}")
        re = entry.get("re", 0.0)
        im = entry.get("im", 0.0)
        _require(
            type(re) in (int, float) and type(im) in (int, float),
            "matrix entry re/im must be numbers",
        )
        return complex(re, im)
    if type(entry) in (int, float):
        return complex(entry)
    raise DocumentError(f"matrix entries must be numbers or re/im objects, got {type(entry).__name__}")


def reference_load(text: str):
    """Labels and matrix as the per-entry loop read them (no density-matrix checks)."""
    data = json.loads(text)
    _require(isinstance(data, dict), "document root must be an object")
    for key in ("dimA", "dimB", "jA", "jB", "jTotal", "matrix"):
        _require(key in data, f"missing key {key!r}")
    d_a, d_b = data["dimA"], data["dimB"]
    _require(type(d_a) is int and d_a >= 1, "dimA must be a positive integer")
    _require(type(d_b) is int and d_b >= 1, "dimB must be a positive integer")
    j_a, j_b = data["jA"], data["jB"]
    _require(isinstance(j_a, list) and len(j_a) == d_a, "jA must be a list of length dimA")
    _require(isinstance(j_b, list) and len(j_b) == d_b, "jB must be a list of length dimB")
    labels = [*j_a, *j_b, data["jTotal"]]
    _require(all(type(v) in (int, float) for v in labels), "eigenvalue labels must be numbers")
    _require(np.isfinite(labels).all(), "eigenvalue labels must be finite")
    dim = d_a * d_b
    rows = data["matrix"]
    _require(isinstance(rows, list) and len(rows) == dim, f"matrix must have {dim} rows")
    mat = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == dim, f"matrix row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            mat[i, j] = reference_entry(entry)
    _require(bool(np.isfinite(mat).all()), "matrix entries must be finite")
    return (tuple(j_a), tuple(j_b), float(data["jTotal"])), mat


def new_load(path):
    """``load_document`` with the density-matrix checks stubbed out."""
    with mock.patch.object(cli, "DensityMatrix", lambda mat: mat):
        structure, mat = load_document(str(path))
    return (structure.j_alice, structure.j_bob, structure.j_total), mat


def outcome(load, arg):
    try:
        labels, mat = load(arg)
    except DocumentError as exc:
        return "error", str(exc)
    return labels, mat.dtype, mat.shape, mat.tobytes()


# --- generated documents ---

#: Integers inside float range, up to exactly-representable-plus-one and
#: beyond 2**53, where int -> float rounding matters.
in_range_ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 10**308, -(10**308)]),
)
numbers = st.one_of(in_range_ints, st.floats(allow_nan=False, allow_infinity=True))

good_entries = st.one_of(
    numbers,
    st.builds(lambda x, y: {"re": x, "im": y}, numbers, numbers),
    st.builds(lambda x, y: {"im": y, "re": x}, numbers, numbers),
    st.builds(lambda x: {"re": x}, numbers),
    st.builds(lambda y: {"im": y}, numbers),
    st.just({}),
)

bad_entries = st.one_of(
    st.booleans(),
    st.builds(lambda b, y: {"re": b, "im": y}, st.booleans(), numbers),
    st.builds(lambda x, b: {"im": b, "re": x}, numbers, st.booleans()),
    st.builds(lambda b: {"im": b}, st.booleans()),
    st.builds(lambda x, y: {"re": x, "im": y, "extra": 0}, numbers, numbers),
    st.builds(lambda x: {"real": x}, numbers),
    st.sampled_from(["1", "", None, [], [1.0], [{"re": 1, "im": 0}], math.nan]),
    st.builds(lambda y: {"re": math.nan, "im": y}, numbers),
    st.builds(lambda x: {"re": x, "im": "0"}, numbers),
    st.builds(lambda x: {"re": {"re": x, "im": 0}, "im": 0}, numbers),
)


@st.composite
def documents(draw):
    d_a = draw(st.integers(1, 2))
    d_b = draw(st.integers(1, 3))
    dim = d_a * d_b
    rows = [[draw(good_entries) for _ in range(dim)] for _ in range(dim)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        rows[i][j] = draw(bad_entries)
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, dim - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], 0.0]
    # every label 0 puts every pair on the shell J = 0
    return json.dumps(
        {"dimA": d_a, "dimB": d_b, "jA": [0] * d_a, "jB": [0.0] * d_b, "jTotal": 0, "matrix": rows}
    )


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("load") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(text=documents())
def test_loader_matches_per_entry_reference(text, doc_path):
    doc_path.write_text(text)
    assert outcome(new_load, doc_path) == outcome(reference_load, text)


def test_fixed_documents_match_reference(doc_path):
    # one document per path: rows taken as parsed, a row rebuilt for its
    # partial objects, and a row with a rejected entry
    whole = [[{"re": 0.5, "im": 0}, {"im": -0.25, "re": 1}], [2**53 + 1, 0.25]]
    partial = [[{"re": 0.5}, {}], [{"im": 1}, 0]]
    rejected = [[1, {"re": 1, "im": True}], [0, 0]]
    for rows in (whole, partial, rejected):
        text = json.dumps({"dimA": 1, "dimB": 2, "jA": [0], "jB": [0, 0], "jTotal": 0, "matrix": rows})
        doc_path.write_text(text)
        assert outcome(new_load, doc_path) == outcome(reference_load, text)
    assert outcome(new_load, doc_path) == ("error", "matrix entry re/im must be numbers")


# --- integers beyond float range ---

HUGE = "1" + "0" * 400


def _huge_doc(entry: str = "1", j_a: str = "0", j_b: str = "0", j_total: str = "0") -> str:
    return (
        f'{{"dimA": 1, "dimB": 1, "jA": [{j_a}], "jB": [{j_b}], "jTotal": {j_total},'
        f' "matrix": [[{entry}]]}}'
    )


HUGE_DOCS = {
    "plain_entry": (_huge_doc(entry=HUGE), "matrix entries must be finite"),
    "negative_entry": (_huge_doc(entry="-" + HUGE), "matrix entries must be finite"),
    "re": (_huge_doc(entry=f'{{"re": {HUGE}, "im": 0}}'), "matrix entries must be finite"),
    "im": (_huge_doc(entry=f'{{"im": -{HUGE}, "re": 1}}'), "matrix entries must be finite"),
    "re_alone": (_huge_doc(entry=f'{{"re": {HUGE}}}'), "matrix entries must be finite"),
    "jA": (_huge_doc(j_a=HUGE), "eigenvalue labels must be finite"),
    "jB": (_huge_doc(j_b="-" + HUGE), "eigenvalue labels must be finite"),
    "jTotal": (_huge_doc(j_total=HUGE), "eigenvalue labels must be finite"),
}


class TestHugeIntegers:
    @pytest.mark.parametrize("name", sorted(HUGE_DOCS))
    def test_rejected_as_document_error(self, tmp_path, name):
        text, message = HUGE_DOCS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with pytest.raises(DocumentError) as info:
            load_document(str(path))
        assert str(info.value) == message

    @pytest.mark.parametrize("command", ["validate", "certify"])
    @pytest.mark.parametrize("name", sorted(HUGE_DOCS))
    def test_exit_code_one(self, tmp_path, command, name, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(HUGE_DOCS[name][0])
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {HUGE_DOCS[name][1]}\n"

    def test_integer_in_float_range_is_read(self, tmp_path):
        # read as 2.0**1000, then rejected on its trace
        path = tmp_path / "big.json"
        path.write_text(_huge_doc(entry=str(2**1000)))
        assert cli.main(["validate", str(path)]) == 2


def test_re_im_root_is_not_an_object(tmp_path):
    path = tmp_path / "root.json"
    path.write_text('{"re": 1, "im": 0}')
    with pytest.raises(DocumentError, match="^document root must be an object$"):
        load_document(str(path))


# --- documents json.load cannot decode ---

UNDECODABLE_DOCS = {
    # a Latin-1 byte where UTF-8 expects a continuation byte
    "invalid_utf8": _huge_doc().replace('"jA"', '"j\xe9A"').encode("latin-1"),
    # beyond Python's int-conversion limit of 4,300 digits
    "long_integer": _huge_doc(entry="1" * 4301).encode("utf-8"),
}


class TestUndecodableDocuments:
    @pytest.mark.parametrize("name", sorted(UNDECODABLE_DOCS))
    def test_rejected_as_document_error(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNDECODABLE_DOCS[name])
        with pytest.raises(DocumentError):
            load_document(str(path))

    @pytest.mark.parametrize("command", ["validate", "certify"])
    @pytest.mark.parametrize("name", sorted(UNDECODABLE_DOCS))
    def test_exit_code_one(self, tmp_path, command, name, capsys):
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNDECODABLE_DOCS[name])
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
