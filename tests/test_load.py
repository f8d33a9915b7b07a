"""The state-document loader against a per-entry reference.

``cli.load_document`` reads the file once as bytes. A document in the
spelling ``json.dumps`` writes, with its default separators or with
``separators=(",", ":")`` and with or without ``sort_keys=True`` (which puts
``"im"`` before ``"re"`` in every entry), is read row by row from the bytes:
all-zero rows and zero entries are recognised by comparison with their
text, and only the re and im numbers of the other entries reach ``json``.
Any other document, mixed key orders included, is parsed whole in one
``json`` pass that turns well-formed ``{"re": x, "im": y}`` objects into
numbers, and only rows holding anything else are rebuilt.
``reference_load`` below is the per-entry loop both replaced; on every
generated document, canonical or with one byte changed, deleted or
inserted, it and the loader must give the same matrix bits or the same
``DocumentError`` message, positions in invalid JSON included.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addobs_certify import cli
from addobs_certify.cli import DocumentError, load_document
from addobs_certify.structure import AdditiveStructure

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
        try:
            return complex(re, im)
        except OverflowError:  # an integer beyond float range
            raise DocumentError("matrix entries must be finite") from None
    if type(entry) in (int, float):
        try:
            return complex(entry)
        except OverflowError:  # found by the finiteness check after the rows
            return complex(math.inf)
    raise DocumentError(f"matrix entries must be numbers or re/im objects, got {type(entry).__name__}")


def reference_load(path):
    """Labels (through ``AdditiveStructure``) and matrix as the per-entry loop
    read them (no density-matrix checks)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
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
    s = AdditiveStructure(tuple(j_a), tuple(j_b), float(data["jTotal"]))
    return (s.j_alice, s.j_bob, s.j_total), mat


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
    except ValueError as exc:  # labels AdditiveStructure rejects
        return "labels", str(exc)
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

#: What ``json.dumps`` writes for a zero entry.
ZERO = '{"re": 0.0, "im": 0.0}'
assert json.dumps({"re": 0.0, "im": 0.0}) == ZERO

good_entries = st.one_of(
    numbers,
    st.builds(lambda x, y: {"re": x, "im": y}, numbers, numbers),
    st.builds(lambda x, y: {"im": y, "re": x}, numbers, numbers),
    st.builds(lambda x: {"re": x}, numbers),
    st.builds(lambda y: {"im": y}, numbers),
    st.just({}),
)

bad_entries = st.one_of(
    st.none(),
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
    st.just({"re": {"re": 0.0, "im": 0.0}, "im": 0}),
)


@st.composite
def documents(draw):
    d_a = draw(st.integers(1, 2))
    d_b = draw(st.integers(1, 3))
    dim = d_a * d_b
    # about half the entries are the zero literal, as in a dense document
    entries = st.one_of(st.just({"re": 0.0, "im": 0.0}), good_entries)
    rows = [[draw(entries) for _ in range(dim)] for _ in range(dim)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        rows[i][j] = draw(bad_entries)
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, dim - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], 0.0]
    # every label 0 puts every pair on the shell J = 0
    text = json.dumps(
        {"dimA": d_a, "dimB": d_b, "jA": [0] * d_a, "jB": [0.0] * d_b, "jTotal": 0, "matrix": rows}
    )
    if draw(st.integers(0, 9)) == 0:  # invalid JSON: error positions must not move
        text = text[: len(text) - draw(st.integers(1, len(text)))]
    return text


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("load") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(text=documents())
def test_loader_matches_per_entry_reference(text, doc_path):
    doc_path.write_text(text)
    assert outcome(new_load, doc_path) == outcome(reference_load, doc_path)


def test_fixed_documents_match_reference(doc_path):
    # one document per path: rows taken as parsed, a row rebuilt for its
    # partial objects, and a row with a rejected entry
    whole = [[{"re": 0.5, "im": 0}, {"im": -0.25, "re": 1}], [2**53 + 1, 0.25]]
    partial = [[{"re": 0.5}, {}], [{"im": 1}, 0]]
    rejected = [[1, {"re": 1, "im": True}], [0, 0]]
    for rows in (whole, partial, rejected):
        text = json.dumps({"dimA": 1, "dimB": 2, "jA": [0], "jB": [0, 0], "jTotal": 0, "matrix": rows})
        doc_path.write_text(text)
        assert outcome(new_load, doc_path) == outcome(reference_load, doc_path)
    assert outcome(new_load, doc_path) == ("error", "matrix entry re/im must be numbers")


# --- the zero literal outside the matrix, next to null, inside strings ---


def _zero_doc(
    d_a="1", j_a="[0]", j_b="[0, 0]", j_total="0",
    matrix=f"[[{ZERO}, 0.5], [0.5, {ZERO}]]", extra="",
) -> str:
    return (
        f'{{"dimA": {d_a}, "dimB": 2, "jA": {j_a}, "jB": {j_b}, "jTotal": {j_total},'
        f' "matrix": {matrix}{extra}}}'
    )


#: name -> (document text, how the loader must end: an error message, its
#: start for invalid JSON, or None for a loaded matrix)
ZERO_DOCS = {
    "dimA": (_zero_doc(d_a=ZERO), "dimA must be a positive integer"),
    "jA": (_zero_doc(j_a=ZERO), "jA must be a list of length dimA"),
    "in_jA": (_zero_doc(j_a=f"[{ZERO}]"), "eigenvalue labels must be numbers"),
    "in_jB": (_zero_doc(j_b=f"[0, {ZERO}]"), "eigenvalue labels must be numbers"),
    "jTotal": (_zero_doc(j_total=ZERO), "eigenvalue labels must be numbers"),
    "matrix": (_zero_doc(matrix=ZERO), "matrix must have 2 rows"),
    "row": (_zero_doc(matrix=f"[{ZERO}, [0.5, 0.5]]"), "matrix row 0 must have 2 entries"),
    "in_entry": (
        _zero_doc(matrix=f'[[{{"re": {ZERO}, "im": 0}}, 0.5], [0.5, {ZERO}]]'),
        "matrix entry re/im must be numbers",
    ),
    "key_of_entry": (
        _zero_doc(matrix=f'[[{{"x": {ZERO}}}, 0.5], [0.5, {ZERO}]]'),
        "unexpected keys in matrix entry: ['x']",
    ),
    "in_list_entry": (
        _zero_doc(matrix=f"[[[{ZERO}], 0.5], [0.5, {ZERO}]]"),
        "matrix entries must be numbers or re/im objects, got list",
    ),
    "next_to_null_entry": (
        _zero_doc(matrix=f"[[{ZERO}, null], [0.5, {ZERO}]]"),
        "matrix entries must be numbers or re/im objects, got NoneType",
    ),
    "next_to_null_label": (_zero_doc(j_b="[null, 0]"), "eigenvalue labels must be numbers"),
    "null_in_a_string": (_zero_doc(extra=', "note": "null"'), None),
    "in_a_string": (_zero_doc(extra=f', "note": "{ZERO}"'), "invalid JSON in "),
    "in_a_key": (_zero_doc(extra=f', "{ZERO}": 1'), "invalid JSON in "),
    "truncated": (_zero_doc()[:-1], "invalid JSON in "),
    "trailing_text": (_zero_doc() + " x", "invalid JSON in "),
    "negative_zero": (
        _zero_doc(matrix='[[{"re": -0.0, "im": 0.0}, 0.5], [0.5, {"re": 0.0, "im": -0.0}]]'), None
    ),
    "keys_swapped": (_zero_doc(matrix='[[{"im": 0.0, "re": 0.0}, 0.5], [0.5, 0]]'), None),
    "extra_key": (_zero_doc(extra=f', "note": {ZERO}'), None),
}


@pytest.mark.parametrize("name", sorted(ZERO_DOCS))
def test_zero_literal_documents_match_reference(doc_path, name):
    text, expected = ZERO_DOCS[name]
    doc_path.write_text(text)
    got = outcome(new_load, doc_path)
    assert got == outcome(reference_load, doc_path)
    if expected is None:
        assert got[0] == ((0,), (0, 0), 0.0)
    else:
        assert got[0] == "error" and got[1].startswith(expected)


def test_zero_literal_root_is_not_an_object(doc_path):
    # the per-entry reference reads a root object as a document; the hook
    # makes it a number
    doc_path.write_text(ZERO)
    assert outcome(new_load, doc_path) == ("error", "document root must be an object")


# --- dense documents read from the bytes ---

#: The separators of the two spellings read from the bytes.
SPELLINGS = [None, (",", ":")]

#: Entry parts: zeros of both signs, numbers whose entry has the zero
#: entry's length, ints beyond 2**53, exponents, and the non-finite floats
#: json.dumps writes as NaN and Infinity.
parts = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 0, 1, 2**53 + 1, -(2**70), 10**308, 1e-300, -2.5e-05, 1e22]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
)

#: Bytes a mutation puts in: structure, number and whitespace characters
#: (JSON's and the ones ``bytes.rstrip`` also strips), a UTF-8 BOM byte and
#: bytes that are not UTF-8 here.
MUTATION_BYTES = b'{}[],:" \\.-+059eEnN\t\n\r\x0b\x0c\xef\xbb\xbf\x80\xe9\xff'


def dense_text(d_a, d_b, rows, separators=None, sort_keys=False, **head) -> str:
    doc = {"dimA": d_a, "dimB": d_b, "jA": [0] * d_a, "jB": [0.0] * d_b, "jTotal": 0, **head}
    return json.dumps({**doc, "matrix": rows}, separators=separators, sort_keys=sort_keys)


def _entry(x, y, im_first: bool) -> dict:
    return {"im": y, "re": x} if im_first else {"re": x, "im": y}


@st.composite
def dense_documents(draw):
    """A dense document as json.dumps writes it (dim up to 42, most rows
    all zero), and how it must be read: "bytes" when it was left so, "whole"
    when it was left so but mixes the two key orders of the entries, None
    when a byte was changed."""
    d_a, d_b = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    dim = d_a * d_b
    order = draw(st.sampled_from(["default", "sort_keys", "mixed"]))
    rows = [[{"re": 0.0, "im": 0.0}] * dim for _ in range(dim)]
    im_first = st.booleans() if order == "mixed" else st.just(False)
    for i in draw(st.lists(st.integers(0, dim - 1), max_size=4, unique=True)):
        for j in draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=6, unique=True)):
            rows[i][j] = _entry(draw(parts), draw(parts), draw(im_first))
    if order == "mixed":  # zero entries in the other order too, the first one included
        for i, j in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), max_size=3)):
            rows[i][j] = _entry(0.0, 0.0, draw(st.booleans()))
    data = dense_text(d_a, d_b, rows, draw(st.sampled_from(SPELLINGS)), order == "sort_keys").encode()
    if draw(st.booleans()):
        mixed = b'{"re"' in data and b'{"im"' in data
        return data, "whole" if mixed else "bytes"
    start = draw(st.sampled_from([0, data.index(b'"matrix"')]))
    k = draw(st.integers(start, len(data)))
    byte = bytes([draw(st.sampled_from(MUTATION_BYTES))])
    edit = draw(st.sampled_from(["change", "delete", "insert"]))
    if edit == "change":
        return data[:k] + byte + data[k + 1 :], None
    if edit == "delete":
        return data[:k] + data[k + 1 :], None
    return data[:k] + byte + data[k:], None


@settings(max_examples=400, deadline=None)
@given(case=dense_documents())
def test_dense_reader_matches_per_entry_reference(case, doc_path):
    data, read = case
    doc_path.write_bytes(data)
    got = outcome(new_load, doc_path)
    assert got == outcome(reference_load, doc_path)
    if read == "bytes" and got[0] != "error":
        # a finite canonical document is read from the bytes, not parsed whole
        assert cli._read_dense(data) is not None
    if read == "whole":
        # an entry in the other key order than the first entry's
        assert cli._read_dense(data) is None


def _rows(entry: str, dim: int = 2, sep: str = ", ", zero: str = ZERO) -> str:
    """The text of a dim x dim matrix with ``entry`` at (0, 1), ``zero`` elsewhere."""
    cells = [[zero] * dim for _ in range(dim)]
    cells[0][1] = entry
    return "[" + sep.join("[" + sep.join(row) + "]" for row in cells) + "]"


def _doc(matrix: str, head: str = "", tail: str = "", d_a: int = 1, d_b: int = 2) -> str:
    return (
        f'{{"dimA": {d_a}, "dimB": {d_b}, "jA": [0], "jB": [0, 0], "jTotal": 0{head},'
        f' "matrix": {matrix}{tail}}}'
    )


#: A nonzero entry in the dense spelling.
ONE = '{"re": 1.0, "im": 0.0}'
#: The zero entry as ``json.dumps(..., sort_keys=True)`` writes it.
ZERO_SORTED = '{"im": 0.0, "re": 0.0}'
BAD_JSON = "invalid JSON in "


def _pair(row0: str, row1: str = f"{ZERO}, {ZERO}") -> str:
    """A 2 x 2 matrix text from the text inside its two rows."""
    return f"[[{row0}], [{row1}]]"


#: name -> (document text or bytes, how the loader must end: None for a
#: loaded matrix, else the error message or its start)
DENSE_DOCS = {
    "zero_length_nonzero": (_doc(_rows('{"re": 0.5, "im": 0.0}')), None),
    "zero_length_im": (_doc(_rows('{"re": 0.0, "im": 0.1}')), None),
    "negative_zero": (_doc(_rows('{"re": -0.0, "im": 0.0}')), None),
    "integer_zero": (_doc(_rows('{"re": 0, "im": 0}')), None),
    "beyond_2_53": (_doc(_rows('{"re": 9007199254740993, "im": -9007199254740993}')), None),
    "exponents": (_doc(_rows('{"re": 1E-300, "im": 2.5e+3}')), None),
    "exponent_overflow": (_doc(_rows('{"re": 1e400, "im": 0.0}')), "matrix entries must be finite"),
    "infinity": (_doc(_rows('{"re": Infinity, "im": 0.0}')), "matrix entries must be finite"),
    "nan": (_doc(_rows('{"re": 0.0, "im": NaN}')), "matrix entries must be finite"),
    "empty_re": (_doc(_rows('{"re": , "im": 0.1}')), BAD_JSON),
    "empty_im": (_doc(_rows('{"re": 1, "im": }')), BAD_JSON),
    "spaces_in_entry": (_doc(_rows('{"re":  1 , "im": 2 }')), None),
    "keys_swapped": (_doc(_rows('{"im": 1.0, "re": 0.5}')), None),
    "sort_keys": (_doc(_rows('{"im": 1.0, "re": 0.5}', zero=ZERO_SORTED)), None),
    "sort_keys_compact": (
        _doc(_rows('{"im":1.0,"re":-0.5}', sep=",", zero=ZERO_SORTED.replace(" ", ""))).replace(
            '"matrix": ', '"matrix":'
        ),
        None,
    ),
    "sort_keys_one_default_entry": (_doc(_rows(ONE, zero=ZERO_SORTED)), None),
    "sort_keys_default_zero_entry": (_doc(_pair(f"{ZERO_SORTED}, {ZERO}")), None),
    "sort_keys_duplicate_im": (_doc(_rows('{"im": 1, "im": 2, "re": 3}', zero=ZERO_SORTED)), None),
    "sort_keys_other_key": (
        _doc(_rows('{"im": 1, "ro": 2}', zero=ZERO_SORTED)), "unexpected keys in matrix entry: ['im', 'ro']"
    ),
    "sort_keys_nan": (_doc(_rows('{"im": NaN, "re": 0.0}', zero=ZERO_SORTED)), "matrix entries must be finite"),
    "duplicate_re": (_doc(_rows('{"re": 1, "re": 2, "im": 3}')), None),
    # json keeps the last "im": a v cut at the next key would read 1+2j
    "duplicate_im": (_doc(_rows('{"re": 1, "im": 2, "im": 3}')), None),
    # a cut that replaced every second key, or did not cut each entry at
    # one, would read the four numbers as 5+1j and 2+3j
    "im_missing_then_extra_number": (_doc(_pair('{"re": 5}, {"re": 1,2, "im": 3}')), BAD_JSON),
    "re_alone": (_doc(_rows('{"re": 0.5}')), None),
    "bool": (_doc(_rows('{"re": true, "im": 0.0}')), "matrix entry re/im must be numbers"),
    "string": (_doc(_rows('{"re": "1", "im": 0.0}')), "matrix entry re/im must be numbers"),
    "other_key": (_doc(_rows('{"re": 1, "in": 2}')), "unexpected keys in matrix entry: ['in', 're']"),
    "other_first_key": (_doc(_rows('{"ro": 1, "im": 2}')), "unexpected keys in matrix entry: ['im', 'ro']"),
    "comma_in_y": (
        _doc(_rows('{"re": 1, "im": 2, "x": 3}')), "unexpected keys in matrix entry: ['im', 're', 'x']"
    ),
    "two_extra_numbers": (_doc(_pair('{"re": 1, "im": 2, 3}, {"re": 1, "im": 2, 3}')), BAD_JSON),
    "entry_sep_in_string": (_doc(_pair('{"re": "}, {", "im": 0.0}')), "matrix row 0 must have 2 entries"),
    "row_sep_in_string": (_doc(f'[[{ZERO}, {{"re": 1, "im": "}}], [{{"}}, {ZERO}]]'), "matrix must have 2 rows"),
    "entry_sep_in_key": (
        _doc(_pair(f'{{"re": 1, "}}, {{": 2}}, {ZERO}')), "unexpected keys in matrix entry: ['re', '}, {']"
    ),
    "escaped_matrix_key": (_doc(_rows("0.5"), head=', "foo \\"matrix": ' + _rows(ZERO)), None),
    "escaped_matrix_key_after": (_doc(_rows("0.5"), tail=', "foo \\"matrix": ' + _rows(ONE)), None),
    "escaped_matrix_key_last": (_doc(_rows(ZERO)).replace('"matrix"', '"foo \\"matrix"'), "missing key 'matrix'"),
    # an earlier "matrix" key in another spelling, then the escaped one last
    "spaced_matrix_key_then_escaped": (
        _doc(_rows(ONE)).replace(' "matrix": ', ' "matrix" : [[0.5, 0], [0, 0.5]], "foo \\"matrix": '), None
    ),
    "spaced_null_matrix_then_escaped": (
        _doc(_rows(ONE)).replace(' "matrix": ', ' "matrix" : null, "foo \\"matrix": '), "matrix must have 2 rows"
    ),
    "unicode_matrix_key_then_escaped": (
        _doc(_rows(ONE)).replace(' "matrix": ', ' "\\u006datrix": [[0.5, 0], [0, 0.5]], "foo \\"matrix": '), None
    ),
    "duplicate_matrix": (_doc(_rows(ONE), head=', "matrix": ' + _rows("0.5")), None),
    "duplicate_matrix_after": (_doc(_rows(ONE), tail=', "matrix": ' + _rows("0.5")), None),
    "matrix_not_last": (_doc(_rows(ONE), tail=', "note": 1'), None),
    "matrix_not_last_invalid": (_doc(_rows(ONE), tail=', "note": '), BAD_JSON),
    "matrix_in_a_string": (_doc(_rows(ONE), head=', "note": "\\"matrix\\": [[]]"'), None),
    "nested_matrix": (f'{{"x": {_doc(_rows(ZERO))}}}', "missing key 'dimA'"),
    "wrong_dims": (_doc(_rows(ONE), d_b=3), "jB must be a list of length dimB"),
    "too_few_rows": (_doc(_rows(ONE), d_a=2).replace('"jA": [0]', '"jA": [0, 0]'), "matrix must have 4 rows"),
    "extra_row": (_doc(f"[[{ZERO}, {ZERO}], [{ZERO}, {ZERO}], [{ZERO}, {ZERO}]]"), "matrix must have 2 rows"),
    "ragged_row": (_doc(_pair(f"{ONE}, {ZERO}", ZERO)), "matrix row 1 must have 2 entries"),
    "short_zero_row": (_doc(_pair(f"{ZERO}, {ZERO}", ZERO)), "matrix row 1 must have 2 entries"),
    "long_zero_row": (
        _doc(_pair(f"{ZERO}, {ZERO}", f"{ZERO}, {ZERO}, {ZERO}")), "matrix row 1 must have 2 entries"
    ),
    "double_comma": (_doc(_pair(f"{ONE},,{ZERO}")), BAD_JSON),
    # a compact "},{" in a default-spelling row: one part too few, read whole
    "compact_joint": (_doc(_pair(f"{ONE},{ZERO}")), None),
    # the first part is '0.0, "im": 0.0},{"re": 0.5, "im": 0.0': a zero test
    # by prefix would read the row's three entries as two
    "compact_joint_third_entry": (
        _doc(_pair(f'{ZERO},{{"re": 0.5, "im": 0.0}}, {ONE}')), "matrix row 0 must have 2 entries"
    ),
    "row_without_bracket": (_doc(f"[ {ONE}, {ZERO}], [{ZERO}, {ZERO}]]"), BAD_JSON),
    "plain_numbers": (_doc("[[0.5, 0], [0, 0.5]]"), None),
    "all_zero": (_doc(_rows(ZERO)), None),
    "compact": (_doc(_rows('{"re":0.5,"im":-1}', sep=",")).replace('"matrix": ', '"matrix":'), None),
    "mixed_spelling": (_doc(_rows(ZERO.replace(" ", ""))), None),
    "trailing_whitespace": (_doc(_rows(ONE)) + " \n\t\r", None),
    "trailing_vertical_tab": (_doc(_rows(ONE)) + "\x0b", BAD_JSON),
    "trailing_form_feed": (_doc(_rows(ONE)) + "\x0c", BAD_JSON),
    "crlf": (_doc(_rows(ONE)).replace(', "jTotal"', ',\r\n"jTotal"') + "\r\n", None),
    "crlf_error": (_doc(_rows(ONE)).replace(', "jTotal"', ',\r\n\r"jTotal"')[:-3], BAD_JSON),
    "bom": ("\ufeff" + _doc(_rows(ONE)), BAD_JSON),
    "invalid_utf8_head": (_doc(_rows(ZERO), head=', "n\xe9": 0').encode("latin-1"), BAD_JSON),
    "invalid_utf8_matrix": (_doc(_rows('{"re": 1, "im": 2, "\xe9": 0}')).encode("latin-1"), BAD_JSON),
    "surrogate_matrix": (
        _doc(_rows('{"re": 1, "im": 2, "x": 0}')).encode().replace(b'"x"', b'"\xed\xa0\x80"'), BAD_JSON
    ),
}


@pytest.mark.parametrize("name", sorted(DENSE_DOCS))
def test_dense_documents_match_reference(doc_path, name):
    data, expected = DENSE_DOCS[name]
    doc_path.write_bytes(data if isinstance(data, bytes) else data.encode())
    got = outcome(new_load, doc_path)
    assert got == outcome(reference_load, doc_path)
    if expected is None:
        assert got[0] != "error"
    else:
        assert got[0] == "error" and got[1].startswith(expected)


def _random_rows(d_a: int, d_b: int, full: bool = False) -> tuple[np.ndarray, list]:
    """A random complex matrix, sparse or with every entry nonzero, and its
    rows as re/im objects."""
    dim = d_a * d_b
    rng = np.random.default_rng(dim)
    if full:
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    else:
        mat = np.zeros((dim, dim), complex)
        mat[rng.integers(0, dim, dim), rng.integers(0, dim, dim)] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return mat, [[{"re": z.real, "im": z.imag} for z in row] for row in mat.tolist()]


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (4, 4)])
def test_both_spellings_give_the_same_matrix_bits(dims, tmp_path):
    # sparse, then with every entry nonzero, so that every row is cut
    d_a, d_b = dims
    for full in (False, True):
        mat, rows = _random_rows(d_a, d_b, full)
        loaded = []
        for separators in SPELLINGS:
            path = tmp_path / f"{separators}.json"
            path.write_text(dense_text(d_a, d_b, rows, separators))
            assert cli._read_dense(path.read_bytes()) is not None
            loaded.append(new_load(path)[1].tobytes())
        assert loaded == [mat.tobytes()] * 2


@pytest.mark.parametrize("dims", [(1, 2), (2, 3), (4, 4)])
def test_both_key_orders_give_the_same_matrix_bits(dims, tmp_path):
    d_a, d_b = dims
    mat, rows = _random_rows(d_a, d_b)
    loaded = []
    for separators in SPELLINGS:
        for sort_keys in (False, True):
            path = tmp_path / f"{separators}-{sort_keys}.json"
            path.write_text(dense_text(d_a, d_b, rows, separators, sort_keys))
            assert cli._read_dense(path.read_bytes()) is not None
            loaded.append(new_load(path)[1].tobytes())
    # the last entry in the other key order: the whole-text parse, the same bits
    last = rows[-1][-1]
    rows[-1][-1] = {"im": last["im"], "re": last["re"]}
    path = tmp_path / "mixed.json"
    path.write_text(dense_text(d_a, d_b, rows))
    assert cli._read_dense(path.read_bytes()) is None
    loaded.append(new_load(path)[1].tobytes())
    assert loaded == [mat.tobytes()] * 5


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


# --- documents nested beyond the parser's recursion limit ---

DEEP_DOCS = {
    "array": "[" * 200_000 + "]" * 200_000,
    "array_with_null": "[" * 200_000 + "null" + "]" * 200_000,
    "object": '{"a": ' * 200_000 + ZERO + "}" * 200_000,
}


class TestDeepDocuments:
    @pytest.mark.parametrize("name", sorted(DEEP_DOCS))
    def test_rejected_as_document_error(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(DEEP_DOCS[name])
        with pytest.raises(DocumentError, match="^invalid JSON in .*maximum recursion depth"):
            load_document(str(path))

    @pytest.mark.parametrize("command", ["validate", "certify"])
    @pytest.mark.parametrize("name", sorted(DEEP_DOCS))
    def test_exit_code_one(self, tmp_path, command, name, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(DEEP_DOCS[name])
        assert cli.main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON in ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
