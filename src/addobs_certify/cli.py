"""Command-line front end: validate, certify, higgs.

Input states are single JSON documents::

    {
      "dimA": 2, "dimB": 2,
      "jA": [0.5, -0.5], "jB": [0.5, -0.5],
      "jTotal": 0.0,
      "matrix": [[{"re": 0.0, "im": 0.0}, ...], ...]
    }

Matrix entries may be ``{"re": x, "im": y}`` objects or plain numbers
(taken as real). Exit codes: 0 success, 1 usage or parse error, 2 domain
validation failure. Reports are deterministic: identical inputs produce
byte-identical output on one machine with one BLAS thread count (the last
digits of eigenvalues can follow the number of BLAS threads).

Each report section has one private builder that returns its JSON value
and its text lines together (``_texture_report``, ``_witness_report``,
``_sector_report``, ``_certificate_report``, ``_tables_report``); the
``cmd_*`` handlers compute and put the sections together, and
``cmd_higgs`` holds the ``higgs`` flag rules. ``main`` only parses the
arguments and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .chsh import ChshCertificate, certify_nonlocality, grid_verify
from .entanglement import (
    BlockWitness,
    CrossedEntry,
    EntanglementVerdict,
    SectorClass,
    certify,
    classify_sectors,
    reduced_purity,
)
from .higgs_zz import (
    Measurement,
    TablesReport,
    f12,
    f13,
    params_from_measured,
    reproduce_tables,
    significance,
)
from .structure import (
    EPS_ZERO,
    AdditiveStructure,
    DensityMatrix,
    TextureViolation,
    validate_additivity,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

#: Largest ``--grid`` size nTheta * nPhi (4096 x 4096).
_MAX_GRID_POINTS = 1 << 24


class DocumentError(ValueError):
    """The input file could not be parsed into a state document."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


#: JSON number types. Exact type checks, because ``bool`` subclasses ``int``
#: and a JSON ``true`` is not a number.
_NUMBER_TYPES = (int, float)


def _parse_entry(entry) -> complex:
    """A matrix entry that ``json.load`` did not already make a number."""
    if isinstance(entry, dict):
        _require(set(entry) <= {"re", "im"}, f"unexpected keys in matrix entry: {sorted(entry)}")
        re = entry.get("re", 0.0)
        im = entry.get("im", 0.0)
        _require(
            type(re) in _NUMBER_TYPES and type(im) in _NUMBER_TYPES,
            "matrix entry re/im must be numbers",
        )
        try:
            return complex(re, im)
        except OverflowError:  # an integer beyond float range
            raise DocumentError("matrix entries must be finite") from None
    raise DocumentError(f"matrix entries must be numbers or re/im objects, got {type(entry).__name__}")


def _entry_hook(obj: dict):
    """``json`` object hook: a well-formed ``{"re": x, "im": y}`` becomes ``complex``.

    Well-formed means exactly those two keys with ``int`` or ``float``
    values. Every other object is returned unchanged, for ``_parse_entry``
    to accept or reject with its own message; the hook never raises.
    """
    if len(obj) == 2 and "re" in obj and "im" in obj:
        re, im = obj["re"], obj["im"]
        if type(re) in _NUMBER_TYPES and type(im) in _NUMBER_TYPES:
            try:
                return complex(re, im)
            except OverflowError:
                pass
    return obj


#: Row entries taken as they are: hook-made ``complex`` and plain JSON numbers.
_VALUE_TYPES = frozenset((complex, *_NUMBER_TYPES))


def _finite_array(values, dtype, message: str) -> np.ndarray:
    """``values`` as an array, or ``DocumentError(message)`` unless all finite."""
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError:  # an integer beyond float range
        raise DocumentError(message) from None
    _require(bool(np.isfinite(arr).all()), message)
    return arr


def _parse_json(raw: bytes, path: str):
    """``raw`` decoded as a text-mode read decodes it (strict UTF-8, universal
    newlines) and parsed with ``_entry_hook``; ``DocumentError`` if it is not
    JSON."""
    try:
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text, object_hook=_entry_hook)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, malformed, an over-long integer, too deep
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc


#: The ``json.dumps`` separators (item, key) that ``_read_dense`` reads: the
#: default ones and ``separators=(",", ":")``.
_SEPARATORS = ((b", ", b": "), (b",", b":"))


def _read_dense(raw: bytes):
    """The head and the matrix of a document in ``json.dumps`` spelling, or None.

    The spelling is ``{"re": x, "im": y}`` entries, or ``{"im": y, "re": x}``
    ones as ``json.dumps(..., sort_keys=True)`` writes them, ``"matrix"`` as
    the last key, and one pair of ``_SEPARATORS``. The separators are read
    from the text right after the first ``"matrix":``, the key order from the
    first entry's text; an entry in the other order gives None. The head is
    the document with the matrix value cut out, parsed with ``_entry_hook``.
    Each all-zero row is one comparison with the text of a zero row. Each
    other row is cut by one ``split`` at the joint ``}`` + separator + ``{``
    + first key into its entries' parts. A part equal to the zero entry's
    part is a zero entry; every other part is ``partition``ed at its first
    separator + second key into its first and second number, u and v. One
    ``json.loads`` reads those 2 * nnz numbers, which are put in (x, y)
    order and scattered into a zero matrix.

    This reads what ``_parse_json`` reads, or returns None:

    * the key's first quote must not follow a backslash, so it opens or
      closes a string. The head parses only if it opens one: a quote that
      closed a string would leave ``matrix"`` after that string. Then the
      head's ``null}`` ends the root object, so the key is the root's; the
      text after the matrix is ``}``, so it is the root's last ``"matrix"``,
      which ``json`` keeps over any earlier one spelled another way (such
      as ``"matrix" :``). An escaped quote (a key such as
      ``"a \\"matrix"``) proves nothing of the keys before it: None;
    * the text after the key must be dim rows, then ``}`` and JSON
      whitespace. A row is ``[{``, the first key, dim parts joined by the
      joint, then ``}]``;
    * ``json`` must read exactly 2 * nnz numbers from the u and v texts
      joined by commas. No text is empty (a part without a second key
      leaves an empty v, which ``json`` rejects), and a value that spans a
      comma is a string, list or object, not a number; so each u and v is
      one JSON number, and a comma, quote or brace in a part changes the
      count or the types. Every entry is then ``{`` first key u separator
      second key v ``}``, one object with the two keys.

    None means any other spelling, a row or dims that do not fit, or an entry
    that is not a finite number pair; the caller then parses the whole text
    with ``_parse_json``, so error messages are those of that parse.
    """
    key = raw.find(b'"matrix":')
    seps = next((s for s in _SEPARATORS if raw.startswith(b'"matrix"%s[' % s[1], key)), None)
    if key < 1 or raw[key - 1] == ord("\\") or seps is None:
        return None
    sep, colon = seps
    value, end = key + len(b'"matrix"') + len(colon), len(raw)  # the matrix's "[", the text's end
    swapped = raw.startswith(b'[{"im"', value + 1)  # the first entry's key order
    names = (b'"im"', b'"re"') if swapped else (b'"re"', b'"im"')
    opening, second_key = b"[{" + names[0] + colon, sep + names[1] + colon
    joint, zero = b"}" + sep + opening[1:], b"0.0" + second_key + b"0.0"
    while raw[end - 1] in b" \t\n\r":  # JSON whitespace: not bytes.rstrip's set
        end -= 1
    if raw[end - 1] != ord("}"):
        return None
    try:
        head = json.loads(raw[:value].decode("utf-8") + "null}", object_hook=_entry_hook)
    except (ValueError, RecursionError):
        return None
    d_a, d_b = head.get("dimA"), head.get("dimB")
    if not (type(d_a) is int and type(d_b) is int and d_a >= 1 and d_b >= 1):
        return None
    dim = d_a * d_b
    if 2 * dim * dim > end - value:  # too short for dim x dim entries
        return None

    zero_row = opening + joint.join([zero] * dim) + b"}]"
    # each list starts empty-typed, for a matrix without a nonzero entry
    rows, cols, numbers = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], []
    pos = value + 1
    for i in range(dim):
        if raw.startswith(zero_row, pos):
            pos += len(zero_row)
        else:
            stop = raw.find(b"]", pos) + 1
            # opening has no "}" or "]", so it and the "}]" cannot overlap
            if not (stop and raw.startswith(opening, pos) and raw.endswith(b"}]", pos, stop)):
                return None
            parts = raw[pos + len(opening):stop - 2].split(joint)
            if len(parts) != dim:
                return None
            col = [j for j, part in enumerate(parts) if part != zero]
            texts = []
            for j in col:
                u, _, v = parts[j].partition(second_key)
                texts += u, v
            rows.append(np.full(len(col), i))
            cols.append(np.array(col, np.intp))
            numbers.append(b",".join(texts))
            pos = stop
        after = sep if i < dim - 1 else b"]"
        if not raw.startswith(after, pos):
            return None
        pos += len(after)
    if pos != end - 1:
        return None
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    try:
        values = json.loads("[%s]" % b",".join(numbers).decode("utf-8"))
        if len(values) != 2 * len(rows) or not _VALUE_TYPES.issuperset(map(type, values)):
            return None
        if swapped:
            values[::2], values[1::2] = values[1::2], values[::2]
        values = np.array(values, float).view(complex)
    except (ValueError, RecursionError, OverflowError):  # not JSON, or an integer beyond float range
        return None
    if not np.isfinite(values).all():
        return None
    mat = np.zeros((dim, dim), complex)
    mat[rows, cols] = values
    return head, mat


def _read_document(path: str):
    """The document read by ``_read_dense``, or else by ``_parse_json`` with
    None for the matrix. The file's bytes are dropped on return, before the
    state is built."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return _read_dense(raw) or (_parse_json(raw, path), None)


def load_document(path: str) -> tuple[AdditiveStructure, DensityMatrix]:
    """Parse and validate a state document.

    The file is read once as bytes. A document in ``json.dumps`` spelling,
    with default or compact separators and either key order of the entries,
    is read by ``_read_dense``, which cuts only the rows holding a nonzero
    entry (one ``bytes.split`` each) and turns only the nonzero entries into
    Python objects; any other document is parsed whole by ``_parse_json``,
    where ``_entry_hook`` turns well-formed entries into numbers and only
    rows holding anything else go through ``_parse_entry``. Both give the
    same matrix bits or the same error. Raises ``DocumentError`` for parse
    or shape problems and ``StateValidationError`` when the matrix fails the
    density-matrix invariants.
    """
    data, mat = _read_document(path)

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
    _require(
        all(type(v) in _NUMBER_TYPES for v in labels), "eigenvalue labels must be numbers"
    )
    _finite_array(labels, float, "eigenvalue labels must be finite")

    if mat is None:
        dim = d_a * d_b
        rows = data["matrix"]
        _require(isinstance(rows, list) and len(rows) == dim, f"matrix must have {dim} rows")
        for i, row in enumerate(rows):
            _require(isinstance(row, list) and len(row) == dim, f"matrix row {i} must have {dim} entries")
            if not _VALUE_TYPES.issuperset(map(type, row)):
                rows[i] = [e if type(e) in _VALUE_TYPES else _parse_entry(e) for e in row]
        mat = _finite_array(rows, complex, "matrix entries must be finite")

    structure = AdditiveStructure(tuple(j_a), tuple(j_b), float(data["jTotal"]))
    return structure, DensityMatrix(mat)


# --- report rendering ---


def _complex_dict(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


def _texture_report(violations: list[TextureViolation]) -> tuple[dict, list[str]]:
    """The texture section: its JSON keys and its ``texture:`` lines.

    ``validate`` adds ``textureValid``; ``certify`` emits it alone on
    violations and extends it with the other sections on a valid state.
    """
    values, lines = [], [f"texture: INVALID ({len(violations)} violating entries)"]
    for v in violations:
        values.append({
            "aliceCol": v.alice_col,
            "aliceRow": v.alice_row,
            "bobCol": v.bob_col,
            "bobRow": v.bob_row,
            "col": v.col,
            "colLabelSum": v.col_label_sum,
            "magnitude": abs(v.value),
            "row": v.row,
            "rowLabelSum": v.row_label_sum,
            "value": _complex_dict(v.value),
        })
        lines.append(
            f"  entry ({v.row},{v.col}) = rho[(m={v.alice_row},p={v.bob_row}),"
            f"(n={v.alice_col},q={v.bob_col})] |value| = {abs(v.value):.12g}"
            f" label sums ({v.row_label_sum:.12g}, {v.col_label_sum:.12g})"
        )
    payload = {"textureViolations": values, "toolVersion": __version__}
    return payload, lines if violations else ["texture: VALID"]


def _witness_report(witness) -> tuple[dict | None, list[str]]:
    """The witness's JSON value and its text lines: ``None`` and none for no witness."""
    if isinstance(witness, CrossedEntry):
        value = witness.value
        return {
            "alice": list(witness.alice),
            "bob": list(witness.bob),
            "col": witness.col,
            "kind": "crossed_entry",
            "row": witness.row,
            "value": _complex_dict(value),
        }, [
            f"witness: crossed entry rho[({witness.alice[0]},{witness.bob[0]}),"
            f"({witness.alice[1]},{witness.bob[1]})] = {value.real:.12g}{value.imag:+.12g}j"
        ]
    if isinstance(witness, BlockWitness):
        sector = witness.sector
        return {
            "degM": sector.deg_m,
            "degQ": sector.deg_q,
            "kind": "ppt_block",
            "mValue": sector.m_value,
            "minEigenvalue": witness.min_eigenvalue,
            "qValue": sector.q_value,
        }, [
            f"witness: PPT block (M={sector.m_value:.12g}, Q={sector.q_value:.12g})"
            f" min eigenvalue {witness.min_eigenvalue:.12g}"
        ]
    return None, []


def _sector_report(classes: list[SectorClass]) -> tuple[list[dict], list[str]]:
    """The sector classes' JSON value and their ``shell sectors:`` line."""
    values, texts = [], []
    for c in classes:
        sector, kind = c.sector, c.kind.value
        values.append({
            "degM": sector.deg_m,
            "degQ": sector.deg_q,
            "kind": kind,
            "mValue": sector.m_value,
            "qValue": sector.q_value,
        })
        texts.append(
            f"(M={sector.m_value:.12g},Q={sector.q_value:.12g}) "
            f"{sector.deg_m}x{sector.deg_q} {kind}"
        )
    return values, ["shell sectors: " + ", ".join(texts)]


def _certificate_report(
    cert: ChshCertificate | None, grid: tuple[int, int] | None, f_grid: float | None
) -> tuple[dict | None, list[str]]:
    """The CHSH certificate's JSON value and its ``CHSH`` lines: ``None`` and
    the "no anchor entry" line for no certificate. ``f_grid`` is the maximum
    on the ``grid`` (nTheta, nPhi), or None for no grid check."""
    if cert is None:
        return None, ["CHSH: no anchor entry; no violation certified"]
    a = cert.anchor
    value = {
        "aliceOrder": list(cert.reorder.alice_order),
        "anchor": {
            "alice": [a.m0, a.n0],
            "bob": [a.p0, a.q0],
            "value": _complex_dict(a.value),
        },
        "bobOrder": list(cert.reorder.bob_order),
        "fMax": cert.f_max,
        "phiOpt": cert.phi_opt,
        "thetaOpt": cert.theta_opt,
    }
    lines = [
        f"CHSH: fMax = {cert.f_max:.12f}  theta = {cert.theta_opt:.12g}"
        f"  phi = {cert.phi_opt:.12g}",
        f"CHSH anchor: rho[(m={a.m0},p={a.p0}),(n={a.n0},q={a.q0})]"
        f"  |value| = {abs(a.value):.12g}",
    ]
    if f_grid is not None:
        (n_theta, n_phi), gap = grid, cert.f_max - f_grid
        value["gridCheck"] = {
            "fGrid": f_grid,
            "gap": gap,
            "nPhi": n_phi,
            "nTheta": n_theta,
        }
        lines.append(
            f"grid check ({n_theta}x{n_phi}): "
            f"fGrid = {f_grid:.12f}  gap = {gap:.3e}"
        )
    return value, lines


def _tables_report(report: TablesReport) -> tuple[dict, list[str]]:
    """The pseudoexperiment tables' JSON value and text lines, in one walk."""
    columns, lines = [], []
    for col in report.columns:
        lines.append(
            f"[{col.table_label}, cut {col.cut_gev} GeV] N={col.n_events}"
            f"  a12 = {col.a12.central:+.2f}+/-{col.a12.sigma:.2f}"
            f"  a13 = {col.a13.central:+.2f}+/-{col.a13.sigma:.2f}"
        )
        checks = []
        for check in col.checks:
            checks.append({
                "computed": check.computed,
                "interval": list(check.interval),
                "name": check.name,
                "passed": check.passed,
                "printed": check.printed,
            })
            lines.append(
                f"  {check.name:<6} = {check.computed:.12g}"
                f"  printed {check.printed:g}"
                f"  {'PASS' if check.passed else 'FAIL'}"
            )
        columns.append({
            "a12": {"central": col.a12.central, "sigma": col.a12.sigma},
            "a13": {"central": col.a13.central, "sigma": col.a13.sigma},
            "checks": checks,
            "cutGeV": col.cut_gev,
            "nEvents": col.n_events,
            "table": col.table_label,
        })
    checks = report.checks()
    n_pass = sum(1 for c in checks if c.passed)
    lines.append(f"ALL CHECKS: {'PASS' if report.all_pass else 'FAIL'} ({n_pass}/{len(checks)})")
    return {"allPass": report.all_pass, "columns": columns, "toolVersion": __version__}, lines


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args) -> int:
    structure, state = load_document(args.path)
    violations = validate_additivity(state, structure, args.zero_tol)
    payload, lines = _texture_report(violations)
    payload["textureValid"] = not violations
    _emit(args, payload, lines)
    return EXIT_OK if not violations else EXIT_DOMAIN


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        n_theta, n_phi = (int(n) for n in spec.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--grid expects <nTheta>x<nPhi>, got {spec!r}"
        ) from exc
    if n_theta < 2 or n_phi < 2:
        raise argparse.ArgumentTypeError(f"--grid needs both sizes at least 2, got {spec!r}")
    if n_theta * n_phi > _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"--grid allows at most {_MAX_GRID_POINTS} points, got {spec!r}"
        )
    return n_theta, n_phi


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_zero_tol(text: str) -> float:
    value = _parse_finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _parse_sigma(text: str) -> float:
    value = _parse_finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def cmd_certify(args) -> int:
    structure, state = load_document(args.path)
    # this call, certify and certify_nonlocality share the state's analysis record
    violations = validate_additivity(state, structure, args.zero_tol)
    payload, lines = _texture_report(violations)
    if violations:
        _emit(args, payload, lines)
        return EXIT_DOMAIN

    verdict: EntanglementVerdict = certify(state, structure, args.zero_tol)
    purities = {party: reduced_purity(state, structure, party) for party in "AB"}
    sectors, sector_lines = _sector_report(classify_sectors(structure))
    cert = certify_nonlocality(state, structure, args.zero_tol)
    f_grid = None
    if cert is not None and args.grid is not None:
        f_grid = grid_verify(state, cert.anchor, structure, *args.grid)

    witness, witness_lines = _witness_report(verdict.witness)
    certificate, certificate_lines = _certificate_report(cert, args.grid, f_grid)
    payload.update(
        chshCertificate=certificate,
        entanglementVerdict={"status": verdict.status.value, "witness": witness},
        minPtEigenvalue=verdict.min_pt_eigenvalue,
        reducedPurities=purities,
        sectorClasses=sectors,
    )
    lines += [
        f"verdict: {verdict.status.value}",
        *witness_lines,
        f"min PT eigenvalue: {verdict.min_pt_eigenvalue:.12g}",
        f"reduced purity: A = {purities['A']:.12g}  B = {purities['B']:.12g}",
        *sector_lines,
        *certificate_lines,
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_higgs(args) -> int:
    if args.tables:
        if any(v is not None for v in (args.a12, args.a13, args.sigma12, args.sigma13)):
            print("error: higgs --tables takes no --a12, --a13, --sigma12 or --sigma13", file=sys.stderr)
            return EXIT_USAGE
        report = reproduce_tables()
        _emit(args, *_tables_report(report))
        return EXIT_OK if report.all_pass else EXIT_DOMAIN
    if args.a12 is None or args.a13 is None:
        print("error: higgs needs --tables or both --a12 and --a13", file=sys.stderr)
        return EXIT_USAGE

    params = params_from_measured(args.a12, args.a13)
    payload, lines = {"toolVersion": __version__}, []
    for key, f in (("12", f12), ("13", f13)):
        payload["f" + key] = value = f(params)
        lines.append(f"F{key} = {value:.12f}")
    for key, central, sigma in (("12", args.a12, args.sigma12), ("13", args.a13, args.sigma13)):
        if sigma is not None:
            payload["significance" + key] = sig = significance(Measurement(central, sigma))
            lines.append(f"significance(a{key}) = {sig:.12g}")
    _emit(args, payload, lines)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addobs-certify",
        description=(
            "Certify entanglement and CHSH nonlocality for bipartite density "
            "matrices constrained by an additive observable with a definite value."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )

    for name, func, help_text in (
        ("validate", cmd_validate, "check the additive-observable texture"),
        ("certify", cmd_certify, "entanglement verdict and CHSH certificate"),
    ):
        p_state = sub.add_parser(name, parents=[common], help=help_text)
        p_state.add_argument("path", help="state document (JSON)")
        p_state.add_argument(
            "--zero-tol", type=_parse_zero_tol, default=EPS_ZERO,
            help="threshold below which entries count as vanishing",
        )
        p_state.set_defaults(func=func)
    sub.choices["certify"].add_argument(
        "--grid", type=_parse_grid, default=None, metavar="NTHETAxNPHI",
        help="cross-check the closed-form maximum on an angle grid",
    )

    p_higgs = sub.add_parser(
        "higgs", parents=[common], help="H->ZZ CHSH values and table reproduction"
    )
    p_higgs.add_argument("--a12", type=_parse_finite, help="measured a12 central value")
    p_higgs.add_argument("--a13", type=_parse_finite, help="measured a13 central value")
    p_higgs.add_argument("--sigma12", type=_parse_sigma, help="uncertainty on a12")
    p_higgs.add_argument("--sigma13", type=_parse_sigma, help="uncertainty on a13")
    p_higgs.add_argument(
        "--tables", action="store_true",
        help="reproduce the published pseudoexperiment tables",
    )
    p_higgs.set_defaults(func=cmd_higgs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:  # DocumentError and StateValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, DocumentError) else EXIT_DOMAIN


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
