"""Independent expected results, in the benchmark's own numpy code.

``expect(system)`` works out, from the matrix alone, everything a correct
report must say; ``check(report, system, expected)`` lists every way a
report differs from it. Reports are the normalised form both the CLI's
JSON and the in-process results are reduced to (see ``runner.py``):

    {"rejected": False, "status": str, "witness": dict | None,
     "minPtEigenvalue": float, "purities": [A, B], "chsh": dict | None}
    {"rejected": True, "violations": [[row, col], ...]}
"""

from __future__ import annotations

import math

import numpy as np

from corpus import dense

ZERO_TOL = 1e-12
PSD_TOL = 1e-9
TSIRELSON = 2.0 * math.sqrt(2.0)
#: Agreement required of eigenvalues, purities and CHSH values; a unit-trace
#: matrix of dim <= 1024 keeps LAPACK round-off orders of magnitude below it.
NUM_TOL = 1e-9

#: Verdict and witness kind each generator guarantees by construction.
EXPECTED_VERDICT = {
    "chain": ("ENTANGLED_CERTIFIED", "crossed_entry"),
    "anchored": ("ENTANGLED_CERTIFIED", "crossed_entry"),
    "crossed": ("ENTANGLED_CERTIFIED", "crossed_entry"),
    "bell": ("ENTANGLED_CERTIFIED", "crossed_entry"),
    "higgs": ("ENTANGLED_CERTIFIED", "crossed_entry"),
    "sector-npt": ("ENTANGLED_CERTIFIED", "ppt_block"),
    "type2-npt": ("ENTANGLED_CERTIFIED", "ppt_block"),
    "sector-product": ("INCONCLUSIVE_PPT_PASSES", None),
    "type2-ppt": ("SEPARABLE_CERTIFIED", None),
    "type1": ("SEPARABLE_CERTIFIED", None),
}

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pt(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Swap Bob's row and column index."""
    return np.swapaxes(mat.reshape(d_a, d_b, d_a, d_b), 1, 3).reshape(mat.shape)


def _min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, solving only its support.

    Rows and columns that are entirely zero decouple and contribute
    eigenvalue 0, so the dense solve runs on the nonzero principal
    submatrix alone.
    """
    support = np.flatnonzero(np.any(h != 0, axis=1))
    low = float(np.linalg.eigvalsh(h[np.ix_(support, support)])[0]) if support.size else 0.0
    return min(low, 0.0) if support.size < h.shape[0] else low


def _labels(system):
    ja, jb = np.asarray(system["ja"]), np.asarray(system["jb"])
    return ja, jb, system["jt"]


def _violations(mat, ja, jb, jt) -> list[list[int]]:
    on = (np.abs(np.add.outer(ja, jb).ravel() - jt) <= 1e-9)
    rows, cols = np.nonzero(np.abs(mat) > ZERO_TOL)
    bad = ~(on[rows] & on[cols])
    return sorted([int(r), int(c)] for r, c in zip(rows[bad], cols[bad]))


def _crossed_witness(mat, ja, jb, jt) -> dict | None:
    d_b = jb.size
    rows, cols = np.nonzero(np.triu(np.abs(mat) > ZERO_TOL, k=1))
    crossed = np.abs(ja[rows // d_b] + jb[cols % d_b] - jt) > 1e-9
    rows, cols = rows[crossed], cols[crossed]
    if rows.size == 0:
        return None
    # largest magnitude; ties go to the smallest (row, col)
    best = np.lexsort((-cols, -rows, np.abs(mat[rows, cols])))[-1]
    row, col = int(rows[best]), int(cols[best])
    return {"kind": "crossed_entry", "row": row, "col": col, "value": mat[row, col]}


def _sector_kind(deg_m: int, deg_q: int) -> str:
    if 1 in (deg_m, deg_q):
        return "TYPE1"
    return "TYPE2" if (deg_m, deg_q) in ((2, 2), (2, 3), (3, 2)) else "LARGE"


def _ppt_ladder(pt, ja, jb, jt) -> tuple[str, dict | None]:
    """Verdict for a state without crossed entries, from its sector blocks."""
    d_b = jb.size
    kinds, worst = [], None
    for m_value in np.unique(ja):
        alice = np.flatnonzero(ja == m_value)
        bob = np.flatnonzero(np.abs(jb - (jt - m_value)) <= 1e-9)
        if bob.size == 0:
            continue
        kind = _sector_kind(alice.size, bob.size)
        kinds.append(kind)
        if kind == "TYPE1":
            continue
        flats = (alice[:, None] * d_b + bob[None, :]).ravel()
        block = pt[np.ix_(flats, flats)]
        tr = np.trace(block).real
        if tr <= ZERO_TOL:
            continue
        low = float(np.linalg.eigvalsh(block / tr)[0])
        if low < -PSD_TOL and (worst is None or low < worst["minEigenvalue"]):
            worst = {
                "kind": "ppt_block",
                "mValue": float(m_value),
                "qValue": float(jt - m_value),
                "minEigenvalue": low,
            }
    if worst is not None:
        return "ENTANGLED_CERTIFIED", worst
    if "LARGE" in kinds:
        return "INCONCLUSIVE_PPT_PASSES", None
    return "SEPARABLE_CERTIFIED", None


def _anchors(mat, ja, jb) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor positions (m0, p0, n0, q0), values and closed-form CHSH maxima."""
    d_b = jb.size
    nondeg_a = np.array([np.sum(ja == v) == 1 for v in ja])
    nondeg_b = np.array([np.sum(jb == v) == 1 for v in jb])
    rows, cols = np.nonzero(np.triu(np.abs(mat) > ZERO_TOL, k=1))
    m, p, n, q = rows // d_b, rows % d_b, cols // d_b, cols % d_b
    crossed = (ja[m] != ja[n]) & (jb[p] != jb[q])
    col_ok = nondeg_a[n] & nondeg_b[q]
    row_ok = nondeg_a[m] & nondeg_b[p] & ~col_ok
    keep = crossed & (col_ok | row_ok)
    flip = row_ok[keep]
    m, p, n, q = m[keep], p[keep], n[keep], q[keep]
    pos = np.stack([np.where(flip, n, m), np.where(flip, q, p), np.where(flip, m, n), np.where(flip, p, q)], axis=1)
    values = np.where(flip, mat[cols[keep], rows[keep]], mat[rows[keep], cols[keep]])
    diag = np.diagonal(mat).real.reshape(ja.size, d_b)
    m0, p0, n0, q0 = pos.T
    # <Oz> of the reordered state: the anchor's two diagonal entries plus
    # the remaining Alice rows in Bob's anchor-row slot
    oz = diag[n0, q0] + diag[:, p0].sum(axis=0) - diag[n0, p0]
    fmax = 2.0 * (1.0 + np.hypot(2.0 * np.abs(values), oz) - oz)
    return pos, values, fmax


def expect(system: dict) -> dict:
    mat = dense(system)
    ja, jb, jt = _labels(system)
    violations = _violations(mat, ja, jb, jt)
    if violations:
        return {"rejected": True, "violations": violations}
    pt = _pt(mat, ja.size, jb.size)
    witness = _crossed_witness(mat, ja, jb, jt)
    if witness is not None:
        status = "ENTANGLED_CERTIFIED"
    else:
        status, witness = _ppt_ladder(pt, ja, jb, jt)
    tensor = mat.reshape(ja.size, jb.size, ja.size, jb.size)
    rho_a = np.trace(tensor, axis1=1, axis2=3)
    rho_b = np.trace(tensor, axis1=0, axis2=2)
    pos, values, fmax = _anchors(mat, ja, jb)
    out = {
        "rejected": False,
        "status": status,
        "witness": witness,
        "minPtEigenvalue": _min_eigenvalue(pt),
        "purities": [float(np.sum(np.abs(rho_a) ** 2)), float(np.sum(np.abs(rho_b) ** 2))],
        "anchors": {tuple(int(v) for v in row): (val, f) for row, val, f in zip(pos, values, fmax)},
        "fMaxBest": float(fmax.max()) if fmax.size else None,
    }
    built = EXPECTED_VERDICT[system["kind"]]
    found = (status, witness["kind"] if witness else None)
    if found != built:
        raise AssertionError(f"generator for {system['kind']} built {found}, expected {built}")
    return out


def chsh_value(mat, alice_order, bob_order, theta: float, phi: float) -> float:
    """Tr(rho * CHSH) for the corner observables in the given basis orders."""
    d_a, d_b = len(alice_order), len(bob_order)
    order = (np.asarray(alice_order)[:, None] * d_b + np.asarray(bob_order)[None, :]).ravel()
    rho = mat[np.ix_(order, order)]

    def corner(two, dim):
        out = np.eye(dim, dtype=complex)
        out[:2, :2] = two
        return out

    st, ct, cp, sp = math.sin(theta), math.cos(theta), math.cos(phi), math.sin(phi)
    b1 = corner(st * cp * _PAULI["x"] + st * sp * _PAULI["y"] + ct * _PAULI["z"], d_b)
    b2 = corner(-st * cp * _PAULI["x"] - st * sp * _PAULI["y"] + ct * _PAULI["z"], d_b)
    a1, a2 = corner(_PAULI["z"], d_a), corner(_PAULI["x"], d_a)
    chsh = np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2)
    return float(np.sum(rho * chsh.T).real)


def _close(a, b, tol=NUM_TOL) -> bool:
    return abs(complex(a) - complex(b)) <= tol


def _check_chsh(got: dict | None, mat, exp: dict) -> list[str]:
    if exp["fMaxBest"] is None:
        return [] if got is None else ["CHSH certificate reported without any anchor"]
    if got is None:
        return [f"no CHSH certificate; expected fMax {exp['fMaxBest']!r}"]
    anchor = tuple(got["anchor"])
    if anchor not in exp["anchors"]:
        return [f"reported anchor {anchor} is not an anchor entry"]
    value, f_anchor = exp["anchors"][anchor]
    errors = []
    if not _close(complex(*got["value"]), value, ZERO_TOL):
        errors.append(f"anchor value {got['value']} differs from {value!r}")
    m0, p0, n0, q0 = anchor
    a_ord, b_ord = got["aliceOrder"], got["bobOrder"]
    if a_ord[:2] != [m0, n0] or b_ord[:2] != [p0, q0]:
        errors.append("basis orders do not start with the anchor indices")
    if sorted(a_ord) != list(range(len(a_ord))) or sorted(b_ord) != list(range(len(b_ord))):
        errors.append("basis orders are not permutations")
        return errors
    f_max = got["fMax"]
    if not _close(f_max, f_anchor):
        errors.append(f"fMax {f_max!r} differs from the anchor's closed form {f_anchor!r}")
    if not _close(f_max, exp["fMaxBest"]):
        errors.append(f"fMax {f_max!r} is not the best over anchors {exp['fMaxBest']!r}")
    if not f_max <= TSIRELSON + NUM_TOL:
        errors.append(f"fMax {f_max!r} exceeds Tsirelson's bound")
    f_trace = chsh_value(mat, a_ord, b_ord, got["thetaOpt"], got["phiOpt"])
    if not _close(f_trace, f_max):
        errors.append(f"Tr(rho CHSH) at the reported angles is {f_trace!r}, not fMax {f_max!r}")
    return errors


def _check_witness(got: dict | None, exp: dict | None) -> list[str]:
    if exp is None or got is None:
        return [] if got is exp else [f"witness {got} differs from {exp}"]
    if got.get("kind") != exp["kind"]:
        return [f"witness kind {got.get('kind')!r} differs from {exp['kind']!r}"]
    if exp["kind"] == "crossed_entry":
        if (got["row"], got["col"]) != (exp["row"], exp["col"]):
            return [f"witness at {(got['row'], got['col'])}, expected {(exp['row'], exp['col'])}"]
        ok = _close(complex(*got["value"]), exp["value"], ZERO_TOL)
        return [] if ok else [f"witness value {got['value']} differs from {exp['value']!r}"]
    if (got["mValue"], got["qValue"]) != (exp["mValue"], exp["qValue"]):
        return [f"witness sector {(got['mValue'], got['qValue'])}, expected {(exp['mValue'], exp['qValue'])}"]
    ok = _close(got["minEigenvalue"], exp["minEigenvalue"])
    return [] if ok else [f"block eigenvalue {got['minEigenvalue']!r} differs from {exp['minEigenvalue']!r}"]


def check(report: dict, system: dict, exp: dict) -> list[str]:
    """Every mismatch between a normalised report and the expected result."""
    if exp["rejected"]:
        if not report.get("rejected"):
            return ["texture violation not rejected"]
        if report["violations"] != exp["violations"]:
            return [f"violations {report['violations']} differ from {exp['violations']}"]
        return []
    if report.get("rejected"):
        return ["valid state rejected"]
    errors = []
    if report["status"] != exp["status"]:
        errors.append(f"verdict {report['status']} differs from {exp['status']}")
    errors += _check_witness(report["witness"], exp["witness"])
    if not _close(report["minPtEigenvalue"], exp["minPtEigenvalue"]):
        errors.append(f"minPtEigenvalue {report['minPtEigenvalue']!r} differs from {exp['minPtEigenvalue']!r}")
    for party, got, want in zip("AB", report["purities"], exp["purities"]):
        if not _close(got, want):
            errors.append(f"reduced purity {party} {got!r} differs from {want!r}")
    errors += _check_chsh(report["chsh"], dense(system), exp)
    return errors
