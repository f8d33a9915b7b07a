"""Property tests of the single texture scan against per-entry references.

The references below walk the above-tolerance entries one at a time, with
the label predicates spelled out per entry; the package classifies all
entries in one vectorized pass and must agree with them exactly.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addobs_certify.chsh import (
    TSIRELSON_BOUND,
    AnchorEntry,
    certify_nonlocality,
    f_max_closed_form,
    find_anchor_entries,
    grid_verify,
)
from addobs_certify.entanglement import CrossedEntry, VerdictStatus, certify, find_crossed_entries
from addobs_certify.higgs_zz import HIGGS_STRUCTURE
from addobs_certify.structure import (
    AdditiveStructure,
    DensityMatrix,
    TextureError,
    TextureViolation,
    min_pt_eigenvalue,
    pt_block_decomposition,
    validate_additivity,
)

from helpers import group_size, make_rng, random_anchored_system

# --- per-entry references ---


def reference_violations(mat, s, tol):
    out = []
    for row, col in np.argwhere(np.abs(mat) > tol):
        m, p = s.split_index(int(row))
        n, q = s.split_index(int(col))
        if s.on_shell(m, p) and s.on_shell(n, q):
            continue
        out.append(
            TextureViolation(
                row=int(row), col=int(col), alice_row=m, bob_row=p, alice_col=n, bob_col=q,
                value=complex(mat[row, col]),
                row_label_sum=s.label_sum(m, p), col_label_sum=s.label_sum(n, q),
            )
        )
    return out


def reference_crossed(mat, s, tol):
    out = []
    rows, cols = np.nonzero(np.abs(mat) > tol)
    for row, col in zip(rows.tolist(), cols.tolist()):
        if row >= col:
            continue
        m, p = s.split_index(row)
        n, q = s.split_index(col)
        if abs(s.j_alice[m] + s.j_bob[q] - s.j_total) <= s.eps_j:
            continue
        out.append(CrossedEntry(alice=(m, n), bob=(p, q), value=complex(mat[row, col]), row=row, col=col))
    return out


def _nondegenerate(s, m, p):
    return group_size(s.alice_groups, m) == 1 and group_size(s.bob_groups, p) == 1


def reference_anchors(mat, s, tol):
    out = []
    rows, cols = np.nonzero(np.abs(mat) > tol)
    for row, col in zip(rows.tolist(), cols.tolist()):
        if row >= col:
            continue
        m, p = s.split_index(row)
        n, q = s.split_index(col)
        if m == n or p == q:
            continue
        if (
            abs(s.j_alice[m] - s.j_alice[n]) <= s.eps_j
            or abs(s.j_bob[p] - s.j_bob[q]) <= s.eps_j
        ):
            continue
        if _nondegenerate(s, n, q):
            out.append(AnchorEntry(m, p, n, q, complex(mat[row, col])))
        elif _nondegenerate(s, m, p):
            out.append(AnchorEntry(n, q, m, p, complex(mat[col, row])))
    return out


def reference_certificate(rho, s, tol):
    best = None
    for anchor in find_anchor_entries(rho, s, tol):
        cert = f_max_closed_form(rho, anchor, s)
        if best is None or cert.f_max > best.f_max:
            best = cert
    return best


# --- generated systems ---

#: Label jitter far inside ``EPS_J``: equal labels stay equal within the
#: tolerance, and distinct ones (multiples of 1/2) stay far apart.
JITTER = 2e-10


@st.composite
def structures(draw, d_a=st.integers(1, 4), d_b=st.integers(1, 5)):
    """Label sets on a half-integer grid; most Bob labels pair with an Alice one on the shell."""
    d_a, d_b = draw(d_a), draw(d_b)
    grid = st.integers(-4, 4)
    ja = [0.5 * v for v in draw(st.lists(grid, min_size=d_a, max_size=d_a))]
    total = 0.5 * draw(grid)
    partner = st.sampled_from([total - v for v in ja])
    jb = draw(st.lists(st.one_of(partner, partner, grid.map(lambda v: 0.5 * v)), min_size=d_b, max_size=d_b))
    if draw(st.booleans()):
        jitter = st.floats(-JITTER, JITTER)
        ja = [v + draw(jitter) for v in ja]
        jb = [v + draw(jitter) for v in jb]
    if not any(abs(a + b - total) <= 1e-9 for a in ja for b in jb):
        jb[0] = total - ja[0]
    return AdditiveStructure(tuple(ja), tuple(jb), total)


@st.composite
def anchored_structures(draw):
    """``structures`` plus one new label per party forming a non-degenerate shell pair.

    Every shell pair already present has a different Alice label, so the
    entry joining it to the new pair is a crossed anchor position.
    """
    s = draw(structures())
    free = [
        0.5 * v for v in range(-12, 13)
        if all(abs(0.5 * v - a) > 0.25 for a in s.j_alice)
        and all(abs(s.j_total - 0.5 * v - b) > 0.25 for b in s.j_bob)
    ]
    x = draw(st.sampled_from(free))
    ja, jb = list(s.j_alice), list(s.j_bob)
    ja.insert(draw(st.integers(0, len(ja))), x)
    jb.insert(draw(st.integers(0, len(jb))), s.j_total - x)
    return AdditiveStructure(tuple(ja), tuple(jb), s.j_total)


def shell_state(rng, s, rank=None):
    """Random density matrix supported on the shell, as a dense array."""
    flats = list(s.shell_flats)
    k = len(flats)
    g = rng.normal(size=(k, rank or k)) + 1j * rng.normal(size=(k, rank or k))
    core = g @ g.conj().T
    mat = np.zeros((s.dim, s.dim), dtype=complex)
    mat[np.ix_(flats, flats)] = core / np.trace(core).real
    return mat


@st.composite
def scan_cases(draw):
    """A structure, a Hermitian matrix with holes and maybe off-shell entries, a tolerance."""
    s = draw(st.one_of(structures(), anchored_structures()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = shell_state(rng, s)
    # knock out entries in Hermitian pairs, so the support is not full
    holes = np.triu(rng.random((s.dim, s.dim)) < draw(st.sampled_from([0.0, 0.3, 0.7])))
    mat[holes | holes.T] = 0.0
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            row, col = (int(v) for v in rng.integers(s.dim, size=2))
            value = complex(rng.normal(), rng.normal()) if row != col else complex(abs(rng.normal()))
            mat[row, col] = value
            mat[col, row] = value.conjugate()
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.05]))
    return s, mat, tol


#: Signed zeros: live by bit pattern, zero by value.
SIGNED_ZEROS = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


@st.composite
def live_scan_cases(draw):
    """From dim 32 up, where the scan reads the live submatrix: a shell state
    with some shell rows emptied, off-shell entries (some in otherwise-zero
    rows and columns), -0.0 parts anywhere, a tolerance; as a raw array or,
    kept positive, as a ``DensityMatrix``."""
    s = draw(structures(st.integers(4, 8), st.integers(8, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    as_state = draw(st.booleans())
    mat = shell_state(rng, s, draw(st.sampled_from([None, 1, 3])))
    shell = set(s.shell_flats)
    off = [k for k in range(s.dim) if k not in shell]
    emptied = [k for k in s.shell_flats if rng.random() < 0.3]
    mat[emptied, :] = mat[:, emptied] = 0.0
    for _ in range(draw(st.integers(0, 3)) if off else 0):
        row = int(rng.choice(off))
        if as_state:  # a positive off-shell diagonal entry keeps rho positive
            mat[row, row] = rng.uniform(0.01, 0.2)
        else:
            col = int(rng.integers(s.dim))
            mat[row, col] = complex(rng.normal(), rng.normal() if row != col else 0.0)
            mat[col, row] = mat[row, col].conjugate()
    for _ in range(draw(st.integers(0, 4))):
        row, col = (int(v) for v in rng.integers(s.dim, size=2))
        if mat[row, col] == 0:
            mat[row, col] = mat[col, row] = draw(st.sampled_from(SIGNED_ZEROS))
    if np.trace(mat).real > 0:
        mat /= np.trace(mat).real
    else:
        assume(not as_state)
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    return s, DensityMatrix(mat) if as_state else mat, tol


@st.composite
def anchored_states(draw):
    """A density matrix on the shell of a structure with anchor positions."""
    s = draw(anchored_structures())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.sampled_from([None, 1, 2]))
    rho = DensityMatrix(shell_state(rng, s, rank))
    tol = draw(st.sampled_from([1e-12, 1e-3]))
    return s, rho, tol


def _raises_texture(fn, *args):
    with pytest.raises(TextureError) as info:
        fn(*args)
    return info.value.violations


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_scan_matches_per_entry_reference(case):
    _check_scan_against_references(case)


@settings(max_examples=100, deadline=None)
@given(live_scan_cases())
def test_live_scan_matches_per_entry_reference(case):
    # from dim 32 up the scan reads the live submatrix and maps its positions back
    _check_scan_against_references(case)


def _check_scan_against_references(case):
    # the references read every entry of the stored matrix
    s, rho, tol = case
    mat = rho.matrix if isinstance(rho, DensityMatrix) else rho
    violations = reference_violations(mat, s, tol)
    assert validate_additivity(rho, s, tol) == violations
    pt = np.swapaxes(mat.reshape(s.d_a, s.d_b, s.d_a, s.d_b), 1, 3).reshape(s.dim, s.dim)
    assert abs(min_pt_eigenvalue(rho, s) - np.linalg.eigvalsh(pt)[0]) <= 1e-13
    if violations:
        assert _raises_texture(find_crossed_entries, rho, s, tol) == violations
        assert _raises_texture(find_anchor_entries, rho, s, tol) == violations
        assert _raises_texture(pt_block_decomposition, rho, s, tol) == violations
        assert _raises_texture(certify_nonlocality, rho, s, tol) == violations
        return
    crossed = find_crossed_entries(rho, s, tol)
    anchors = find_anchor_entries(rho, s, tol)
    assert crossed == reference_crossed(mat, s, tol)
    assert anchors == reference_anchors(mat, s, tol)
    # every anchor is a crossed entry, in one of its two orientations
    positions = {(e.row, e.col) for e in crossed}
    for a in anchors:
        row, col = a.row(s.d_b), a.col(s.d_b)
        assert (min(row, col), max(row, col)) in positions


@settings(max_examples=100, deadline=None)
@given(st.one_of(scan_cases(), live_scan_cases()))
def test_anchor_check_and_scan_share_one_crossed_predicate(case):
    # f_max_closed_form accepts every anchor the scan lists, and calls every
    # other entry above tol with both pairs on the shell, listed as crossed
    # in neither orientation, not crossed
    s, rho, tol = case
    if validate_additivity(rho, s, tol):
        return
    mat = rho.matrix if isinstance(rho, DensityMatrix) else rho
    for anchor in find_anchor_entries(rho, s, tol):
        f_max_closed_form(rho, anchor, s)
    crossed = {(e.row, e.col) for e in find_crossed_entries(rho, s, tol)}
    for row, col in np.argwhere(np.abs(mat) > tol).tolist():
        (m, p), (n, q) = s.split_index(row), s.split_index(col)
        if not (s.on_shell(m, p) and s.on_shell(n, q)) or (min(row, col), max(row, col)) in crossed:
            continue
        with pytest.raises(ValueError, match="must be a crossed entry"):
            f_max_closed_form(rho, AnchorEntry(m, p, n, q, complex(mat[row, col])), s)


@settings(max_examples=100, deadline=None)
@given(anchored_states())
def test_certificate_is_first_scalar_maximum(case):
    s, rho, tol = case
    expected = reference_certificate(rho, s, tol)
    cert = certify_nonlocality(rho, s, tol)
    if expected is None:
        assert cert is None
        return
    assert cert.anchor == expected.anchor
    assert cert.f_max == expected.f_max
    assert (cert.theta_opt, cert.phi_opt) == (expected.theta_opt, expected.phi_opt)
    assert cert.reorder == expected.reorder
    assert 2.0 < cert.f_max <= TSIRELSON_BOUND + 1e-12  # rounding slack only


@pytest.mark.parametrize("seed", range(40))
def test_certificate_is_first_maximum_off_the_texture(seed):
    # 1e-2 of the weight spread over the off-shell diagonal, valid at
    # zero_tol 1e-2: the leak lowers each anchor's fMax by its own amount,
    # so ranking anchors by the exact-texture score alone could pick an
    # anchor whose certificate is not the best
    rng, weights = make_rng(seed), np.random.default_rng(seed)
    for _ in range(100):
        s, rho, _ = random_anchored_system(rng)
        shell = set(s.shell_flats)
        off = [k for k in range(s.dim) if k not in shell]
        if not off:
            continue
        w = np.minimum(weights.dirichlet(np.ones(len(off))) * 1e-2, 0.99e-2)
        mat = (1.0 - w.sum()) * rho.matrix
        mat[off, off] += w
        state = DensityMatrix(mat)
        expected = reference_certificate(state, s, 1e-2)
        cert = certify_nonlocality(state, s, 1e-2)
        if expected is None:
            assert cert is None
            continue
        assert cert.anchor == expected.anchor
        assert cert.f_max == expected.f_max
        assert (cert.theta_opt, cert.phi_opt) == (expected.theta_opt, expected.phi_opt)
        assert cert.reorder == expected.reorder


@settings(max_examples=100, deadline=None)
@given(anchored_states())
def test_closed_form_bounds_the_grid_and_tsirelson(case):
    s, rho, tol = case
    for anchor in find_anchor_entries(rho, s, tol):
        f_max = f_max_closed_form(rho, anchor, s).f_max
        assert grid_verify(rho, anchor, s, n_theta=16, n_phi=32) <= f_max + 1e-12
        assert f_max <= TSIRELSON_BOUND + 1e-12


def test_exact_tie_keeps_first_anchor():
    # H->ZZ labels, shell flats 2, 4, 6 with weights 1/2, 1/4, 1/4: the
    # anchors at (2,4) and (2,6) share |a| = 0.2 and <Oz> = 3/4, so their
    # closed forms tie exactly; their phases differ, and so do the angles
    s = HIGGS_STRUCTURE
    mat = np.zeros((9, 9), dtype=complex)
    mat[2, 2], mat[4, 4], mat[6, 6] = 0.5, 0.25, 0.25
    mat[2, 4] = 0.2
    mat[2, 6] = 0.2j
    mat += np.triu(mat, 1).conj().T
    rho = DensityMatrix(mat)
    anchors = find_anchor_entries(rho, s)
    first, second = (f_max_closed_form(rho, a, s) for a in anchors)
    assert first.f_max == second.f_max
    assert first.phi_opt != second.phi_opt
    cert = certify_nonlocality(rho, s)
    assert (cert.anchor.row(3), cert.anchor.col(3)) == (2, 4)
    assert cert.phi_opt == first.phi_opt


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_certify_witness_is_first_largest_crossed_entry(case):
    s, mat, tol = case
    assume(not validate_additivity(mat, s, tol))
    crossed = find_crossed_entries(mat, s, tol)
    witness = certify(mat, s, tol).witness
    if crossed:
        assert witness == max(crossed, key=lambda e: abs(e.value))
    else:
        assert not isinstance(witness, CrossedEntry)


def test_exact_tie_keeps_first_crossed_entry():
    # H->ZZ labels, shell flats 2, 4, 6: the crossed entries at (2,4) and
    # (2,6) have |value| = 0.2 exactly and different phases
    s = HIGGS_STRUCTURE
    mat = np.zeros((9, 9), dtype=complex)
    mat[2, 2], mat[4, 4], mat[6, 6] = 0.5, 0.25, 0.25
    mat[2, 4] = 0.12 + 0.16j
    mat[2, 6] = 0.16 - 0.12j
    mat += np.triu(mat, 1).conj().T
    rho = DensityMatrix(mat)
    first, second = find_crossed_entries(rho, s)
    assert abs(first.value) == abs(second.value)
    assert first.value != second.value
    assert certify(rho, s).witness == first
    assert (first.row, first.col) == (2, 4)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
def test_bad_tolerance_rejected(tol):
    s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = mat[2, 2] = 0.5
    for fn in (validate_additivity, find_crossed_entries, find_anchor_entries,
               pt_block_decomposition, certify_nonlocality):
        with pytest.raises(ValueError, match="zero_tol"):
            fn(mat, s, tol)


# --- one analysis record per state ---

BELL = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
#: Total S_z of each basis state of three spin-1/2s.
SPIN3 = tuple((3 - 2 * bin(k).count("1")) / 2.0 for k in range(8))
#: A 3|3 chain cut at J = 0: dim 64, so calls take the live-index path.
CHAIN3 = AdditiveStructure(SPIN3, SPIN3, 0.0)


def _loose_state(mat):
    """``mat`` as a ``DensityMatrix`` whatever its trace and spectrum."""
    return DensityMatrix(mat, trace_tol=1e300, psd_tol=1e300)


def _blocks(decomposition):
    """Each block's fields, with its matrix as bytes: blocks compare by identity."""
    return [
        tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(b).values())
        for b in decomposition.type_a + decomposition.type_b
    ]


def _certificate(cert):
    return cert and (cert.anchor, cert.reorder, cert.f_max, cert.theta_opt, cert.phi_opt)


#: Every public function that reads the record, as (rho, s, tol) -> comparable value.
RECORD_CALLS = {
    "validate_additivity": validate_additivity,
    "find_crossed_entries": find_crossed_entries,
    "find_anchor_entries": find_anchor_entries,
    "certify": certify,
    "certify_nonlocality": lambda rho, s, tol: _certificate(certify_nonlocality(rho, s, tol)),
    "min_pt_eigenvalue": lambda rho, s, tol: min_pt_eigenvalue(rho, s),
    "pt_block_decomposition": lambda rho, s, tol: _blocks(pt_block_decomposition(rho, s, tol)),
}


def _outcome(name, rho, s, tol):
    try:
        return RECORD_CALLS[name](rho, s, tol)
    except TextureError as exc:
        return "TextureError", exc.violations


@settings(max_examples=100, deadline=None)
@given(st.one_of(scan_cases(), live_scan_cases()), st.data())
def test_alternating_keys_on_one_state_answer_as_fresh_states(case, data):
    # one state asked under alternating structures and tolerances keeps one
    # record at a time; each answer must be the one a fresh state gives
    s, rho, tol = case
    source = rho.matrix if isinstance(rho, DensityMatrix) else rho
    state = _loose_state(source)
    twins = (
        s,
        AdditiveStructure(s.j_alice, s.j_bob, s.j_total),  # equal, another object
        AdditiveStructure(s.j_alice[::-1], s.j_bob, s.j_total),  # another shell
    )
    # a tolerance amid the entries' magnitudes, so tolerances change answers
    magnitudes = np.abs(source[source != 0])
    tols = [tol, 0.0, float(np.median(magnitudes)) if magnitudes.size else 1e-3]
    calls = data.draw(st.lists(
        st.tuples(st.sampled_from(twins), st.sampled_from(tols), st.sampled_from(sorted(RECORD_CALLS))),
        min_size=2, max_size=10,
    ))
    for s_k, tol_k, name in calls:
        assert _outcome(name, state, s_k, tol_k) == _outcome(name, _loose_state(source), s_k, tol_k)


def test_validate_additivity_hands_out_a_new_list():
    # the off-shell diagonal entry at |00> violates the texture
    rho = DensityMatrix(np.diag([0.2, 0.5, 0.3, 0.0]).astype(complex))
    violations = validate_additivity(rho, BELL)
    assert [(v.row, v.col) for v in violations] == [(0, 0)]
    expected = list(violations)
    violations.clear()
    assert _raises_texture(certify, rho, BELL) == expected
    assert validate_additivity(rho, BELL) == expected
    assert validate_additivity(rho, BELL) is not validate_additivity(rho, BELL)


def test_pt_block_decomposition_hands_out_fresh_blocks():
    # overwriting the handed-out blocks changes neither a later
    # decomposition nor the solves the state's record makes afterwards
    mat = shell_state(np.random.default_rng(11), CHAIN3)
    rho = DensityMatrix(mat)
    first = pt_block_decomposition(rho, CHAIN3)
    expected = _blocks(first)
    for block in first.type_a + first.type_b:
        block.matrix[...] = 7.0
    assert certify(rho, CHAIN3) == certify(DensityMatrix(mat), CHAIN3)
    assert min_pt_eigenvalue(rho, CHAIN3) == min_pt_eigenvalue(DensityMatrix(mat), CHAIN3)
    second = pt_block_decomposition(rho, CHAIN3)
    assert _blocks(second) == expected
    for a, b in zip(first.type_a + first.type_b, second.type_a + second.type_b):
        assert not np.shares_memory(a.matrix, b.matrix)


def test_a_state_cannot_be_written_under_its_record():
    rho = DensityMatrix(np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex))
    assert certify(rho, BELL).status is VerdictStatus.SEPARABLE_CERTIFIED
    with pytest.raises(ValueError):
        rho.matrix[1, 2] = 0.5
    with pytest.raises(ValueError):
        rho.matrix.setflags(write=True)


@pytest.mark.parametrize("s", [BELL, CHAIN3], ids=["dim4", "dim64"])
def test_a_raw_array_is_read_afresh_on_every_call(s):
    full = shell_state(np.random.default_rng(5), s)
    row, col = next((e.row, e.col) for e in find_crossed_entries(full, s))
    mat = np.diag(np.diag(full))  # the shell diagonal: no crossed entry
    before = certify(mat, s)
    assert not isinstance(before.witness, CrossedEntry)
    assert validate_additivity(mat, s) == [] and find_crossed_entries(mat, s) == []
    mat[row, col], mat[col, row] = full[row, col], full[col, row]
    after = certify(mat, s)
    assert (after.witness.row, after.witness.col) == (row, col)
    assert min_pt_eigenvalue(mat, s) < before.min_pt_eigenvalue
    assert after == certify(mat.copy(), s)
    off = next(k for k in range(s.dim) if k not in s.shell_flats)
    mat[off, off] = 0.1
    assert [(v.row, v.col) for v in validate_additivity(mat, s)] == [(off, off)]


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
def test_bad_tolerance_rejected_on_a_state_with_a_record(tol):
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = mat[2, 2] = 0.5
    rho = DensityMatrix(mat)
    message = f"zero_tol must be finite and nonnegative, got {tol!r}"
    for fn in (validate_additivity, find_crossed_entries, find_anchor_entries,
               pt_block_decomposition, certify, certify_nonlocality):
        fn(rho, BELL)  # the state now keeps a record under the default tolerance
        with pytest.raises(ValueError) as info:
            fn(rho, BELL, tol)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            fn(mat, BELL, tol)
        assert str(info.value) == message


def test_threads_sharing_one_state_get_the_answers_of_fresh_states():
    # threads alternate tolerances on one state, so its record is replaced
    # under them; every answer must still be the one a fresh state gives
    mat = shell_state(np.random.default_rng(3), CHAIN3)
    tols = (0.0, float(np.median(np.abs(mat[mat != 0]))))

    def answers(rho, tol):
        return [RECORD_CALLS[name](rho, CHAIN3, tol) for name in ("find_crossed_entries", "certify", "certify_nonlocality")]

    expected = {tol: answers(DensityMatrix(mat), tol) for tol in tols}
    assert expected[tols[0]] != expected[tols[1]]
    rho, wrong = DensityMatrix(mat), []

    def work(offset):
        for i in range(40):
            tol = tols[(i + offset) % 2]
            got = answers(rho, tol)
            if got != expected[tol]:
                wrong.append((tol, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_threads_sharing_one_state_scan_at_their_own_tolerance():
    # every call at the other tolerance replaces the record's scan slot under
    # the other threads; each call must still list the crossed entries at its own
    mat = shell_state(np.random.default_rng(4), CHAIN3)
    tols = (0.0, float(np.median(np.abs(mat[mat != 0]))))
    expected = {tol: find_crossed_entries(DensityMatrix(mat), CHAIN3, tol) for tol in tols}
    assert expected[tols[0]] != expected[tols[1]]
    rho, wrong = DensityMatrix(mat), []

    def work(offset):
        for i in range(60):
            tol = tols[(i + offset) % 2]
            if find_crossed_entries(rho, CHAIN3, tol) != expected[tol]:
                wrong.append(tol)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
