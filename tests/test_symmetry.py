"""Metamorphic property tests: verdicts under symmetries that keep the texture.

A local diagonal phase unitary, a shift of the labels (J_A + c, J_B - c)
and a relabelling of each party's basis (the labels permuted with it) all
map a texture-valid state to a texture-valid state with the same crossed,
anchor and sector structure. The verdict status, the witness magnitude,
the closed-form CHSH maximum and the min PT eigenvalue must not change;
floats are compared to 1e-12 and statuses exactly.

The larger group of the texture is a unitary inside each label group of
each party: U_A (x) V_B commutes with J_A and J_B, keeps off-texture
entries exactly zero, separability and the PT spectrum, and maps each cross
block's coupling C to unitaries times C. It may move the crossed witness
and the anchors, so only the status, the min PT, a block witness's value
and the sector classes are compared.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from addobs_certify.chsh import certify_nonlocality
from addobs_certify.entanglement import (
    BlockWitness,
    CrossedEntry,
    SectorKind,
    block_ppt_min_eig,
    certify,
    classify_sectors,
    find_crossed_entries,
)
from addobs_certify.structure import EPS_PSD, EPS_ZERO, AdditiveStructure, DensityMatrix, pt_block_decomposition

from test_scan import anchored_structures, shell_state, structures

TOL = 1e-12


@st.composite
def degenerate_structures(draw):
    """Two labels per party, so shell sectors are often 2x2 or larger."""
    ja = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=2, max_size=4))
    jb = draw(st.lists(st.sampled_from([0.0, -0.5]), min_size=2, max_size=4))
    jb[0] = -ja[0]  # at least one pair on the shell J = 0
    return AdditiveStructure(tuple(ja), tuple(jb), 0.0)


@st.composite
def states(draw, structure=None):
    """A shell state, sometimes noisy, sometimes pinched so that no entry is crossed.

    Mostly white noise on the shell makes PPT sectors, and so the separable
    and inconclusive rungs, common. Pinching keeps the blocks of equal Alice
    label and zeroes the rest; it keeps positivity and the trace, and sends
    the verdict to the sector rungs. ``structure`` replaces the mix of
    structure strategies.
    """
    if structure is None:
        structure = st.one_of(structures(), anchored_structures(), degenerate_structures())
    s = draw(structure)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = shell_state(rng, s, draw(st.sampled_from([None, 1, 2])))
    if draw(st.booleans()):
        flats = list(s.shell_flats)
        mat *= 0.1
        mat[flats, flats] += 0.9 / len(flats)
    if draw(st.booleans()):
        alice = np.repeat(s.j_alice, s.d_b)
        mat[np.abs(np.subtract.outer(alice, alice)) > s.eps_j] = 0.0
    return s, DensityMatrix(mat), rng


def summary(rho, s):
    """Status, witness magnitude, fMax and min PT eigenvalue of one state."""
    verdict = certify(rho, s)
    witness = verdict.witness
    if isinstance(witness, CrossedEntry):
        size = abs(witness.value)
    elif isinstance(witness, BlockWitness):
        size = witness.min_eigenvalue
    else:
        size = None
    cert = certify_nonlocality(rho, s)
    return verdict.status, size, None if cert is None else cert.f_max, verdict.min_pt_eigenvalue


def assert_same(got, expected):
    assert got[0] is expected[0]
    for a, b in zip(got[1:], expected[1:]):
        assert (a is None) == (b is None)
        if a is not None:
            assert a == pytest.approx(b, abs=TOL, rel=0)


@settings(max_examples=100, deadline=None)
@given(states())
def test_local_diagonal_phases(case):
    s, rho, rng = case
    alpha = rng.uniform(-np.pi, np.pi, s.d_a)
    beta = rng.uniform(-np.pi, np.pi, s.d_b)
    phases = np.exp(1j * np.add.outer(alpha, beta)).ravel()
    rotated = DensityMatrix(rho.matrix * np.outer(phases, phases.conj()))
    assert_same(summary(rotated, s), summary(rho, s))


@settings(max_examples=100, deadline=None)
@given(states(), st.integers(-6, 6))
def test_label_shift(case, twice_c):
    s, rho, _ = case
    c = 0.5 * twice_c
    shifted = AdditiveStructure(
        tuple(v + c for v in s.j_alice), tuple(v - c for v in s.j_bob), s.j_total
    )
    assert_same(summary(rho, shifted), summary(rho, s))


@settings(max_examples=100, deadline=None)
@given(states())
def test_basis_permutation_with_labels(case):
    s, rho, rng = case
    alice = rng.permutation(s.d_a)
    bob = rng.permutation(s.d_b)
    permuted = AdditiveStructure(
        tuple(s.j_alice[m] for m in alice), tuple(s.j_bob[p] for p in bob), s.j_total
    )
    order = np.add.outer(alice * s.d_b, bob).ravel()
    moved = DensityMatrix(rho.matrix[np.ix_(order, order)])
    assert_same(summary(moved, permuted), summary(rho, s))


#: Examples skipped by the group-unitary test, where rounding can decide a
#: rung and so the status: a non-TYPE1 sector block's unit-trace minimum,
#: or the min PT, within this band of -psd_tol (block rung and Peres rung).
#: The rotation moves them by rounding, about 1e-15; a band of 1e-9 at the
#: default psd_tol 1e-9 would take in every minimum of 0, a third of the
#: examples and nearly all the PPT ones
DECISION_BAND = 1e-10
#: ... or a largest crossed entry that is nonzero but at most this many
#: times zero_tol (crossed rung): the rotation keeps each coupling's
#: Frobenius norm, not its largest entry, which can drop to the norm over
#: sqrt(r * c) for an r x c coupling. ``states()`` draws couplings that are
#: exactly zero (pinched) or far above zero_tol, so this band guards
#: rather than skips
COUPLING_BAND = 10.0


def haar_unitary(rng, n: int) -> np.ndarray:
    """A Haar-random n x n unitary: QR of a complex Gaussian, phases fixed (Mezzadri 2007)."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def group_unitary(rng, groups, d: int) -> np.ndarray:
    """A direct sum of Haar-random unitaries, one on each label group."""
    u = np.zeros((d, d), dtype=complex)
    for _, members in groups:
        u[np.ix_(members, members)] = haar_unitary(rng, len(members))
    return u


def near_a_decision(rho, s) -> str | None:
    """Which band the state lies in (see ``DECISION_BAND``), or None."""
    crossed = [abs(c.value) for c in find_crossed_entries(rho, s, 0.0)]
    if crossed and max(crossed) <= COUPLING_BAND * EPS_ZERO:
        return "coupling"
    blocks = {b.sector.key: b for b in pt_block_decomposition(rho, s).type_a}
    lows = [
        block_ppt_min_eig(blocks[c.sector.key])
        for c in classify_sectors(s)
        if c.kind is not SectorKind.TYPE1 and np.trace(blocks[c.sector.key].matrix).real > EPS_ZERO
    ]
    lows.append(certify(rho, s).min_pt_eigenvalue)
    if any(abs(low + EPS_PSD) <= DECISION_BAND for low in lows):
        return "block minimum"
    return None


def group_summary(rho, s):
    """(Status, block witness value, min PT eigenvalue) and (witness type,
    sector classes) of one state."""
    verdict = certify(rho, s)
    witness = verdict.witness
    block = witness.min_eigenvalue if isinstance(witness, BlockWitness) else None
    classes = tuple((c.sector.key, c.kind) for c in classify_sectors(s))
    return (verdict.status, block, verdict.min_pt_eigenvalue), (type(witness), classes)


#: dims 32-80, where the min PT and the block rung read the texture's blocks
#: (partner map, index maps of degenerate groups, SVD of the couplings)
LARGE_STATES = states(structures(st.integers(4, 8), st.integers(8, 10)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(states(), LARGE_STATES))
def test_unitaries_inside_label_groups(case):
    s, rho, rng = case
    band = near_a_decision(rho, s)
    if band:
        event(f"skipped: {band}")
    assume(band is None)
    w = np.kron(group_unitary(rng, s.alice_groups, s.d_a), group_unitary(rng, s.bob_groups, s.d_b))
    rotated = DensityMatrix(w @ rho.matrix @ w.conj().T)
    (got, got_kinds), (expected, expected_kinds) = group_summary(rotated, s), group_summary(rho, s)
    event(f"compared: {expected[0].value}")
    assert got_kinds == expected_kinds
    assert_same(got, expected)
