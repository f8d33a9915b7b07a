"""Metamorphic property tests: verdicts under symmetries that keep the texture.

A local diagonal phase unitary, a shift of the labels (J_A + c, J_B - c)
and a relabelling of each party's basis (the labels permuted with it) all
map a texture-valid state to a texture-valid state with the same crossed,
anchor and sector structure. The verdict status, the witness magnitude and
the closed-form CHSH maximum must not change; floats are compared to
1e-12 and statuses exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addobs_certify.chsh import certify_nonlocality
from addobs_certify.entanglement import BlockWitness, CrossedEntry, certify
from addobs_certify.structure import AdditiveStructure, DensityMatrix

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
def states(draw):
    """A shell state, sometimes noisy, sometimes pinched so that no entry is crossed.

    Mostly white noise on the shell makes PPT sectors, and so the separable
    and inconclusive rungs, common. Pinching keeps the blocks of equal Alice
    label and zeroes the rest; it keeps positivity and the trace, and sends
    the verdict to the sector rungs.
    """
    s = draw(st.one_of(structures(), anchored_structures(), degenerate_structures()))
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
    """Status, witness magnitude and fMax of one state."""
    verdict = certify(rho, s)
    witness = verdict.witness
    if isinstance(witness, CrossedEntry):
        size = abs(witness.value)
    elif isinstance(witness, BlockWitness):
        size = witness.min_eigenvalue
    else:
        size = None
    cert = certify_nonlocality(rho, s)
    return verdict.status, size, None if cert is None else cert.f_max


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
