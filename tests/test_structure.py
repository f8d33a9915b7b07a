"""Tests for sector bookkeeping, texture validation and PT blocks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addobs_certify.higgs_zz import HIGGS_STRUCTURE, params_from_measured, rho_from_params
from addobs_certify.linalg import partial_transpose
from addobs_certify.structure import (
    EPS_PSD,
    AdditiveStructure,
    DensityMatrix,
    StateValidationError,
    TextureError,
    build_sectors,
    pt_block_decomposition,
    validate_additivity,
)

from helpers import bell_system, make_rng, random_crossed_system, random_shell_state, random_structure


class TestAdditiveStructure:
    def test_empty_shell_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AdditiveStructure((1.0, 2.0), (1.0, 2.0), 100.0)

    def test_shell_pairs_higgs(self):
        assert HIGGS_STRUCTURE.shell_pairs == ((0, 2), (1, 1), (2, 0))
        assert HIGGS_STRUCTURE.shell_flats == (2, 4, 6)

    def test_label_grouping(self):
        s = AdditiveStructure((1.0, 1.0, 0.0), (0.0, -1.0), 0.0)
        assert s.alice_indices(1.0) == (0, 1)
        assert s.alice_deg(1.0) == 2
        assert s.bob_deg(-1.0) == 1
        assert s.alice_indices(5.0) == ()

    def test_non_finite_labels_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            AdditiveStructure((float("nan"), 0.0), (0.0,), 0.0)


class TestBuildSectors:
    def test_higgs_nine_sectors(self):
        sectors = build_sectors(HIGGS_STRUCTURE)
        assert len(sectors) == 9
        on_shell = [sec for sec in sectors if sec.m_value + sec.q_value == 0.0]
        assert len(on_shell) == 3
        assert all(sec.deg_m == 1 and sec.deg_q == 1 for sec in on_shell)
        assert {sec.key for sec in on_shell} == {(1.0, -1.0), (0.0, 0.0), (-1.0, 1.0)}

    def test_qubit_pair(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        sectors = build_sectors(s)
        assert len(sectors) == 4
        assert all(sec.deg_m == 1 and sec.deg_q == 1 for sec in sectors)

    def test_degenerate_grouping(self):
        # jA = [1, 1, 0], jB = [0, -1]: 2 x 2 label grid, hand enumeration
        s = AdditiveStructure((1.0, 1.0, 0.0), (0.0, -1.0), 0.0)
        sectors = {sec.key: sec for sec in build_sectors(s)}
        assert set(sectors) == {(1.0, 0.0), (1.0, -1.0), (0.0, 0.0), (0.0, -1.0)}
        assert sectors[(1.0, 0.0)].deg_m == 2
        assert sectors[(1.0, 0.0)].deg_q == 1
        assert sectors[(1.0, 0.0)].alice_indices == (0, 1)

    def test_sectors_partition_all_pairs(self):
        rng = make_rng(2)
        for _ in range(20):
            s = random_structure(rng)
            seen = []
            for sec in build_sectors(s):
                seen.extend(sec.flat_indices(s.d_b))
            assert sorted(seen) == list(range(s.dim))


class TestDensityMatrix:
    def test_trace_violation(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_psd_violation(self):
        with pytest.raises(StateValidationError, match="semi-definite"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_non_hermitian_rejected(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError, match="Hermitian"):
            DensityMatrix(mat)

    def test_small_defects_symmetrized(self):
        mat = np.array([[0.5, 1e-12], [0.0, 0.5]], dtype=complex)
        dm = DensityMatrix(mat)
        np.testing.assert_array_equal(dm.matrix, dm.matrix.conj().T)

    def test_matrix_is_readonly(self):
        _, rho = bell_system()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40), fortran=st.booleans())
    def test_symmetrized_bits_match_reference(self, seed, dim, fortran):
        # the stored matrix is (rho + rho^dagger)/2 bit for bit, whatever the
        # input's memory order
        rng = make_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T + 1e-12 * g
        mat /= np.trace(mat).real
        mat = np.asfortranarray(mat) if fortran else mat
        expected = (mat + mat.conj().T) / 2.0
        assert DensityMatrix(mat).matrix.tobytes() == expected.tobytes()

    def test_empty_matrix_rejected(self):
        with pytest.raises(StateValidationError, match="empty"):
            DensityMatrix(np.zeros((0, 0)))


def _state_on_support(seed: int, support: list[bool], negative: bool) -> np.ndarray:
    """Unit-trace Hermitian matrix, zero outside ``support``; when ``negative``
    one eigenvalue lies below -2e-8, twenty times ``EPS_PSD``."""
    rng = make_rng(seed)
    keep = np.flatnonzero(support)
    k = keep.size
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    u, _ = np.linalg.qr(g)
    lam = rng.uniform(0.1, 1.0, k) * (rng.random(k) > 0.3)
    lam[-1] = 1.0  # at least one positive eigenvalue
    if negative:
        lam[0] = -rng.uniform(1e-6, 0.05)
    lam /= lam.sum()
    mat = np.zeros((len(support), len(support)), dtype=complex)
    mat[np.ix_(keep, keep)] = (u * lam) @ u.conj().T
    return mat


class TestDensityMatrixSupport:
    """PSD is checked on the nonzero rows only; decisions match a dense eigensolve."""

    # dimensions on both sides of the switch to the support eigensolve at 32
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        support=st.integers(1, 48)
        .flatmap(lambda d: st.lists(st.booleans(), min_size=d, max_size=d))
        .filter(any),
        negative=st.booleans(),
    )
    def test_accepts_exactly_as_dense_reference(self, seed, support, negative):
        negative = negative and sum(support) >= 2
        mat = _state_on_support(seed, support, negative)
        dense_min = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0]
        assert (dense_min < -EPS_PSD) == negative  # far from the tolerance either way
        if negative:
            with pytest.raises(StateValidationError, match="semi-definite"):
                DensityMatrix(mat)
        else:
            DensityMatrix(mat)

    @pytest.mark.parametrize("dim", [3, 40])
    def test_zero_diagonal_row_is_in_the_support(self, dim):
        # row 2 has a zero diagonal but couples to row 0, and the negative
        # eigenvalue lives on rows {0, 2}; every other row is zero
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
        mat[0, 2] = mat[2, 0] = 0.1
        assert np.linalg.eigvalsh(mat)[0] < -1e-3
        with pytest.raises(StateValidationError, match="semi-definite"):
            DensityMatrix(mat)

    @pytest.mark.parametrize("dim", [3, 40])
    def test_no_support_has_min_eigenvalue_zero(self, dim):
        # only reachable with a trace tolerance of at least 1
        assert DensityMatrix(np.zeros((dim, dim)), trace_tol=1.0).dim == dim


class TestValidateAdditivity:
    def test_higgs_texture_valid(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        assert validate_additivity(rho, s) == []

    def test_maximally_mixed_off_shell(self):
        # J = 1 leaves only the (up, up) diagonal entry on shell: the other
        # three diagonal entries of the maximally mixed state violate
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 1.0)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        violations = validate_additivity(rho, s)
        assert len(violations) == 3
        assert {(v.row, v.col) for v in violations} == {(1, 1), (2, 2), (3, 3)}
        assert all(v.row_label_sum != 1.0 for v in violations)

    def test_diagonal_on_shell_valid(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 0.25
        mat[2, 2] = 0.75
        assert validate_additivity(DensityMatrix(mat), s) == []

    def test_dimension_mismatch(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        with pytest.raises(ValueError, match="mismatch"):
            validate_additivity(np.eye(6) / 6, s)


class TestPtBlockDecomposition:
    def test_higgs_blocks(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        decomp = pt_block_decomposition(rho, s)
        assert len(decomp.type_a) == 3
        for block in decomp.type_a:
            assert block.matrix.shape == (1, 1)
        diag = sorted(float(b.matrix[0, 0].real) for b in decomp.type_a)
        assert diag == pytest.approx([0.2, 0.2, 0.6])

        assert len(decomp.type_b) == 3
        couplings = sorted(abs(b.coupling[0, 0]) for b in decomp.type_b)
        assert couplings == pytest.approx([0.2, 0.33, 0.33])
        for block in decomp.type_b:
            assert block.matrix.shape == (2, 2)
            assert block.matrix[0, 0] == 0 and block.matrix[1, 1] == 0

    def test_bell_blocks(self):
        s, rho = bell_system()
        decomp = pt_block_decomposition(rho, s)
        assert len(decomp.type_a) == 2
        assert all(b.matrix.shape == (1, 1) and b.matrix[0, 0] == 0.5 for b in decomp.type_a)
        assert len(decomp.type_b) == 1
        block = decomp.type_b[0]
        np.testing.assert_array_equal(block.matrix, np.array([[0, 0.5], [0.5, 0]]))

    def test_diagonal_state_has_zero_type_b(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = mat[2, 2] = 0.5
        decomp = pt_block_decomposition(DensityMatrix(mat), s)
        for block in decomp.type_b:
            assert np.count_nonzero(block.matrix) == 0

    def test_texture_invalid_rejected(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 1.0)
        with pytest.raises(TextureError):
            pt_block_decomposition(DensityMatrix(np.eye(4, dtype=complex) / 4), s)

    def test_reassembly_is_exact(self):
        rng = make_rng(3)
        for _ in range(25):
            s, rho = random_crossed_system(rng)
            decomp = pt_block_decomposition(rho, s)
            expected = partial_transpose(rho.matrix, s.d_a, s.d_b)
            np.testing.assert_array_equal(decomp.assemble(), expected)

    def test_type_a_traces_sum_to_one(self):
        rng = make_rng(4)
        for _ in range(25):
            s = random_structure(rng)
            rho = random_shell_state(rng, s)
            decomp = pt_block_decomposition(rho, s)
            total = sum(float(np.trace(b.matrix).real) for b in decomp.type_a)
            assert total == pytest.approx(1.0, abs=1e-9)
            for block in decomp.type_b:
                assert abs(np.trace(block.matrix)) <= 1e-12

    def test_type_b_spectra_are_sign_symmetric(self):
        rng = make_rng(5)
        for _ in range(25):
            s = random_structure(rng)
            rho = random_shell_state(rng, s)
            decomp = pt_block_decomposition(rho, s)
            for block in decomp.type_b:
                eigs = np.linalg.eigvalsh(block.matrix)
                np.testing.assert_allclose(eigs, -eigs[::-1], atol=1e-10)
