"""Unit and property tests for the dense linear-algebra layer."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from addobs_certify import linalg
from addobs_certify.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    eigenvalues_hermitian,
    hermiticity_defect,
    kron,
    partial_trace,
    partial_transpose,
)

from helpers import bell_system, make_rng


def complex_matrix(n: int):
    return hnp.arrays(
        np.complex128,
        (n, n),
        elements=st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    )


@st.composite
def bipartite_matrices(draw):
    d_a = draw(st.integers(1, 3))
    d_b = draw(st.integers(1, 3))
    mat = draw(complex_matrix(d_a * d_b))
    return d_a, d_b, mat


class TestPauli:
    def test_involution(self):
        np.testing.assert_array_equal(PAULI_X @ PAULI_X, np.eye(2))

    def test_sigma_x_times_sigma_y(self):
        # hand expansion: rows of sigma_x pick the opposite rows of sigma_y
        expected = np.array([[1j, 0], [0, -1j]])
        np.testing.assert_array_equal(PAULI_X @ PAULI_Y, expected)
        np.testing.assert_array_equal(PAULI_X @ PAULI_Y, 1j * PAULI_Z)

    def test_traceless(self):
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            assert np.trace(pauli) == 0


class TestKron:
    def test_identities(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            kron(np.ones((2, 3)), np.eye(2))

    def test_sigma_z_squared(self):
        np.testing.assert_array_equal(
            kron(PAULI_Z, PAULI_Z), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        )

    def test_flat_index_convention(self):
        # entry (m, p) x (n, q) of a (x) b lands at (m*d_b + p, n*d_b + q)
        a = np.array([[0, 2], [0, 0]], dtype=complex)
        b = np.array([[0, 0, 0], [3, 0, 0], [0, 0, 0]], dtype=complex)
        out = kron(a, b)
        assert out[0 * 3 + 1, 1 * 3 + 0] == 6
        assert np.count_nonzero(out) == 1

    def test_corner_block_product(self):
        # (sigma_x (+) 1_1) x (sigma_x (+) O_1), assembled block by block:
        # 3x3 blocks B at grid slots (0,1), (1,0) and (2,2), B = sigma_x (+) O_1
        a = np.zeros((3, 3), dtype=complex)
        a[:2, :2] = PAULI_X
        a[2, 2] = 1.0
        b = np.zeros((3, 3), dtype=complex)
        b[:2, :2] = PAULI_X
        expected = np.zeros((9, 9), dtype=complex)
        for i, k in ((0, 1), (1, 0), (2, 2)):
            expected[3 * i : 3 * i + 3, 3 * k : 3 * k + 3] = b
        np.testing.assert_array_equal(kron(a, b), expected)


class TestEigenvaluesHermitian:
    def test_diagonal(self):
        np.testing.assert_allclose(
            eigenvalues_hermitian(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]
        )

    def test_sigma_x(self):
        np.testing.assert_allclose(eigenvalues_hermitian(PAULI_X), [-1.0, 1.0])

    def test_bell_partial_transpose_spectrum(self):
        # analytic: diag blocks give 1/2 twice, the cross block [[0,c],[c,0]]
        # with c = 1/2 gives +/- 1/2
        _, rho = bell_system()
        pt = partial_transpose(rho.matrix, 2, 2)
        np.testing.assert_allclose(
            eigenvalues_hermitian(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigenvalues_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "mat",
        [
            [[np.nan]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.inf]],
            [[1.0, np.inf], [np.inf, 1.0]],
        ],
    )
    def test_a_nan_defect_fails_the_hermitian_check(self, mat):
        # NaN compares false with herm_tol, so "defect > tol" would let it by;
        # an inf entry gives inf - inf, a NaN defect, with no warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(hermiticity_defect(mat))
            with pytest.raises(ValueError, match="^matrix is not Hermitian: defect nan exceeds "):
                eigenvalues_hermitian(np.array(mat))


class TestPartialTranspose:
    def test_diagonal_invariance(self):
        mat = np.diag(np.arange(6, dtype=complex))
        np.testing.assert_array_equal(partial_transpose(mat, 2, 3), mat)

    def test_bell_entry_movement(self):
        _, rho = bell_system()
        pt = partial_transpose(rho.matrix, 2, 2)
        # ((0,1),(1,0)) = flat (1,2) moves to ((0,0),(1,1)) = flat (0,3)
        assert pt[0, 3] == 0.5
        assert pt[1, 2] == 0
        expected = np.zeros((4, 4), dtype=complex)  # all 16 entries by hand
        expected[1, 1] = expected[2, 2] = 0.5
        expected[0, 3] = expected[3, 0] = 0.5
        np.testing.assert_array_equal(pt, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            partial_transpose(np.eye(5), 2, 2)

    @given(bipartite_matrices())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, case):
        d_a, d_b, mat = case
        back = partial_transpose(partial_transpose(mat, d_a, d_b), d_a, d_b)
        np.testing.assert_array_equal(back, mat)

    @given(bipartite_matrices())
    @settings(max_examples=60, deadline=None)
    def test_preserves_trace_and_hermiticity(self, case):
        d_a, d_b, mat = case
        herm = (mat + mat.conj().T) / 2
        pt = partial_transpose(herm, d_a, d_b)
        assert abs(np.trace(pt) - np.trace(herm)) <= 1e-12 * (1 + abs(np.trace(herm)))
        assert hermiticity_defect(pt) <= 1e-12

    @given(bipartite_matrices())
    @settings(max_examples=60, deadline=None)
    def test_eigenvalue_sum_matches_trace(self, case):
        d_a, d_b, mat = case
        herm = (mat + mat.conj().T) / 2
        eigs = eigenvalues_hermitian(herm)
        assert len(eigs) == d_a * d_b
        assert abs(eigs.sum() - np.trace(herm).real) <= 1e-9 * d_a * d_b


class TestPartialTrace:
    def test_product_state(self):
        rng = make_rng(1)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        rho = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        np.testing.assert_allclose(partial_trace(rho, 2, 3, "A"), np.outer(a, a.conj()), atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, 2, 3, "B"), np.outer(b, b.conj()), atol=1e-12)

    def test_bell_marginals_are_maximally_mixed(self):
        _, rho = bell_system()
        np.testing.assert_allclose(partial_trace(rho.matrix, 2, 2, "A"), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho.matrix, 2, 2, "B"), np.eye(2) / 2, atol=1e-12)

    def test_bad_party(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), 2, 2, "C")


def test_pauli_constants_are_readonly():
    with pytest.raises(ValueError):
        linalg.PAULI_X[0, 0] = 5
