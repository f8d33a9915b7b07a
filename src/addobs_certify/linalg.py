"""Dense complex linear algebra for Hermitian problems.

Everything here is a pure function over plain ``numpy`` arrays: inputs are
never mutated and fresh arrays are returned. All storage is dense and
eigenproblems go through LAPACK. Dimensions run from 4 (two qubits) to
1024 (a 5|5 spin-1/2 chain cut), where each dense eigensolve is cubic in
the dimension and dominates the cost of a call.
"""

from __future__ import annotations

import numpy as np

#: Tolerance below which a matrix counts as Hermitian.
EPS_HERM = 1e-10
#: Eigenvalue accuracy (relative to the spectral radius) assumed downstream.
EPS_EIG = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


PAULI_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))


def as_square_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix, rejecting anything else."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def kron(a, b) -> np.ndarray:
    """Kronecker product with the flat-index convention (m, p) -> m*dB + p.

    The first factor is the Alice-side operator, i.e. flat indices are
    Alice-major, matching the ordering used throughout the package.
    """
    return np.kron(as_square_matrix(a), as_square_matrix(b))


def hermiticity_defect(a) -> float:
    """Largest entrywise distance from ``a`` to its conjugate transpose."""
    mat = as_square_matrix(a)
    return float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0


def eigenvalues_hermitian(h, herm_tol: float = EPS_HERM) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, real and ascending.

    Raises ``ValueError`` when the input is not Hermitian within
    ``herm_tol``; the defect is reported in the message.
    """
    mat = as_square_matrix(h)
    defect = hermiticity_defect(mat)
    if defect > herm_tol:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {herm_tol:.3e}"
        )
    return np.linalg.eigvalsh(mat)


def partial_transpose(rho, d_a: int, d_b: int) -> np.ndarray:
    """Transpose only the second (Bob) factor of a d_a*d_b bipartite matrix.

    Entry at flat position (m*d_b + q, n*d_b + p) of the result equals the
    input entry at (m*d_b + p, n*d_b + q). The operation is an involution
    and preserves trace and hermiticity.
    """
    mat = as_square_matrix(rho)
    if d_a < 1 or d_b < 1 or mat.shape[0] != d_a * d_b:
        raise ValueError(
            f"dimension mismatch: matrix has dim {mat.shape[0]}, expected {d_a}*{d_b}"
        )
    out = mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1)
    return out.reshape(d_a * d_b, d_a * d_b).copy()


def partial_trace(rho, d_a: int, d_b: int, keep: str = "A") -> np.ndarray:
    """Reduced matrix of one party, tracing the other one out."""
    mat = as_square_matrix(rho)
    if mat.shape[0] != d_a * d_b:
        raise ValueError(
            f"dimension mismatch: matrix has dim {mat.shape[0]}, expected {d_a}*{d_b}"
        )
    tensor = mat.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("ipjp->ij", tensor)
    if keep == "B":
        return np.einsum("pipj->ij", tensor)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
