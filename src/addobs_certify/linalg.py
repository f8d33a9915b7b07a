"""Dense complex linear algebra for Hermitian problems.

Everything here is a pure function over plain ``numpy`` arrays: inputs are
never mutated and fresh arrays are returned. All storage is dense and
eigenproblems go through LAPACK. Dimensions run from 4 (two qubits) to
1024 (a 5|5 spin-1/2 chain cut). An eigensolve is cubic in the size of the
matrix it is given, so from dim 32 up ``structure`` hands it smaller ones:
the nonzero support of a density matrix and the texture's blocks of a
partial transpose, read from the density matrix without building the
partial transpose (at a 5|5 cut, 252 rows and blocks of at most 200
instead of 1024). ``partial_transpose`` itself serves the dense fallback
and callers that want the whole matrix.

Two answers need less than a full eigensolve. Whether a Hermitian matrix
has no eigenvalue below -tol is decided by a Cholesky factorization of the
matrix + tol * I, with the eigensolve only when it fails (``_psd_min_eig``).
The smallest eigenvalue of a Hermitian [[0, C], [C^dagger, 0]] is
-sigma_max(C) (Jordan-Wielandt), so ``structure`` takes a cross block's
minimum from the singular values of C.

The functions that take a bipartite matrix (``partial_transpose``,
``partial_trace``) read it through ``_square``, the package's one size
check, which also rejects NaN and inf entries; ``structure._matrix_of``
reads every state through it too. A NaN hermiticity defect fails the
Hermitian check.
"""

from __future__ import annotations

import numpy as np

#: Tolerance below which a matrix counts as Hermitian.
EPS_HERM = 1e-10


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


def _square(a, dim: int, finite: bool = True) -> np.ndarray:
    """``a`` as a dim x dim complex matrix; ``ValueError`` when it is not
    square, has another size or, with ``finite``, has a NaN or inf entry."""
    mat = as_square_matrix(a)
    if mat.shape[0] != dim:
        raise ValueError(f"dimension mismatch: matrix has dim {mat.shape[0]}, expected {dim}")
    if finite and not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
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
    return np.linalg.eigvalsh(_hermitian(h, herm_tol))


def _hermitian(h, herm_tol: float = EPS_HERM) -> np.ndarray:
    """``h`` as a square complex matrix; ``ValueError`` when it is not
    Hermitian within ``herm_tol`` (a NaN defect included), with the defect
    in the message."""
    mat = as_square_matrix(h)
    defect = hermiticity_defect(mat)
    if not defect <= herm_tol:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {herm_tol:.3e}"
        )
    return mat


def _psd_min_eig(h: np.ndarray, psd_tol: float) -> float | None:
    """None when the Hermitian ``h`` has no eigenvalue below ``-psd_tol``,
    else its smallest eigenvalue.

    A Cholesky factorization of h + psd_tol * I exists exactly when every
    eigenvalue of h exceeds -psd_tol, so its success accepts without an
    eigensolve. Rounding makes the two disagree only for a smallest
    eigenvalue within about k * eps * ||h|| of -psd_tol (k the size of h;
    Higham, Accuracy and Stability of Numerical Algorithms, ch. 10). On
    failure (at ``psd_tol`` 0 the usual outcome for a singular h)
    ``eigvalsh`` decides. An empty h has no eigenvalue and is accepted.
    """
    if not h.size:
        return None
    shifted = h.copy()
    shifted.flat[:: len(h) + 1] += psd_tol  # h + psd_tol * I, in one copy
    try:
        np.linalg.cholesky(shifted)
        return None
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(h)[0])
        return low if low < -psd_tol else None


def partial_transpose(rho, d_a: int, d_b: int) -> np.ndarray:
    """Transpose only the second (Bob) factor of a d_a*d_b bipartite matrix.

    Entry at flat position (m*d_b + q, n*d_b + p) of the result equals the
    input entry at (m*d_b + p, n*d_b + q). The operation is an involution
    and preserves trace and hermiticity.
    """
    if d_a < 1 or d_b < 1:
        raise ValueError(f"party dimensions must be at least 1, got {d_a} and {d_b}")
    out = _square(rho, d_a * d_b).reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1)
    return out.reshape(d_a * d_b, d_a * d_b).copy()


def partial_trace(rho, d_a: int, d_b: int, keep: str = "A") -> np.ndarray:
    """Reduced matrix of one party, tracing the other one out."""
    return _partial_trace(_square(rho, d_a * d_b), d_a, d_b, keep)


def _partial_trace(mat: np.ndarray, d_a: int, d_b: int, keep: str, name: str = "keep") -> np.ndarray:
    """``partial_trace`` of a checked d_a*d_b matrix; the error for a bad
    ``keep`` calls it ``name``."""
    tensor = mat.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("ipjp->ij", tensor)
    if keep == "B":
        return np.einsum("pipj->ij", tensor)
    raise ValueError(f"{name} must be 'A' or 'B', got {keep!r}")
