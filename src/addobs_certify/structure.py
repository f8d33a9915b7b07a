"""Additive-observable structure of a bipartite state.

A system carries an additive observable J = J_A + J_B with a definite total
value. Working in product eigenbases of J_A and J_B, that constraint forces
a texture on the density matrix: an entry rho[(m,p),(n,q)] may be nonzero
only when the labels satisfy M+P = N+Q = J. This module encodes the
eigenvalue assignments, groups basis pairs into (M, Q) sectors, validates
the texture, and decomposes the partial transpose into its two kinds of
blocks:

* sector blocks ("type A"): principal submatrices on the pairs with
  M+Q = J; these are the partial transposes of the sector states and stay
  positive semi-definite exactly when the sector is PPT;
* cross blocks ("type B"): for off-shell pairs (M+Q != J) the partial
  transpose couples the (M,Q) pairs to the unique partner (N,P) =
  (J-Q, J-M), producing a Hermitian block with zero diagonal sub-blocks,
  hence a spectrum symmetric about zero.

Off-shell pairs without partner eigenvalues lie in no block; their rows of
the partial transpose are zero. One partition of the basis pairs into these
blocks is cached per structure, each block with the positions of rho its
entries come from (the partial transpose only permutes entries), so no
block needs rho^{T2} itself. It serves ``pt_block_decomposition``,
``min_pt_eigenvalue`` and the block-PPT rung of ``entanglement.certify``:
the smallest PT eigenvalue is the minimum over the block spectra (and 0
for uncovered rows), checked first to be exact for the given matrix, with
one dense eigensolve of rho^{T2} as the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import EPS_HERM, as_square_matrix, eigenvalues_hermitian, partial_transpose

#: Tolerance for comparing eigenvalue labels of the additive observable.
EPS_J = 1e-9
#: Unit-trace tolerance for density matrices.
EPS_TR = 1e-9
#: Positive semi-definiteness tolerance for density matrices.
EPS_PSD = 1e-9
#: Default threshold below which a matrix entry counts as vanishing.
EPS_ZERO = 1e-12


class StateValidationError(ValueError):
    """A matrix failed the density-matrix invariants (trace/PSD/hermiticity)."""


class TextureError(ValueError):
    """A density matrix has entries forbidden by the additive constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            f"{len(self.violations)} entries violate the additive-observable texture"
        )


def _group_labels(values: tuple[float, ...], eps: float) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """Cluster label values within eps; returns (representative, indices) pairs."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    groups: list[tuple[float, list[int]]] = []
    for i in order:
        if groups and abs(values[i] - groups[-1][0]) <= eps:
            groups[-1][1].append(i)
        else:
            groups.append((values[i], [i]))
    return tuple((rep, tuple(sorted(idx))) for rep, idx in groups)


@dataclass(frozen=True)
class AdditiveStructure:
    """Eigenvalue assignments of an additive observable with a definite total.

    ``j_alice[m]`` is the J_A eigenvalue of Alice's m-th basis state and
    ``j_bob[p]`` Bob's; ``j_total`` is the definite value of J_A + J_B.
    At least one basis pair must lie on the shell M + P = J, otherwise no
    state can satisfy the constraint.
    """

    j_alice: tuple[float, ...]
    j_bob: tuple[float, ...]
    j_total: float
    eps_j: float = field(default=EPS_J, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "j_alice", tuple(float(v) for v in self.j_alice))
        object.__setattr__(self, "j_bob", tuple(float(v) for v in self.j_bob))
        object.__setattr__(self, "j_total", float(self.j_total))
        labels = self.j_alice + self.j_bob + (self.j_total,)
        if not all(np.isfinite(labels)):
            raise ValueError("eigenvalue labels must be finite")
        if not self.j_alice or not self.j_bob:
            raise ValueError("each party needs at least one basis label")
        if not self.shell_pairs:
            raise ValueError(
                "no basis pair satisfies M + P = J; the constrained state space is empty"
            )

    @property
    def d_a(self) -> int:
        return len(self.j_alice)

    @property
    def d_b(self) -> int:
        return len(self.j_bob)

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def flat_index(self, m: int, p: int) -> int:
        return m * self.d_b + p

    def split_index(self, k: int) -> tuple[int, int]:
        return divmod(k, self.d_b)

    def label_sum(self, m: int, p: int) -> float:
        return self.j_alice[m] + self.j_bob[p]

    def on_shell(self, m: int, p: int) -> bool:
        return abs(self.label_sum(m, p) - self.j_total) <= self.eps_j

    @cached_property
    def shell_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (m, p) with J_A[m] + J_B[p] = J."""
        return tuple(
            (m, p)
            for m in range(self.d_a)
            for p in range(self.d_b)
            if self.on_shell(m, p)
        )

    @cached_property
    def shell_flats(self) -> tuple[int, ...]:
        return tuple(self.flat_index(m, p) for m, p in self.shell_pairs)

    @cached_property
    def alice_groups(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        return _group_labels(self.j_alice, self.eps_j)

    @cached_property
    def bob_groups(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        return _group_labels(self.j_bob, self.eps_j)

    @cached_property
    def _pt_blocks(self) -> tuple[_PtBlock, ...]:
        """The blocks of rho^{T2} forced by the texture, in sector order.

        One block per shell sector (M + Q = J) and one per cross pair of
        off-shell sectors (M, Q) and (J-Q, J-M), from its lexicographically
        smaller side. An off-shell sector without partner eigenvalues is in
        no block: for a texture-valid rho its rows of rho^{T2} are zero.
        """
        sectors = build_sectors(self)
        by_key = {sec.key: sec for sec in sectors}
        blocks = []
        for sec in sectors:
            flats = sec.flat_indices(self.d_b)
            if abs(sec.m_value + sec.q_value - self.j_total) <= self.eps_j:
                blocks.append(self._new_pt_block(sec, None, flats, ()))
                continue
            alice_partner = self.alice_group(self.j_total - sec.q_value)
            bob_partner = self.bob_group(self.j_total - sec.m_value)
            if alice_partner is None or bob_partner is None:
                continue
            partner = by_key[(alice_partner[0], bob_partner[0])]
            if sec.key <= partner.key:
                blocks.append(self._new_pt_block(sec, partner, flats, partner.flat_indices(self.d_b)))
        return tuple(blocks)

    def _new_pt_block(self, sector, partner, flats_mq, flats_np) -> _PtBlock:
        # rho^{T2}[(m,q),(n,p)] = rho[(m,p),(n,q)]: a row of rho takes the
        # Alice index of the PT row and the Bob index of the PT column
        alice, bob = np.divmod(np.asarray(flats_mq + flats_np, dtype=np.intp), self.d_b)
        alice *= self.d_b
        rows = alice[:, None] + bob[None, :]
        cols = alice[None, :] + bob[:, None]
        return _PtBlock(sector, partner, flats_mq, flats_np, rows, cols)

    @cached_property
    def _pt_cover(self) -> tuple[bool, bool]:
        """Whether the ``_pt_blocks`` share no row, and whether they cover every row."""
        flats = [f for b in self._pt_blocks for f in b.flats_mq + b.flats_np]
        return len(set(flats)) == len(flats), len(flats) == self.dim

    def alice_group(self, value: float) -> tuple[float, tuple[int, ...]] | None:
        for rep, idx in self.alice_groups:
            if abs(rep - value) <= self.eps_j:
                return rep, idx
        return None

    def bob_group(self, value: float) -> tuple[float, tuple[int, ...]] | None:
        for rep, idx in self.bob_groups:
            if abs(rep - value) <= self.eps_j:
                return rep, idx
        return None

    def alice_indices(self, value: float) -> tuple[int, ...]:
        group = self.alice_group(value)
        return group[1] if group else ()

    def bob_indices(self, value: float) -> tuple[int, ...]:
        group = self.bob_group(value)
        return group[1] if group else ()

    def alice_deg(self, value: float) -> int:
        return len(self.alice_indices(value))

    def bob_deg(self, value: float) -> int:
        return len(self.bob_indices(value))


@dataclass(frozen=True)
class Sector:
    """Basis pairs sharing the eigenvalue pair (M, Q)."""

    m_value: float
    q_value: float
    alice_indices: tuple[int, ...]
    bob_indices: tuple[int, ...]

    @property
    def deg_m(self) -> int:
        return len(self.alice_indices)

    @property
    def deg_q(self) -> int:
        return len(self.bob_indices)

    @property
    def key(self) -> tuple[float, float]:
        return (self.m_value, self.q_value)

    def flat_indices(self, d_b: int) -> tuple[int, ...]:
        """Flat positions of the sector's (m, q) pairs, Alice-major."""
        return tuple(m * d_b + q for m in self.alice_indices for q in self.bob_indices)


class _PtBlock(NamedTuple):
    """Index sets of one block of rho^{T2}: a shell sector (no ``partner``,
    empty ``flats_np``) or the cross pair of ``sector`` and ``partner``.

    ``mat[rows, cols]`` is the block, read straight from rho: it equals
    ``partial_transpose(mat)[np.ix_(idx, idx)]`` for ``idx = flats_mq +
    flats_np``.
    """

    sector: Sector
    partner: Sector | None
    flats_mq: tuple[int, ...]
    flats_np: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray


def build_sectors(s: AdditiveStructure) -> list[Sector]:
    """One sector for each distinct (M, Q) eigenvalue pair, sorted by (M, Q).

    The sectors partition all d_a * d_b basis pairs; degeneracies are the
    group sizes of the respective labels.
    """
    sectors = [
        Sector(m_value, q_value, a_idx, b_idx)
        for m_value, a_idx in s.alice_groups
        for q_value, b_idx in s.bob_groups
    ]
    sectors.sort(key=lambda sec: sec.key)
    return sectors


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semi-definite.

    The stored matrix is symmetrized ((rho + rho^dagger)/2, rejecting inputs
    whose hermiticity defect exceeds ``herm_tol``) and made read-only.
    Slightly negative eigenvalues down to ``-psd_tol`` are accepted, since
    matrices reconstructed from measured entries routinely fail strict
    positivity at that level; anything worse is a hard error.

    From dim 32 up the checks run on the live indices only: those whose row
    or column holds a nonzero entry (by bit pattern, so -0.0 counts). Every
    entry off them is +0 in the input and stays +0 when symmetrized, so the
    finiteness test, the hermiticity defect and the symmetrization are taken
    on the live submatrix and scattered into a zero matrix, with the same
    bits and the same decisions as on the whole. Positivity is checked on
    the rows of the symmetrized submatrix that are nonzero: zero rows only
    add zero eigenvalues. A chain state of dim 1024 with 252 live rows works
    on 252 x 252 arrays and solves a 252 x 252 problem. Smaller matrices are
    checked and solved whole.
    """

    matrix: np.ndarray
    trace_tol: float = field(default=EPS_TR, repr=False)
    psd_tol: float = field(default=EPS_PSD, repr=False)
    herm_tol: float = field(default=EPS_HERM, repr=False)

    def __post_init__(self):
        mat = as_square_matrix(self.matrix)
        if mat.size == 0:
            raise StateValidationError("density matrix is empty (0 x 0)")
        dim = mat.shape[0]
        live = _live_indices(mat) if dim >= _SPLIT_MIN_DIM else None
        sub = mat if live is None else mat[np.ix_(live, live)]
        if not np.isfinite(sub).all():
            raise StateValidationError("density matrix has non-finite entries")
        # one strided pass for the adjoint, laid out C-contiguous so the two
        # uses below run over contiguous memory (the same values as conj().T)
        adjoint = np.conjugate(sub.T, order="C")
        defect = float(np.max(np.abs(sub - adjoint))) if sub.size else 0.0
        if defect > self.herm_tol:
            raise StateValidationError(
                f"not Hermitian: defect {defect:.3e} exceeds {self.herm_tol:.3e}"
            )
        sub = (sub + adjoint) / 2.0
        if live is None:
            mat = sub
        else:
            mat = np.zeros((dim, dim), dtype=complex)
            mat[np.ix_(live, live)] = sub
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > self.trace_tol:
            raise StateValidationError(f"trace {tr!r} differs from 1 beyond tolerance")
        if live is None:
            min_eig = min(float(np.linalg.eigvalsh(sub)[0]), 0.0)
        else:
            min_eig = _min_eigenvalue_on_support(sub)
        if min_eig < -self.psd_tol:
            raise StateValidationError(
                f"not positive semi-definite: min eigenvalue {min_eig:.3e}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


#: Below this dimension a matrix is checked and solved whole, both by
#: ``DensityMatrix`` and by ``min_pt_eigenvalue``. At dims 4-20 finding and
#: copying the support costs more than the smaller eigensolve saves: with the
#: support path at every dim, the small-batch benchmark read +4 % in
#: ``latency_p50_s`` (10 interleaved pairs in one checkout, against +1 % for
#: two copies of the same code).
_SPLIT_MIN_DIM = 32


def _live_indices(mat: np.ndarray) -> np.ndarray:
    """Ascending indices whose row or column of ``mat`` has a nonzero bit.

    Both axes count: a zero row whose column is nonzero still carries a
    hermiticity defect. Each complex entry is read as two 64-bit words.
    """
    bits = np.ascontiguousarray(mat).view(np.uint64)
    return np.flatnonzero(bits.any(axis=1) | bits.any(axis=0).reshape(-1, 2).any(axis=1))


def _min_eigenvalue_on_support(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the exactly Hermitian ``mat``, clamped to at most 0.

    Permuting the zero rows and columns to the end leaves a block diagonal
    of the support submatrix and a zero block, so the spectrum is the
    submatrix's plus one 0 per dropped row. Clamping to 0 changes no
    comparison against a negative tolerance.
    """
    keep = mat.any(axis=1)
    if not keep.any():
        return 0.0
    return min(float(np.linalg.eigvalsh(mat[keep][:, keep])[0]), 0.0)


def _matrix_of(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else as_square_matrix(rho)


def _check_dims(rho_mat: np.ndarray, s: AdditiveStructure) -> None:
    if rho_mat.shape[0] != s.dim:
        raise ValueError(
            f"dimension mismatch: matrix has dim {rho_mat.shape[0]}, structure needs {s.dim}"
        )


@dataclass(frozen=True)
class TextureViolation:
    """An above-tolerance entry whose basis labels break the additive constraint."""

    row: int
    col: int
    alice_row: int
    bob_row: int
    alice_col: int
    bob_col: int
    value: complex
    row_label_sum: float
    col_label_sum: float


class _TextureScan(NamedTuple):
    """Every above-tolerance entry of a matrix, classified in one pass.

    ``violations`` lists the entries off the shell in ascending flat
    (row, col) order. The remaining arrays describe the crossed entries
    (upper triangle, M+Q != J) in the same order, with the anchor rule
    applied per entry: ``anchor_forward`` when the column pair (N, Q) is
    non-degenerate, ``anchor_conjugate`` when only the row pair (M, P) is,
    in which case the conjugate entry rho[(n,q),(m,p)] is the anchor.
    """

    violations: list[TextureViolation]
    crossed_rows: np.ndarray
    crossed_cols: np.ndarray
    anchor_forward: np.ndarray
    anchor_conjugate: np.ndarray


def _nondegenerate(groups, size: int) -> np.ndarray:
    """Per-index flags: the index is alone in its label group."""
    flags = np.zeros(size, dtype=bool)
    flags[[idx[0] for _, idx in groups if len(idx) == 1]] = True
    return flags


def _scan_texture(rho, s: AdditiveStructure, zero_tol: float) -> tuple[np.ndarray, _TextureScan]:
    """The matrix of ``rho`` and the classification of its entries above ``zero_tol``."""
    mat = _matrix_of(rho)
    _check_dims(mat, s)
    if not (math.isfinite(zero_tol) and zero_tol >= 0.0):
        raise ValueError(f"zero_tol must be finite and nonnegative, got {zero_tol!r}")
    d_b = s.d_b
    sums = np.add.outer(s.j_alice, s.j_bob).ravel()
    shell = np.abs(sums - s.j_total) <= s.eps_j
    flat = np.flatnonzero(np.abs(mat) > zero_tol)
    rows, cols = np.divmod(flat, s.dim)
    valid = shell[rows] & shell[cols]

    violations = []
    if not valid.all():
        bad = ~valid
        violations = [
            TextureViolation(
                row=row,
                col=col,
                alice_row=row // d_b,
                bob_row=row % d_b,
                alice_col=col // d_b,
                bob_col=col % d_b,
                value=value,
                row_label_sum=float(sums[row]),
                col_label_sum=float(sums[col]),
            )
            for row, col, value in zip(
                rows[bad].tolist(), cols[bad].tolist(), mat.ravel()[flat[bad]].tolist()
            )
        ]

    # crossed: upper triangle, both pairs on the shell, the pair (m, q) off it
    m_q = rows - rows % d_b + cols % d_b
    crossed = valid & ~shell[m_q] & (rows < cols)
    rows, cols = rows[crossed], cols[crossed]
    nondeg = np.logical_and.outer(
        _nondegenerate(s.alice_groups, s.d_a), _nondegenerate(s.bob_groups, s.d_b)
    ).ravel()
    forward = nondeg[cols]
    conjugate = ~forward & nondeg[rows]
    return mat, _TextureScan(violations, rows, cols, forward, conjugate)


def _valid_scan(rho, s: AdditiveStructure, zero_tol: float) -> tuple[np.ndarray, _TextureScan]:
    """``_scan_texture`` for a texture-valid input; raises ``TextureError`` otherwise."""
    mat, scan = _scan_texture(rho, s, zero_tol)
    if scan.violations:
        raise TextureError(scan.violations)
    return mat, scan


def validate_additivity(rho, s: AdditiveStructure, zero_tol: float = EPS_ZERO) -> list[TextureViolation]:
    """Every entry above ``zero_tol`` whose labels violate M+P = J or N+Q = J.

    An empty list certifies that the matrix has the texture required by the
    definite total value (within the tolerances). ``zero_tol`` must be
    finite and nonnegative.
    """
    return _scan_texture(rho, s, zero_tol)[1].violations


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """Principal submatrix of rho^{T2} on one shell sector (M + Q = J).

    Because the global partial transpose only permutes Bob's indices inside
    the sector, this block equals the sector state with Bob's internal index
    transposed: its spectrum is the sector's PPT spectrum.
    """

    sector: Sector
    flat_indices: tuple[int, ...]
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class CrossBlock:
    """Off-shell block of rho^{T2} pairing sector (M, Q) with (J-Q, J-M).

    The diagonal sub-blocks are structurally zero, so the block is traceless
    with eigenvalues in +/- pairs; any nonzero coupling entry forces a
    negative eigenvalue.
    """

    sector_mq: Sector
    sector_np: Sector
    flat_indices_mq: tuple[int, ...]
    flat_indices_np: tuple[int, ...]
    matrix: np.ndarray

    @property
    def coupling(self) -> np.ndarray:
        """The rectangular sub-block linking the two sectors."""
        d1 = len(self.flat_indices_mq)
        return self.matrix[:d1, d1:]


@dataclass(frozen=True)
class PtBlockDecomposition:
    type_a: tuple[SectorBlock, ...]
    type_b: tuple[CrossBlock, ...]
    dim: int

    def assemble(self) -> np.ndarray:
        """Rebuild the full partial transpose from the blocks (zeros elsewhere)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for block in self.type_a:
            idx = np.asarray(block.flat_indices)
            out[np.ix_(idx, idx)] = block.matrix
        for block in self.type_b:
            idx = np.asarray(block.flat_indices_mq + block.flat_indices_np)
            out[np.ix_(idx, idx)] = block.matrix
        return out


def pt_block_decomposition(rho, s: AdditiveStructure, zero_tol: float = EPS_ZERO) -> PtBlockDecomposition:
    """Block decomposition of the partial transpose forced by the texture.

    Requires a texture-valid input (raises ``TextureError`` otherwise).
    Together with the remaining structurally-zero entries the returned
    blocks reconstruct rho^{T2} exactly; sector blocks carry the whole
    trace, cross blocks are traceless.
    """
    mat, _ = _valid_scan(rho, s, zero_tol)
    type_a: list[SectorBlock] = []
    type_b: list[CrossBlock] = []
    for sec, partner, flats_mq, flats_np, rows, cols in s._pt_blocks:
        block = mat[rows, cols]
        if partner is None:
            type_a.append(SectorBlock(sec, flats_mq, block))
        else:
            type_b.append(CrossBlock(sec, partner, flats_mq, flats_np, block))
    return PtBlockDecomposition(tuple(type_a), tuple(type_b), s.dim)


def min_pt_eigenvalue(rho, s: AdditiveStructure) -> float:
    """Smallest eigenvalue of the full partial transpose.

    From dim 32 up the minimum is taken over the texture's blocks (see
    ``pt_block_decomposition``), read straight from rho, whenever they are
    disjoint and every nonzero entry of rho lies inside one of them (the
    partial transpose only permutes entries, so then every nonzero entry
    of rho^{T2} does): permuting the blocks' rows to the front then gives
    a block diagonal of the blocks plus a zero block on the rows no block
    covers, so the spectrum is the blocks' spectra plus one 0 per
    uncovered row; a block with no nonzero entry adds zeros without an
    eigensolve. Otherwise, as for an input with entries off the texture
    (including ones below ``zero_tol``) or labels so close that the blocks
    overlap, and below dim 32, rho^{T2} is built and solved whole. Raises
    ``ValueError`` when rho^{T2} is not Hermitian.
    """
    mat = _matrix_of(rho)
    _check_dims(mat, s)
    if s.dim >= _SPLIT_MIN_DIM and s._pt_cover[0]:
        blocks = [mat[b.rows, b.cols] for b in s._pt_blocks]
        counts = list(map(np.count_nonzero, blocks))
        if sum(counts) == np.count_nonzero(mat):
            low = min(
                (float(eigenvalues_hermitian(b)[0]) if n else 0.0 for b, n in zip(blocks, counts)),
                default=0.0,
            )
            return low if s._pt_cover[1] else min(low, 0.0)
    pt = partial_transpose(mat, s.d_a, s.d_b)
    return float(eigenvalues_hermitian(pt)[0])
