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

Every label test (shell, crossed, degeneracy, sector, partner) reads one
shell table of label groups per structure, so the blocks are disjoint and
hold every shell pair by construction. Off-shell pairs without partner
eigenvalues lie in no block; their rows of the partial transpose are zero.
The blocks are cached per structure with the positions of rho their entries
come from (the partial transpose only permutes entries), so no block needs
rho^{T2} itself. ``_Analysis`` holds one state's texture scan and block
minima, each computed at most once; the CLI shares one per document.
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


def _check_tol(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _group_labels(values: tuple[float, ...], eps: float) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Each value's group number and the groups' representatives, ascending.

    A value within eps of its group's representative, the smallest value of
    the group, joins that group.
    """
    reps: list[float] = []
    group = {}
    for value in sorted(set(values)):
        if not reps or value - reps[-1] > eps:
            reps.append(value)
        group[value] = len(reps) - 1
    return tuple(map(group.__getitem__, values)), tuple(reps)


def _groups(group_of: tuple[int, ...], reps: tuple[float, ...]) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """(representative, indices) of each label group, indices ascending."""
    members: list[list[int]] = [[] for _ in reps]
    for i, g in enumerate(group_of):
        members[g].append(i)
    return tuple(zip(reps, map(tuple, members)))


@dataclass(frozen=True)
class AdditiveStructure:
    """Eigenvalue assignments of an additive observable with a definite total.

    ``j_alice[m]`` is the J_A eigenvalue of Alice's m-th basis state and
    ``j_bob[p]`` Bob's; ``j_total`` is the definite value of J_A + J_B.

    Labels are grouped once: a label within ``eps_j`` of the smallest label
    of its group joins that group (``alice_groups``, ``bob_groups``), and the
    smallest label represents it. Two groups meet on the shell M + P = J
    when their representatives sum to J within ``eps_j``; every label test
    reads this one table. It must be nonempty (else no state satisfies the
    constraint) and a partial matching (a group meeting two groups of the
    other party makes the texture ambiguous), or ``ValueError`` is raised.
    """

    j_alice: tuple[float, ...]
    j_bob: tuple[float, ...]
    j_total: float
    eps_j: float = field(default=EPS_J, repr=False)

    def __post_init__(self):
        j_alice, j_bob = tuple(map(float, self.j_alice)), tuple(map(float, self.j_bob))
        j_total, eps = float(self.j_total), self.eps_j
        if not all(map(math.isfinite, j_alice + j_bob + (j_total,))):
            raise ValueError("eigenvalue labels must be finite")
        if not j_alice or not j_bob:
            raise ValueError("each party needs at least one basis label")
        alice_of, alice_reps = _group_labels(j_alice, eps)
        bob_of, bob_reps = _group_labels(j_bob, eps)
        # the shell table: the Bob group on the shell with each Alice group
        # and the Alice group on the shell with each Bob group, or -1
        bob_match, alice_match = [-1] * len(alice_reps), [-1] * len(bob_reps)
        for a, m_value in enumerate(alice_reps):
            for b, p_value in enumerate(bob_reps):
                if abs(m_value + p_value - j_total) <= eps:
                    if bob_match[a] >= 0 or alice_match[b] >= 0:
                        raise ValueError(
                            f"ambiguous labels: the J_A group at {m_value!r} and the J_B group at "
                            f"{p_value!r} sum to J, but one of them already does with another group"
                        )
                    bob_match[a], alice_match[b] = b, a
        if max(bob_match) < 0:
            raise ValueError("no basis pair satisfies M + P = J; the constrained state space is empty")
        # one dict update past the frozen __setattr__: construction cost counts
        self.__dict__.update(
            j_alice=j_alice, j_bob=j_bob, j_total=j_total,
            _alice_of=alice_of, _alice_reps=alice_reps, _bob_of=bob_of, _bob_reps=bob_reps,
            _bob_match=tuple(bob_match), _alice_match=tuple(alice_match),
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
        """Whether the label groups of Alice's m and Bob's p meet on the shell."""
        return self._bob_match[self._alice_of[m]] == self._bob_of[p]

    @cached_property
    def shell_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (m, p) on the shell M + P = J, in flat order."""
        return tuple((m, p) for m in range(self.d_a) for p in range(self.d_b) if self.on_shell(m, p))

    @cached_property
    def shell_flats(self) -> tuple[int, ...]:
        return tuple(self.flat_index(m, p) for m, p in self.shell_pairs)

    @cached_property
    def alice_groups(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        return _groups(self._alice_of, self._alice_reps)

    @cached_property
    def bob_groups(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        return _groups(self._bob_of, self._bob_reps)

    @cached_property
    def _flat_flags(self) -> tuple[np.ndarray, np.ndarray]:
        """Per flat index (m, p): on the shell, and both labels alone in their group."""
        alice, bob = np.array(self._alice_of), np.array(self._bob_of)
        shell = np.array(self._bob_match)[alice][:, None] == bob
        alone = np.logical_and.outer(np.bincount(alice)[alice] == 1, np.bincount(bob)[bob] == 1)
        return shell.ravel(), alone.ravel()

    @cached_property
    def _pt_blocks(self) -> tuple[_PtBlock, ...]:
        """The blocks of rho^{T2} forced by the texture, in sector order.

        One block per shell sector and one per off-shell sector (M, Q) and
        its partner (N, P), taken from the smaller side: N is the group on
        the shell with Q and P the one with M. The shell table is a
        matching, so the partner of (N, P) is (M, Q) and the blocks are
        disjoint. A sector whose M or Q meets no group on the shell is in no
        block: for a texture-valid rho its rows of rho^{T2} are zero.
        """
        sectors = build_sectors(self)
        n_bob = len(self.bob_groups)
        blocks = []
        for k, sec in enumerate(sectors):
            a, b = divmod(k, n_bob)
            n, p = self._alice_match[b], self._bob_match[a]
            flats = sec.flat_indices(self.d_b)
            if p == b:
                blocks.append(self._new_pt_block(sec, None, flats, ()))
            elif n >= 0 and p >= 0 and k < n * n_bob + p:
                partner = sectors[n * n_bob + p]
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

    def alice_group(self, value: float) -> tuple[float, tuple[int, ...]] | None:
        return next((g for g in self.alice_groups if abs(g[0] - value) <= self.eps_j), None)

    def bob_group(self, value: float) -> tuple[float, tuple[int, ...]] | None:
        return next((g for g in self.bob_groups if abs(g[0] - value) <= self.eps_j), None)

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
    """One sector for each pair of label groups, sorted by (M, Q).

    The sectors partition all d_a * d_b basis pairs; degeneracies are the
    group sizes of the respective labels. Each party's groups ascend, so the
    sector of Alice's group a and Bob's group b is at a * len(s.bob_groups) + b.
    """
    return [
        Sector(m_value, q_value, a_idx, b_idx)
        for m_value, a_idx in s.alice_groups
        for q_value, b_idx in s.bob_groups
    ]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semi-definite.

    The stored matrix is symmetrized ((rho + rho^dagger)/2, rejecting inputs
    whose hermiticity defect exceeds ``herm_tol``) and made read-only.
    Slightly negative eigenvalues down to ``-psd_tol`` are accepted, since
    matrices reconstructed from measured entries routinely fail strict
    positivity at that level; anything worse is a hard error. Each of the
    three tolerances must be finite and nonnegative (``ValueError``).

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
        for name in ("trace_tol", "psd_tol", "herm_tol"):
            _check_tol(name, getattr(self, name))
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


class _Analysis:
    """One state under one structure and ``zero_tol``. The texture scan and each
    block's read and solve run at most once, when first asked for.

    ``violations`` runs the texture scan: the entries above ``zero_tol`` off
    the shell, in ascending flat (row, col) order. The same pass sets
    ``crossed``, the (rows, cols) of the crossed entries (upper triangle,
    M+Q != J); ``anchors()`` picks their anchor orientations and ``entries``
    reads such positions. ``block(k)`` reads block k of ``s._pt_blocks``
    from rho, ``block_min(k)`` solves it, and ``min_pt()`` is
    ``min_pt_eigenvalue``.
    """

    def __init__(self, rho, s: AdditiveStructure, zero_tol: float = EPS_ZERO):
        self.mat = _matrix_of(rho)
        _check_dims(self.mat, s)
        _check_tol("zero_tol", zero_tol)
        self.s, self.zero_tol = s, zero_tol
        self._blocks, self._mins = {}, {}  # block k read from rho, and its smallest eigenvalue

    @cached_property
    def violations(self) -> list[TextureViolation]:
        s, d_b = self.s, self.s.d_b
        shell = s._flat_flags[0]
        flat = np.flatnonzero(np.abs(self.mat) > self.zero_tol)
        rows, cols = np.divmod(flat, s.dim)
        valid = shell[rows] & shell[cols]
        violations = [
            TextureViolation(
                row, col, *divmod(row, d_b), *divmod(col, d_b), value,
                s.label_sum(*divmod(row, d_b)), s.label_sum(*divmod(col, d_b)),
            )
            for row, col, value in self.entries(rows[~valid], cols[~valid])
        ] if not valid.all() else []
        # crossed: upper triangle, both pairs on the shell, the pair (m, q) off it
        crossed = valid & ~shell[rows - rows % d_b + cols % d_b] & (rows < cols)
        self.crossed = rows[crossed], cols[crossed]
        return violations

    def anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """Of each crossed entry (``valid`` first), the entry when its column
        pair (N, Q) is non-degenerate, else its conjugate when (M, P) is."""
        (rows, cols), nondeg = self.valid().crossed, self.s._flat_flags[1]
        forward = nondeg[cols]
        keep = forward | nondeg[rows]
        forward, rows, cols = forward[keep], rows[keep], cols[keep]
        return np.where(forward, rows, cols), np.where(forward, cols, rows)

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> list[tuple[int, int, complex]]:
        """(row, col, value) at each position, as Python numbers."""
        if not rows.size:
            return []
        return list(zip(rows.tolist(), cols.tolist(), self.mat[rows, cols].tolist()))

    def valid(self) -> _Analysis:
        """This record, scanned; raises ``TextureError`` if the scan found violations."""
        if self.violations:
            raise TextureError(self.violations)
        return self

    def block(self, k: int) -> np.ndarray:
        if k not in self._blocks:
            b = self.s._pt_blocks[k]
            self._blocks[k] = self.mat[b.rows, b.cols]
        return self._blocks[k]

    def block_min(self, k: int) -> float:
        if k not in self._mins:
            self._mins[k] = float(eigenvalues_hermitian(self.block(k))[0])
        return self._mins[k]

    def min_pt(self) -> float:
        s, mat = self.s, self.mat
        if s.dim >= _SPLIT_MIN_DIM:
            blocks = list(map(self.block, range(len(s._pt_blocks))))
            counts = list(map(np.count_nonzero, blocks))
            if sum(counts) == np.count_nonzero(mat):
                low = min(self.block_min(k) if n else 0.0 for k, n in enumerate(counts))
                return low if sum(map(len, blocks)) == s.dim else min(low, 0.0)
        return float(eigenvalues_hermitian(partial_transpose(mat, s.d_a, s.d_b))[0])


def validate_additivity(rho, s: AdditiveStructure, zero_tol: float = EPS_ZERO) -> list[TextureViolation]:
    """Every entry above ``zero_tol`` whose labels violate M+P = J or N+Q = J.

    An empty list certifies that the matrix has the texture required by the
    definite total value (within the tolerances). ``zero_tol`` must be
    finite and nonnegative.
    """
    return _Analysis(rho, s, zero_tol).violations


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
    mat = _Analysis(rho, s, zero_tol).valid().mat
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

    From dim 32 up the minimum is taken over the texture's disjoint blocks
    (see ``pt_block_decomposition``), read straight from rho, whenever every
    nonzero entry of rho lies inside one of them (the partial transpose only
    permutes entries, so then every nonzero entry of rho^{T2} does): the
    spectrum is the blocks' spectra plus one 0 per row in no block, and a
    block with no nonzero entry adds zeros without an eigensolve. Otherwise,
    as for an input with entries off the texture (including ones below
    ``zero_tol``), and below dim 32, rho^{T2} is built and solved whole.
    Each block is solved once, and the block-PPT rung of
    ``entanglement.certify`` reads its sector blocks' minima from the same
    solves. The texture is not scanned. Raises ``ValueError`` when rho^{T2}
    is not Hermitian.
    """
    return _Analysis(rho, s).min_pt()
