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
hold every shell pair by construction; ``AdditiveStructure._crossed``
alone defines a crossed entry. Off-shell pairs without partner eigenvalues
lie in no block; their rows of the partial transpose are zero. The blocks
are cached per structure with the positions of rho their entries come from
(the partial transpose only permutes entries), so no block needs rho^{T2}
itself. ``_Analysis`` holds one state under one structure: each block's
minimum and trace, solved at most once, and the texture scan at the last
``zero_tol``, the one result that depends on it. A ``DensityMatrix`` keeps
its last record, so public calls on one state share one solve per PT block
at any tolerances; a raw array gets a fresh record on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    EPS_HERM,
    _hermitian,
    _psd_min_eig,
    _square,
    as_square_matrix,
    eigenvalues_hermitian,
    partial_transpose,
)

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


def _group_labels(
    values: tuple[float, ...], eps: float
) -> tuple[tuple[int, ...], tuple[tuple[float, tuple[int, ...]], ...]]:
    """Each value's group number, and every group's (representative,
    indices), groups and indices ascending.

    A value within eps of its group's representative, the smallest value of
    the group, joins that group.
    """
    reps: list[float] = []
    group = {}
    for value in sorted(set(values)):
        if not reps or value - reps[-1] > eps:
            reps.append(value)
        group[value] = len(reps) - 1
    group_of = tuple(map(group.__getitem__, values))
    members: list[list[int]] = [[] for _ in reps]
    for i, g in enumerate(group_of):
        members[g].append(i)
    return group_of, tuple(zip(reps, map(tuple, members)))


@dataclass(frozen=True)
class AdditiveStructure:
    """Eigenvalue assignments of an additive observable with a definite total.

    ``j_alice[m]`` is the J_A eigenvalue of Alice's m-th basis state and
    ``j_bob[p]`` Bob's; ``j_total`` is the definite value of J_A + J_B.

    Labels are grouped once, at construction: a label within ``eps_j`` of
    the smallest label of its group joins that group, and the smallest label
    represents it. ``alice_groups`` and ``bob_groups`` hold each group's
    (representative, indices), both ascending; a label's degeneracy is its
    group's size. Two groups meet on the shell M + P = J when their
    representatives sum to J within ``eps_j``; every label test reads this
    one table. It must be nonempty (else no state satisfies the constraint)
    and a partial matching (a group meeting two groups of the other party
    makes the texture ambiguous), and every label sum M + P must be finite,
    or ``ValueError`` is raised.
    """

    j_alice: tuple[float, ...]
    j_bob: tuple[float, ...]
    j_total: float
    eps_j: float = field(default=EPS_J, repr=False)

    def __post_init__(self):
        j_alice, j_bob = tuple(map(float, self.j_alice)), tuple(map(float, self.j_bob))
        j_total, eps = float(self.j_total), self.eps_j
        _check_tol("eps_j", eps)
        if not all(map(math.isfinite, j_alice + j_bob + (j_total,))):
            raise ValueError("eigenvalue labels must be finite")
        if not j_alice or not j_bob:
            raise ValueError("each party needs at least one basis label")
        # every sum M + P lies between these two, so they are finite when all are
        if not all(map(math.isfinite, (max(j_alice) + max(j_bob), min(j_alice) + min(j_bob)))):
            raise ValueError("label sums M + P must be finite")
        alice_of, alice_groups = _group_labels(j_alice, eps)
        bob_of, bob_groups = _group_labels(j_bob, eps)
        # the shell table: the Bob group on the shell with each Alice group
        # and the Alice group on the shell with each Bob group, or -1
        bob_match, alice_match = [-1] * len(alice_groups), [-1] * len(bob_groups)
        for a, (m_value, _) in enumerate(alice_groups):
            for b, (p_value, _) in enumerate(bob_groups):
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
            alice_groups=alice_groups, bob_groups=bob_groups, _alice_of=alice_of, _bob_of=bob_of,
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
    def _flat_flags(self) -> tuple[np.ndarray, np.ndarray]:
        """Per flat index (m, p): on the shell, and both labels alone in their group."""
        alice, bob = np.array(self._alice_of), np.array(self._bob_of)
        shell = np.array(self._bob_match)[alice][:, None] == bob
        alone = np.logical_and.outer(np.bincount(alice)[alice] == 1, np.bincount(bob)[bob] == 1)
        return shell.ravel(), alone.ravel()

    def _crossed(self, rows, cols, on_shell=None):
        """Whether the entries at flat positions (rows, cols), ints or arrays,
        are crossed: both pairs on the shell and the pair (M, Q) off it.
        ``on_shell``, when the caller has it, is whether both pairs are on the
        shell."""
        shell = self._flat_flags[0]
        if on_shell is None:
            on_shell = shell[rows] & shell[cols]
        return on_shell & ~shell[rows - rows % self.d_b + cols % self.d_b]

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
        n_bob, d_b = len(self.bob_groups), self.d_b
        blocks = []
        for k, sec in enumerate(sectors):
            a, b = divmod(k, n_bob)
            n, p = self._alice_match[b], self._bob_match[a]
            if p == b:
                partner = None
            elif n >= 0 and p >= 0 and k < n * n_bob + p:
                partner = sectors[n * n_bob + p]
            else:
                continue
            flats_mq, flats_np = sec.flat_indices(d_b), partner.flat_indices(d_b) if partner else ()
            # rho^{T2}[(m,q),(n,p)] = rho[(m,p),(n,q)]: a row of rho takes the
            # Alice index of the PT row and the Bob index of the PT column
            alice, bob = np.divmod(np.asarray(flats_mq + flats_np, dtype=np.intp), d_b)
            alice *= d_b
            rows, cols = alice[:, None] + bob[None, :], alice[None, :] + bob[:, None]
            blocks.append(_PtBlock(sec, partner, flats_mq, flats_np, rows, cols))
        return tuple(blocks)


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
    positivity at that level; anything worse is a hard error. Positivity is
    decided by a Cholesky factorization of the checked matrix + ``psd_tol``
    * I, which exists exactly when no eigenvalue lies below -``psd_tol``, up
    to a rounding band of about k * eps about it (k rows). Only when it
    fails does ``eigvalsh`` run, to compare and report as before; at
    ``psd_tol`` 0 a singular state always takes it. Each of the three
    tolerances must be finite and nonnegative (``ValueError``).

    From dim 32 up the checks run on the live indices only: those whose row
    or column holds a nonzero entry (by bit pattern, so -0.0 counts). Every
    entry off them is +0 in the input and stays +0 when symmetrized, so the
    finiteness test, the hermiticity defect, the symmetrization and the
    positivity check are taken on the live submatrix, which is scattered
    into a zero matrix, with the same bits and the same decisions as on the
    whole: the rows off it only add zero eigenvalues, and so does a live row
    that is zero by value. The live indices are kept, so the texture scan
    and the minimum PT eigenvalue read the same support. A chain state of
    dim 1024 with 252 live rows works on 252 x 252 arrays and factors a
    252 x 252 matrix. Smaller matrices are checked whole.
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
        live = _live_indices(mat)
        sub = mat if live is None else mat[np.ix_(live, live)]
        if not np.isfinite(sub).all():
            raise StateValidationError("density matrix has non-finite entries")
        # one strided pass for the adjoint, laid out C-contiguous so the two
        # uses below run over contiguous memory (the same values as conj().T)
        adjoint = np.conjugate(sub.T, order="C")
        defect = float(np.abs(sub - adjoint).max()) if sub.size else 0.0
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
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > self.trace_tol:
            raise StateValidationError(f"trace {tr!r} differs from 1 beyond tolerance")
        min_eig = _psd_min_eig(sub, self.psd_tol)
        if min_eig is not None:
            raise StateValidationError(
                f"not positive semi-definite: min eigenvalue {min_eig:.3e}"
            )
        mat.setflags(write=False)
        # a view of a read-only base cannot be made writeable, so _record cannot go stale
        self.__dict__.update(matrix=mat.view(), _live=live, _record=None)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


#: From this dimension up ``_live_indices`` finds a state's live indices, once
#: per ``DensityMatrix`` (or per ``_Analysis`` for a raw array), and the checks, the
#: texture scan and the min-PT guard read them; below it a matrix is checked,
#: scanned and solved whole. At dims 4-20 finding and copying the support
#: costs more than it saves. Small-batch ``latency_p50_s`` (dims 4-20) from
#: 8 pairs of alternating 10 s runs (``perfbench/run.py``, one pinned CPU of
#: an Intel Xeon, Python 3.11, numpy 2.4), against copies with this fork
#: moved to dim 0: 2.65e-4 s as is; 3.20e-4 s (+21 %, 0/8 pairs better) with
#: live indices at every dim but the block min-PT still from dim 32;
#: 4.24e-4 s (+60 %, 0/8) with the block min-PT at every dim too.
_SPLIT_MIN_DIM = 32


def _live_indices(mat: np.ndarray) -> np.ndarray | None:
    """Ascending indices whose row or column of ``mat`` has a nonzero bit, or
    None below ``_SPLIT_MIN_DIM``, where the whole matrix is read.

    Both axes count: a zero row whose column is nonzero still carries a
    hermiticity defect. Each complex entry is read as two 64-bit words.
    """
    if len(mat) < _SPLIT_MIN_DIM:
        return None
    bits = np.ascontiguousarray(mat).view(np.uint64)
    return np.flatnonzero(bits.any(axis=1) | bits.any(axis=0).reshape(-1, 2).any(axis=1))


def _matrix_of(rho, dim: int) -> np.ndarray:
    """The dim x dim matrix of ``rho``, the one gate through which every
    public function that takes a state reads it; ``ValueError`` otherwise.

    A ``DensityMatrix`` is validated already, so only its size is compared:
    no pass over its entries. A raw array must be square, dim x dim and
    finite (``linalg._square``), since a NaN entry fails every comparison
    with zero that the texture, crossed-entry and anchor tests make.
    """
    return _square(rho.matrix, dim, finite=False) if isinstance(rho, DensityMatrix) else _square(rho, dim)


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


class _Scan(NamedTuple):
    """One texture scan at ``zero_tol``: the violations, in ascending flat
    (row, col) order, and the (rows, cols) of the crossed entries (upper
    triangle) and of their anchor orientations."""

    zero_tol: float
    violations: tuple[TextureViolation, ...]
    crossed: tuple[np.ndarray, np.ndarray]
    anchors: tuple[np.ndarray, np.ndarray]


class _Analysis:
    """One state under one structure (see ``_analysis``). Each PT block's
    (lambda_min, trace) and the min PT, which do not depend on ``zero_tol``,
    are computed at most once, when first asked for; ``scan(zero_tol)``
    keeps the last tolerance's scan in one slot. ``live`` holds the live
    indices ``DensityMatrix`` found (found here for a raw array; None below
    ``_SPLIT_MIN_DIM``: the whole matrix is read).
    """

    def __init__(self, rho, s: AdditiveStructure):
        self.mat = _matrix_of(rho, s.dim)
        self.s = s
        self.live = rho._live if isinstance(rho, DensityMatrix) else _live_indices(self.mat)
        self._scan, self._mins = None, {}  # the last scan, and block k's (lambda_min, trace)

    def scan(self, zero_tol: float) -> _Scan:
        """The texture scan at ``zero_tol``: the entries above it, on the live
        submatrix, classified by ``s._crossed`` and the shell flags."""
        _check_tol("zero_tol", zero_tol)
        last = self._scan  # read once and returned, so other threads cannot swap it
        if last is not None and last.zero_tol == zero_tol:
            return last
        s, d_b, live = self.s, self.s.d_b, self.live
        shell, nondeg = s._flat_flags
        sub = self.mat if live is None else self.mat[np.ix_(live, live)]
        rows, cols = np.divmod(np.flatnonzero(np.abs(sub) > zero_tol), len(sub))
        if live is not None:  # ascending, so the order of the positions stays
            rows, cols = live[rows], live[cols]
        valid = shell[rows] & shell[cols]
        violations = tuple(
            TextureViolation(
                row, col, *divmod(row, d_b), *divmod(col, d_b), value,
                s.label_sum(*divmod(row, d_b)), s.label_sum(*divmod(col, d_b)),
            )
            for row, col, value in self.entries(rows[~valid], cols[~valid])
        ) if not valid.all() else ()
        upper = s._crossed(rows, cols, valid) & (rows < cols)
        rows, cols = rows[upper], cols[upper]
        # the anchor: the entry when its column pair (N, Q) is non-degenerate,
        # else its conjugate when (M, P) is
        forward = nondeg[cols]
        keep = forward | nondeg[rows]
        anchors = np.where(forward, rows, cols)[keep], np.where(forward, cols, rows)[keep]
        last = self._scan = _Scan(zero_tol, violations, (rows, cols), anchors)
        return last

    def valid(self, zero_tol: float) -> _Scan:
        """``scan(zero_tol)``; raises ``TextureError`` if it found violations."""
        scan = self.scan(zero_tol)
        if scan.violations:
            raise TextureError(scan.violations)
        return scan

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> list[tuple[int, int, complex]]:
        """(row, col, value) at each position, as Python numbers."""
        if not rows.size:
            return []
        return list(zip(rows.tolist(), cols.tolist(), self.mat[rows, cols].tolist()))

    def block_min(self, k: int) -> tuple[float, float]:
        """(lambda_min, trace) of block k of ``s._pt_blocks``, read from rho
        once; lambda_min is 0.0, without a solve, for an all-zero block.

        A sector block is solved by ``eigvalsh``. A cross block is read only
        on ``min_pt``'s guarded path, where its diagonal sub-blocks are zero
        (their entries join off-shell pairs): after the same hermiticity
        check, its minimum is -sigma_max of the coupling (Jordan-Wielandt).
        """
        if k not in self._mins:
            b = self.s._pt_blocks[k]
            block = self.mat[b.rows, b.cols]
            if not block.any():
                low = 0.0
            elif b.partner is None:
                low = float(eigenvalues_hermitian(block)[0])
            else:
                d1 = len(b.flats_mq)
                low = -float(np.linalg.svd(_hermitian(block)[:d1, d1:], compute_uv=False)[0])
            self._mins[k] = low, float(np.trace(block).real)
        return self._mins[k]

    @cached_property
    def min_pt(self) -> float:
        s, mat, live = self.s, self.mat, self.live
        if live is not None:
            # an entry lies in a block exactly when both its pairs are on the shell
            off = live[~s._flat_flags[0][live]]
            if not (mat[np.ix_(off, live)].any() or mat[np.ix_(live, off)].any()):
                blocks = s._pt_blocks
                low = min(self.block_min(k)[0] for k in range(len(blocks)))
                return low if sum(len(b.rows) for b in blocks) == s.dim else min(low, 0.0)
        return float(eigenvalues_hermitian(partial_transpose(mat, s.d_a, s.d_b))[0])


def _analysis(rho, s: AdditiveStructure) -> _Analysis:
    """The record of ``rho`` under ``s``. A ``DensityMatrix`` is read-only, so
    its last record serves again while the structure is the same object;
    another one replaces it. A raw array can change between calls and gets a
    fresh record."""
    if not isinstance(rho, DensityMatrix):
        return _Analysis(rho, s)
    record = rho._record
    if record is None or record.s is not s:
        record = rho.__dict__["_record"] = _Analysis(rho, s)
    return record


def validate_additivity(rho, s: AdditiveStructure, zero_tol: float = EPS_ZERO) -> list[TextureViolation]:
    """Every entry above ``zero_tol`` whose labels violate M+P = J or N+Q = J.

    An empty list certifies that the matrix has the texture required by the
    definite total value (within the tolerances). ``zero_tol`` must be
    finite and nonnegative.
    """
    return list(_analysis(rho, s).scan(zero_tol).violations)


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
    When no off-texture entry of rho is nonzero, the returned blocks,
    together with the remaining structurally-zero entries, reconstruct
    rho^{T2} exactly. An off-texture entry at or below ``zero_tol`` passes
    the texture check but lies in no block, so ``assemble`` misses it.
    Sector blocks carry the whole trace, cross blocks are traceless.
    """
    analysis = _analysis(rho, s)
    analysis.valid(zero_tol)
    mat = analysis.mat
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

    From dim 32 up, when no live index off the shell (see ``DensityMatrix``)
    has a nonzero value in its row or column of rho, every nonzero entry of
    rho lies in one of the texture's disjoint blocks (see
    ``pt_block_decomposition``), read straight from rho: the spectrum is the
    blocks' spectra plus one 0 per row in no block, and an all-zero block
    adds zeros without an eigensolve. A sector block is solved by
    ``eigvalsh``. A cross block is [[0, C], [C^dagger, 0]] there (both
    diagonal sub-blocks join off-shell pairs), with eigenvalues +/- the
    singular values of C (Jordan-Wielandt), so its minimum is
    -sigma_max(C), from one SVD of C. No ``zero_tol`` enters: each block is
    solved once per state, whatever tolerances other calls pass, and the
    block-PPT rung of ``entanglement.certify`` reads its sector blocks'
    minima and traces from the same solves. Otherwise (entries off the
    texture, however small) and below dim 32, rho^{T2} is built and solved
    whole. The texture is not scanned. Raises ``ValueError`` when rho^{T2}
    is not Hermitian.
    """
    return _analysis(rho, s).min_pt
