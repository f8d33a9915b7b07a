"""Entanglement certification under an additive-observable constraint.

The texture forced by the definite total value makes entanglement detection
largely combinatorial:

* a nonzero "crossed" entry rho[(m,p),(n,q)] whose column pair lies off the
  shell (M + Q != J) sits in a traceless cross block of the partial
  transpose, so the state is entangled by the Peres-Horodecki criterion;
* with no crossed entries the state is block diagonal over the shell
  sectors, and the question reduces to per-sector PPT checks whose
  conclusiveness depends only on the (deg M, deg Q) degeneracies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import eigenvalues_hermitian, partial_trace
from .structure import (
    EPS_PSD,
    EPS_ZERO,
    AdditiveStructure,
    DensityMatrix,
    Sector,
    SectorBlock,
    _check_dims,
    _matrix_of,
    _shell_sectors,
    _valid_scan,
    min_pt_eigenvalue,
)


class SectorKind(str, Enum):
    """Degeneracy class of a shell sector, deciding how far PPT is conclusive."""

    TYPE1 = "TYPE1"  # deg M == 1 or deg Q == 1: always separable on its own
    TYPE2 = "TYPE2"  # 2x2, 2x3 or 3x2: block PPT is necessary and sufficient
    LARGE = "LARGE"  # anything bigger: block PPT only sufficient


@dataclass(frozen=True)
class SectorClass:
    sector: Sector
    kind: SectorKind


@dataclass(frozen=True)
class CrossedEntry:
    """Located off-diagonal entry witnessing entanglement.

    ``alice = (m, n)`` and ``bob = (p, q)`` index the entry
    rho[(m,p),(n,q)]; its labels satisfy M+P = N+Q = J but M+Q != J.
    The canonical orientation has flat row < flat col.
    """

    alice: tuple[int, int]
    bob: tuple[int, int]
    value: complex
    row: int
    col: int


class VerdictStatus(str, Enum):
    ENTANGLED_CERTIFIED = "ENTANGLED_CERTIFIED"
    SEPARABLE_CERTIFIED = "SEPARABLE_CERTIFIED"
    INCONCLUSIVE_PPT_PASSES = "INCONCLUSIVE_PPT_PASSES"


@dataclass(frozen=True)
class BlockWitness:
    """A shell sector whose block PPT spectrum dips negative."""

    sector: Sector
    min_eigenvalue: float


@dataclass(frozen=True)
class EntanglementVerdict:
    status: VerdictStatus
    witness: CrossedEntry | BlockWitness | None
    min_pt_eigenvalue: float


def find_crossed_entries(rho, s: AdditiveStructure, tol: float = EPS_ZERO) -> list[CrossedEntry]:
    """All crossed entries above ``tol``, one per unordered position pair.

    The input must be texture valid at the same tolerance; raises
    ``TextureError`` otherwise. Entries are reported in ascending flat
    (row, col) order with the upper-triangle orientation.
    """
    mat, scan = _valid_scan(rho, s, tol)
    rows, cols = scan.crossed_rows.tolist(), scan.crossed_cols.tolist()
    values = mat[scan.crossed_rows, scan.crossed_cols].tolist()
    d_b = s.d_b
    return [
        CrossedEntry(
            alice=(row // d_b, col // d_b), bob=(row % d_b, col % d_b), value=value, row=row, col=col
        )
        for row, col, value in zip(rows, cols, values)
    ]


def classify_sectors(s: AdditiveStructure) -> list[SectorClass]:
    """Degeneracy classes for the shell sectors (M + Q = J only), sorted by (M, Q)."""
    classes = []
    for sec in _shell_sectors(s):
        dims = (sec.deg_m, sec.deg_q)
        if 1 in dims:
            kind = SectorKind.TYPE1
        elif dims in ((2, 2), (2, 3), (3, 2)):
            kind = SectorKind.TYPE2
        else:
            kind = SectorKind.LARGE
        classes.append(SectorClass(sec, kind))
    return classes


def block_ppt_min_eig(block: SectorBlock, normalize: bool = True) -> float:
    """Minimum eigenvalue of a sector's within-block PPT spectrum.

    The sector block already carries the sector state with Bob's internal
    index transposed, so its own spectrum is the PPT spectrum. With
    ``normalize`` the block is rescaled to unit trace first; a block of
    (near-)zero trace carries no state and is rejected.
    """
    mat = np.asarray(block.matrix)
    if normalize:
        tr = float(np.trace(mat).real)
        if tr <= EPS_ZERO:
            raise ValueError("sector block has vanishing trace; no state to test")
        mat = mat / tr
    return float(eigenvalues_hermitian(mat)[0])


def certify(
    rho,
    s: AdditiveStructure,
    tol: float = EPS_ZERO,
    psd_tol: float = EPS_PSD,
) -> EntanglementVerdict:
    """Certified entanglement verdict for a texture-valid state.

    Decision ladder:

    1. any crossed entry certifies entanglement (the witness is the one of
       largest magnitude, the first in ascending flat order on ties);
    2. otherwise, if every shell sector is TYPE1 the state is certified
       separable;
    3. otherwise the PPT spectrum of each non-TYPE1 sector block decides:
       a negative block certifies entanglement; if none is negative and no
       sector is LARGE, the state is certified separable;
    4. with LARGE sectors and all blocks nonnegative no certification is
       possible and the verdict is inconclusive (PPT passes).

    The minimum eigenvalue of the full partial transpose is reported in
    every case.
    """
    mat, scan = _valid_scan(rho, s, tol)
    min_pt = min_pt_eigenvalue(mat, s)

    if scan.crossed_rows.size:
        # Python abs, as on CrossedEntry.value: np.abs can differ from it in
        # the last bit, which would move the witness on near-ties
        values = mat[scan.crossed_rows, scan.crossed_cols].tolist()
        magnitudes = list(map(abs, values))
        k = magnitudes.index(max(magnitudes))
        row, col = int(scan.crossed_rows[k]), int(scan.crossed_cols[k])
        d_b = s.d_b
        witness = CrossedEntry(
            alice=(row // d_b, col // d_b), bob=(row % d_b, col % d_b),
            value=values[k], row=row, col=col,
        )
        return EntanglementVerdict(VerdictStatus.ENTANGLED_CERTIFIED, witness, min_pt)

    classes = classify_sectors(s)
    nontrivial = [c for c in classes if c.kind is not SectorKind.TYPE1]
    if not nontrivial:
        return EntanglementVerdict(VerdictStatus.SEPARABLE_CERTIFIED, None, min_pt)

    # each sector block of rho^{T2}, read straight from rho and divided by
    # its trace as block_ppt_min_eig does; zero_tol alone decides the skip
    gathers = {b.sector.key: (b.rows, b.cols) for b in s._pt_blocks if b.partner is None}
    worst: BlockWitness | None = None
    for cls in nontrivial:
        block = mat[gathers[cls.sector.key]]
        tr = float(np.trace(block).real)
        if tr <= tol:
            continue  # zero-weight sector carries no state
        low = float(eigenvalues_hermitian(block / tr)[0])
        if low < -psd_tol and (worst is None or low < worst.min_eigenvalue):
            worst = BlockWitness(cls.sector, low)
    if worst is not None:
        return EntanglementVerdict(VerdictStatus.ENTANGLED_CERTIFIED, worst, min_pt)
    if any(c.kind is SectorKind.LARGE for c in nontrivial):
        return EntanglementVerdict(VerdictStatus.INCONCLUSIVE_PPT_PASSES, None, min_pt)
    return EntanglementVerdict(VerdictStatus.SEPARABLE_CERTIFIED, None, min_pt)


def reduced_purity(rho, s: AdditiveStructure, party: str = "A") -> float:
    """Tr of the squared reduced matrix of one party.

    For a pure global state, a value below 1 is equivalent to entanglement.
    """
    mat = _matrix_of(rho)
    _check_dims(mat, s)
    reduced = partial_trace(mat, s.d_a, s.d_b, keep=party)
    return float(np.trace(reduced @ reduced).real)
