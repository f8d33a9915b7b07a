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

from .linalg import _partial_trace, eigenvalues_hermitian
from .structure import (
    EPS_PSD,
    EPS_ZERO,
    AdditiveStructure,
    Sector,
    SectorBlock,
    _analysis,
    _check_tol,
    _matrix_of,
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
    """A verdict of ``certify``. ``witness`` is None for a separable or
    inconclusive verdict, and for an entangled one that the min PT alone
    decided."""

    status: VerdictStatus
    witness: CrossedEntry | BlockWitness | None
    min_pt_eigenvalue: float


def find_crossed_entries(rho, s: AdditiveStructure, tol: float = EPS_ZERO) -> list[CrossedEntry]:
    """All crossed entries above ``tol``, one per unordered position pair.

    The input must be texture valid at the same tolerance; raises
    ``TextureError`` otherwise. Entries are reported in ascending flat
    (row, col) order with the upper-triangle orientation.
    """
    analysis = _analysis(rho, s)
    return [_crossed_entry(*entry, s.d_b) for entry in analysis.entries(*analysis.valid(tol).crossed)]


def _crossed_entry(row: int, col: int, value: complex, d_b: int) -> CrossedEntry:
    return CrossedEntry((row // d_b, col // d_b), (row % d_b, col % d_b), value, row, col)


def classify_sectors(s: AdditiveStructure) -> list[SectorClass]:
    """Degeneracy classes of the shell sectors (M + Q = J), sorted by (M, Q) as their PT blocks."""
    classes = []
    for sec in (b.sector for b in s._pt_blocks if b.partner is None):
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
    ``normalize`` it is the unit-trace minimum lambda_min(B) / Tr B, the
    one the block-PPT rung of ``certify`` uses; a block of (near-)zero
    trace carries no state and is rejected before any eigensolve.
    """
    mat = np.asarray(block.matrix)
    tr = 1.0
    if normalize:
        tr = float(np.trace(mat).real)
        if tr <= EPS_ZERO:
            raise ValueError("sector block has vanishing trace; no state to test")
    return float(eigenvalues_hermitian(mat)[0]) / tr


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
    2. otherwise the PPT spectrum of each non-TYPE1 sector block of weight
       above ``tol`` decides: the lowest unit-trace minimum below
       -``psd_tol`` certifies entanglement (the witness is that block);
    3. otherwise a minimum eigenvalue of the full partial transpose below
       -``psd_tol`` certifies entanglement (Peres), with no witness: the
       reported minimum is the certificate. A sector block that low is
       caught by rung 2 already (a TYPE1 block has the spectrum of a
       principal submatrix of rho, and a unit-trace minimum is at most the
       raw one), so this rung fires on cross blocks whose crossed entries
       are at or below ``tol``, on sector blocks of weight at or below
       ``tol``, or on the dense path, where no block is known;
    4. otherwise the state is certified separable when no sector is LARGE
       (TYPE1 sectors are separable, TYPE2 ones are decided by block PPT);
       with LARGE sectors no certification is possible and the verdict is
       inconclusive (PPT passes).

    The minimum eigenvalue of the full partial transpose is reported in
    every case, and no separable or PPT-passing verdict stands beside one
    below -``psd_tol``. At ``psd_tol`` 0 rounding can decide rungs 2 and 3.
    ``psd_tol`` must be finite and nonnegative.
    """
    _check_tol("psd_tol", psd_tol)
    analysis = _analysis(rho, s)
    crossed = analysis.entries(*analysis.valid(tol).crossed)
    min_pt = analysis.min_pt
    if crossed:
        # Python abs, as on CrossedEntry.value: np.abs can differ from it in
        # the last bit, which would move the witness on near-ties
        magnitudes = [abs(value) for _, _, value in crossed]
        witness = _crossed_entry(*crossed[magnitudes.index(max(magnitudes))], s.d_b)
        return EntanglementVerdict(VerdictStatus.ENTANGLED_CERTIFIED, witness, min_pt)

    classes = classify_sectors(s)
    # the classes follow the sector blocks; each one's unit-trace minimum is
    # lambda_min(B) / Tr B, from the solve min_pt made from dim 32 up;
    # zero_tol alone decides the skip
    shell_blocks = [k for k, b in enumerate(s._pt_blocks) if b.partner is None]
    worst: BlockWitness | None = None
    for cls, k in zip(classes, shell_blocks):
        if cls.kind is SectorKind.TYPE1:
            continue
        low, tr = analysis.block_min(k)
        if tr <= tol:
            continue  # zero-weight sector carries no state
        low /= tr
        if low < -psd_tol and (worst is None or low < worst.min_eigenvalue):
            worst = BlockWitness(cls.sector, low)
    if worst is not None:
        return EntanglementVerdict(VerdictStatus.ENTANGLED_CERTIFIED, worst, min_pt)
    if min_pt < -psd_tol:  # Peres: the reported min PT itself proves entanglement
        return EntanglementVerdict(VerdictStatus.ENTANGLED_CERTIFIED, None, min_pt)
    if any(c.kind is SectorKind.LARGE for c in classes):
        return EntanglementVerdict(VerdictStatus.INCONCLUSIVE_PPT_PASSES, None, min_pt)
    return EntanglementVerdict(VerdictStatus.SEPARABLE_CERTIFIED, None, min_pt)


def reduced_purity(rho, s: AdditiveStructure, party: str = "A") -> float:
    """Tr of the squared reduced matrix of one party.

    For a pure global state, a value below 1 is equivalent to entanglement.
    """
    reduced = _partial_trace(_matrix_of(rho, s.dim), s.d_a, s.d_b, party, "party")
    return float(np.trace(reduced @ reduced).real)
