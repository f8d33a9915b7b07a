"""Tests for crossed-entry detection, sector classes and the certified verdict."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from addobs_certify import structure
from addobs_certify.chsh import certify_nonlocality
from addobs_certify.entanglement import (
    BlockWitness,
    CrossedEntry,
    SectorKind,
    VerdictStatus,
    block_ppt_min_eig,
    certify,
    classify_sectors,
    find_crossed_entries,
    reduced_purity,
)
from addobs_certify.higgs_zz import HiggsZZParams, params_from_measured, rho_from_params
from addobs_certify.structure import (
    EPS_PSD,
    EPS_ZERO,
    AdditiveStructure,
    DensityMatrix,
    TextureError,
    build_sectors,
    min_pt_eigenvalue,
    pt_block_decomposition,
)

from helpers import (
    bell_system,
    chain_structure,
    make_rng,
    random_crossed_system,
    random_product_mixture,
    random_shell_state,
    random_type1_structure,
    sector_diagonal_state,
)


def type2_bell_system() -> tuple[AdditiveStructure, DensityMatrix]:
    """A Bell state hidden inside a doubly degenerate (2x2) shell sector."""
    s = AdditiveStructure((1.0, 1.0, 0.0), (-1.0, -1.0, 0.0), 0.0)
    mat = np.zeros((9, 9), dtype=complex)
    # internal (|01> + |10>)/sqrt(2) over Alice {0,1} x Bob {0,1}
    mat[1, 1] = mat[3, 3] = mat[1, 3] = mat[3, 1] = 0.5
    return s, DensityMatrix(mat)


class TestFindCrossedEntries:
    def test_higgs_three_crossed(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        entries = find_crossed_entries(rho, s)
        assert len(entries) == 3
        assert {(e.row, e.col) for e in entries} == {(2, 4), (2, 6), (4, 6)}

    def test_diagonal_state_empty(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = mat[2, 2] = 0.5
        assert find_crossed_entries(DensityMatrix(mat), s) == []

    def test_within_sector_entry_not_crossed(self):
        # jA = [1, 1, 0], jB = [-1, 0], J = 0: the (M=1, Q=-1) sector holds
        # Alice indices {0, 1}; an off-diagonal inside it stays on shell
        s = AdditiveStructure((1.0, 1.0, 0.0), (-1.0, 0.0), 0.0)
        mat = np.zeros((6, 6), dtype=complex)
        mat[0, 0] = mat[2, 2] = 0.5  # (m=0,p=0) and (m=1,p=0)
        mat[0, 2] = mat[2, 0] = 0.5
        entries = find_crossed_entries(DensityMatrix(mat), s)
        assert entries == []

    def test_texture_invalid_rejected(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 1.0)
        with pytest.raises(TextureError):
            find_crossed_entries(DensityMatrix(np.eye(4, dtype=complex) / 4), s)


class TestClassifySectors:
    def test_higgs_all_type1(self):
        _, s = rho_from_params(params_from_measured(-0.3, 0.2))
        classes = classify_sectors(s)
        assert len(classes) == 3
        assert all(c.kind is SectorKind.TYPE1 for c in classes)

    def test_type2(self):
        s, _ = type2_bell_system()
        kinds = {c.sector.key: c.kind for c in classify_sectors(s)}
        assert kinds[(1.0, -1.0)] is SectorKind.TYPE2
        assert kinds[(0.0, 0.0)] is SectorKind.TYPE1

    def test_large(self):
        s = AdditiveStructure((0.0, 0.0, 0.0, 5.0), (0.0, 0.0, 0.0, 0.0, 5.0), 0.0)
        kinds = {c.sector.key: c.kind for c in classify_sectors(s)}
        assert kinds[(0.0, 0.0)] is SectorKind.LARGE  # 3 x 4

    @pytest.mark.parametrize(
        "deg_a,deg_b,expected",
        [
            ((2,), (2,), SectorKind.TYPE2),
            ((2,), (3,), SectorKind.TYPE2),
            ((3,), (2,), SectorKind.TYPE2),
            ((1,), (7,), SectorKind.TYPE1),
            ((3,), (3,), SectorKind.LARGE),
        ],
    )
    def test_degeneracy_table(self, deg_a, deg_b, expected):
        j_a = tuple([0.0] * deg_a[0])
        j_b = tuple([0.0] * deg_b[0])
        s = AdditiveStructure(j_a, j_b, 0.0)
        classes = classify_sectors(s)
        assert len(classes) == 1
        assert classes[0].kind is expected


class TestBlockPptMinEig:
    def test_one_by_one_block(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        decomp = pt_block_decomposition(rho, s)
        block = next(b for b in decomp.type_a if b.sector.key == (0.0, 0.0))
        assert block_ppt_min_eig(block) == pytest.approx(1.0)  # unit-trace view
        assert block_ppt_min_eig(block, normalize=False) == pytest.approx(0.6)

    def test_embedded_bell_block(self):
        s, rho = type2_bell_system()
        decomp = pt_block_decomposition(rho, s)
        block = next(b for b in decomp.type_a if b.sector.key == (1.0, -1.0))
        assert block_ppt_min_eig(block) == pytest.approx(-0.5, abs=1e-12)

    def test_product_state_block_nonnegative(self):
        s = AdditiveStructure((1.0, 1.0, 0.0), (-1.0, -1.0, 2.0), 0.0)
        psi = np.zeros(9, dtype=complex)
        # (|0>+|1>)/sqrt(2) on Alice, |0> on Bob, inside the (1,-1) sector
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        decomp = pt_block_decomposition(rho, s)
        block = next(b for b in decomp.type_a if b.sector.key == (1.0, -1.0))
        assert block_ppt_min_eig(block) >= -1e-12

    def test_zero_trace_block_rejected(self):
        s, rho = type2_bell_system()
        decomp = pt_block_decomposition(rho, s)
        empty = next(b for b in decomp.type_a if b.sector.key == (0.0, 0.0))
        with pytest.raises(ValueError, match="trace"):
            block_ppt_min_eig(empty)


class TestCertify:
    def test_higgs_entangled_via_crossed(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        verdict = certify(rho, s)
        assert verdict.status is VerdictStatus.ENTANGLED_CERTIFIED
        assert isinstance(verdict.witness, CrossedEntry)
        # witness has the largest magnitude among the three off-diagonals
        assert abs(verdict.witness.value) == pytest.approx(0.33)
        assert verdict.min_pt_eigenvalue < 0

    def test_product_state_separable(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 1.0  # |up, down>
        verdict = certify(DensityMatrix(mat), s)
        assert verdict.status is VerdictStatus.SEPARABLE_CERTIFIED
        assert verdict.witness is None
        assert verdict.min_pt_eigenvalue >= -1e-12

    def test_type2_bell_entangled_via_block(self):
        s, rho = type2_bell_system()
        verdict = certify(rho, s)
        assert verdict.status is VerdictStatus.ENTANGLED_CERTIFIED
        assert isinstance(verdict.witness, BlockWitness)
        assert verdict.witness.sector.key == (1.0, -1.0)
        assert verdict.witness.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        # a negative block interlaces into the full PT spectrum
        assert verdict.min_pt_eigenvalue <= verdict.witness.min_eigenvalue + 1e-12

    def test_type2_product_separable(self):
        s = AdditiveStructure((1.0, 1.0, 0.0), (-1.0, -1.0, 2.0), 0.0)
        psi = np.zeros(9, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        verdict = certify(DensityMatrix(np.outer(psi, psi.conj())), s)
        assert verdict.status is VerdictStatus.SEPARABLE_CERTIFIED

    def test_large_sector_inconclusive_when_ppt_passes(self):
        s = AdditiveStructure((0.0, 0.0, 0.0, 5.0), (0.0, 0.0, 0.0, 0.0, 5.0), 0.0)
        flats = list(s.shell_flats)
        mat = np.zeros((s.dim, s.dim), dtype=complex)
        for k in flats:
            mat[k, k] = 1.0 / len(flats)
        verdict = certify(DensityMatrix(mat), s)
        assert verdict.status is VerdictStatus.INCONCLUSIVE_PPT_PASSES

    def test_large_sector_entangled_when_block_negative(self):
        s = AdditiveStructure((0.0, 0.0, 0.0, 5.0), (0.0, 0.0, 0.0, 0.0, 5.0), 0.0)
        mat = np.zeros((s.dim, s.dim), dtype=complex)
        # Bell pair on Alice {0,1} x Bob {0,1} inside the 3x4 sector
        f01 = s.flat_index(0, 1)
        f10 = s.flat_index(1, 0)
        mat[f01, f01] = mat[f10, f10] = 0.5
        mat[f01, f10] = mat[f10, f01] = 0.5
        verdict = certify(DensityMatrix(mat), s)
        assert verdict.status is VerdictStatus.ENTANGLED_CERTIFIED
        assert isinstance(verdict.witness, BlockWitness)

    def test_mixed_type2_and_large_never_certifies_separable(self):
        s = AdditiveStructure((0.0, 0.0, 2.0, 2.0, 2.0), (0.0, 0.0, -2.0, -2.0, -2.0), 0.0)
        kinds = {c.kind for c in classify_sectors(s)}
        assert kinds == {SectorKind.TYPE2, SectorKind.LARGE}
        flats = list(s.shell_flats)
        mat = np.zeros((s.dim, s.dim), dtype=complex)
        for k in flats:
            mat[k, k] = 1.0 / len(flats)
        verdict = certify(DensityMatrix(mat), s)
        assert verdict.status is VerdictStatus.INCONCLUSIVE_PPT_PASSES


def _block_rung_reference(mat, s, tol=EPS_ZERO, psd_tol=EPS_PSD) -> BlockWitness | None:
    """The block-PPT rung as it read its blocks from ``pt_block_decomposition``."""
    blocks = {b.sector.key: b for b in pt_block_decomposition(mat, s, tol).type_a}
    worst = None
    for cls in classify_sectors(s):
        if cls.kind is SectorKind.TYPE1:
            continue
        block = blocks[cls.sector.key]
        if float(np.trace(block.matrix).real) <= tol:
            continue
        low = block_ppt_min_eig(block)
        if low < -psd_tol and (worst is None or low < worst.min_eigenvalue):
            worst = BlockWitness(cls.sector, low)
    return worst


def _chain_sector_state(n_spins: int, seed: int, entangled: bool):
    """Sector-diagonal chain state; when ``entangled``, half its weight is a
    maximally entangled pair inside the largest shell sector."""
    s = chain_structure(n_spins)
    mat = sector_diagonal_state(make_rng(seed), s)
    if entangled:
        shell = [sec for sec in build_sectors(s) if sec.m_value + sec.q_value == s.j_total]
        sec = max(shell, key=lambda sec: sec.deg_m * sec.deg_q)
        psi = np.zeros(s.dim, dtype=complex)
        for m, q in zip(sec.alice_indices, sec.bob_indices):
            psi[s.flat_index(m, q)] = 1.0
        psi /= np.linalg.norm(psi)
        mat = 0.5 * mat + 0.5 * np.outer(psi, psi.conj())
    return s, mat


class TestBlockPptRung:
    @pytest.mark.parametrize("n_spins", [3, 4])
    @pytest.mark.parametrize("entangled", [False, True])
    def test_reads_sector_blocks_from_rho(self, n_spins, entangled, monkeypatch):
        s, mat = _chain_sector_state(n_spins, 50 + n_spins, entangled)
        rho = DensityMatrix(mat)
        expected = _block_rung_reference(rho.matrix, s)
        assert expected is not None or not entangled
        # neither rho^{T2} nor pt_block_decomposition, which builds it
        monkeypatch.setattr(structure, "partial_transpose", None)
        verdict = certify(rho, s)
        assert verdict.witness == expected
        assert (verdict.status is VerdictStatus.ENTANGLED_CERTIFIED) == (expected is not None)

    def test_sector_below_the_default_zero_tol_is_tested(self):
        # the sector (1, -1) has trace 5e-13: above tol = 1e-15, so the rung
        # tests it (as README "Tolerances" says zero_tol alone decides), and
        # below EPS_ZERO, where block_ppt_min_eig refuses to normalize it
        s = AdditiveStructure((0.0, 0.0, 1.0, 1.0), (0.0, 0.0, -1.0, -1.0), 0.0)
        mat = np.zeros((16, 16), dtype=complex)
        for k in (0, 1, 4, 5):
            mat[k, k] = (1 - 5e-13) / 4
        mat[10, 10] = 5e-13
        rho = DensityMatrix(mat)
        assert [c.kind for c in classify_sectors(s)] == [SectorKind.TYPE2] * 2
        verdict = certify(rho, s, tol=1e-15)
        assert verdict.status is VerdictStatus.SEPARABLE_CERTIFIED
        assert verdict.witness is None
        # at the default tolerance the sector is skipped instead
        assert certify(rho, s).status is VerdictStatus.SEPARABLE_CERTIFIED

    def test_chain_ladder_peak_memory(self):
        # spin-1/2 chain 5|5 at J = 0 (rho is 16 MiB): the ladder reads blocks
        # of at most 200 rows and builds no 1024 x 1024 array
        s, mat = _chain_sector_state(5, 60, True)
        rho = DensityMatrix(mat)
        certify(rho, s)  # fills the structure's caches
        tracemalloc.start()
        try:
            certify(rho, s)
            reduced_purity(rho, s, "A")
            reduced_purity(rho, s, "B")
            certify_nonlocality(rho, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**20


class TestTheorem:
    def test_crossed_entry_forces_negative_pt(self):
        rng = make_rng(10)
        for _ in range(60):
            s, rho = random_crossed_system(rng)
            assert min_pt_eigenvalue(rho, s) < -1e-12

    def test_crossed_witness_consistent_with_min_pt(self):
        rng = make_rng(11)
        for _ in range(30):
            s, rho = random_crossed_system(rng)
            verdict = certify(rho, s)
            assert verdict.status is VerdictStatus.ENTANGLED_CERTIFIED
            assert verdict.min_pt_eigenvalue < 1e-10


class TestType1Equivalence:
    def test_verdict_matches_crossed_presence(self):
        rng = make_rng(12)
        for i in range(40):
            s = random_type1_structure(rng, qubit_qudit=(i % 2 == 0))
            rho = random_shell_state(rng, s)
            verdict = certify(rho, s)
            has_crossed = bool(find_crossed_entries(rho, s))
            expected = (
                VerdictStatus.ENTANGLED_CERTIFIED
                if has_crossed
                else VerdictStatus.SEPARABLE_CERTIFIED
            )
            assert verdict.status is expected

    def test_product_mixtures_certified_separable(self):
        rng = make_rng(13)
        for i in range(40):
            s = random_type1_structure(rng, qubit_qudit=(i % 2 == 0))
            rho = random_product_mixture(rng, s)
            verdict = certify(rho, s)
            assert verdict.status is VerdictStatus.SEPARABLE_CERTIFIED


class TestReducedPurity:
    def test_product_pure_state(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 1.0
        assert reduced_purity(DensityMatrix(mat), s, "A") == pytest.approx(1.0)

    def test_bell_state(self):
        s, rho = bell_system()
        assert reduced_purity(rho, s, "A") == pytest.approx(0.5)
        assert reduced_purity(rho, s, "B") == pytest.approx(0.5)

    def test_higgs_balanced_pure_state(self):
        # all a_ij = 1/3 is the rank-one triplet superposition: each marginal
        # is maximally mixed on three levels
        params = HiggsZZParams(
            a11=1 / 3, a22=1 / 3, a33=1 / 3,
            a12=complex(1 / 3), a13=complex(1 / 3), a23=complex(1 / 3),
        )
        rho, s = rho_from_params(params)
        assert reduced_purity(rho, s, "A") == pytest.approx(1 / 3, abs=1e-12)

    def test_bounds_on_random_states(self):
        rng = make_rng(14)
        for _ in range(25):
            s, rho = random_crossed_system(rng)
            for party, d in (("A", s.d_a), ("B", s.d_b)):
                value = reduced_purity(rho, s, party)
                assert 1.0 / d - 1e-12 <= value <= 1.0 + 1e-12

    def test_schmidt_symmetry_for_pure_states(self):
        rng = make_rng(15)
        for _ in range(25):
            s = random_type1_structure(rng)
            rho = random_shell_state(rng, s, rank=1)
            pur_a = reduced_purity(rho, s, "A")
            pur_b = reduced_purity(rho, s, "B")
            assert pur_a == pytest.approx(pur_b, abs=1e-12)
