"""Tests for crossed-entry detection, sector classes and the certified verdict."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

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


@st.composite
def crossed_shell_states(draw):
    """Exact-texture states of dim 4-64 with crossed positions; crossed entries scaled down.

    Integer labels with two shell pairs in different sectors. Scaling every
    entry between two shell sectors by ``coupling`` mixes the state with
    its sector-diagonal part, so it stays a state; small couplings put the
    crossed entries far below ``psd_tol``.
    """
    d_a, d_b = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    labels = st.integers(-2, 2).map(float)
    ja = draw(st.lists(labels, min_size=d_a, max_size=d_a))
    jb = draw(st.lists(labels, min_size=d_b, max_size=d_b))
    ja[1] = ja[0] + draw(st.sampled_from([-1.0, 1.0]))
    total = ja[0] + jb[0]
    jb[1] = total - ja[1]
    s = AdditiveStructure(
        tuple(draw(st.permutations(ja))), tuple(draw(st.permutations(jb))), total
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = random_shell_state(rng, s, draw(st.sampled_from([None, 1, 2]))).matrix.copy()
    alice = np.asarray(s.j_alice)[np.arange(s.dim) // s.d_b]
    mat[np.not_equal.outer(alice, alice)] *= draw(st.sampled_from([1.0, 1e-4, 1e-9]))
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


class TestCertifyTolerances:
    """``psd_tol`` must be finite and nonnegative: a NaN or infinite slack
    calls every block PPT, a negative one calls a PPT block entangled."""

    S = AdditiveStructure((0.0, 0.0, 1.0, 1.0), (0.0, 0.0, -1.0, -1.0), 0.0)

    def _state(self, entangled: bool) -> DensityMatrix:
        mat = np.zeros((16, 16), dtype=complex)
        if entangled:  # (|00> + |11>)/sqrt(2) inside the 2x2 sector (0, 0)
            mat[0, 0] = mat[5, 5] = mat[0, 5] = mat[5, 0] = 0.5
        else:
            mat[0, 0] = 1.0
        return DensityMatrix(mat)

    def test_default_verdicts(self):
        assert certify(self._state(True), self.S).status is VerdictStatus.ENTANGLED_CERTIFIED
        assert certify(self._state(False), self.S).status is VerdictStatus.SEPARABLE_CERTIFIED

    @pytest.mark.parametrize("psd_tol", [math.nan, math.inf, -0.1, -1e-300])
    @pytest.mark.parametrize("entangled", [False, True])
    def test_bad_psd_tol_rejected(self, psd_tol, entangled):
        with pytest.raises(ValueError, match="^psd_tol must be finite and nonnegative"):
            certify(self._state(entangled), self.S, psd_tol=psd_tol)


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

    @settings(max_examples=150, deadline=None)
    @given(crossed_shell_states())
    def test_crossed_witness_bounds_the_min_pt_eigenvalue(self, case):
        # for an exact texture the witness a is an entry of a cross block's
        # coupling C, so lambda_min(rho^{T2}) = -sigma_max(C) <= -|a|, even
        # when |a| lies far inside psd_tol
        s, rho = case
        verdict = certify(rho, s)
        assume(isinstance(verdict.witness, CrossedEntry))
        assert min_pt_eigenvalue(rho, s) <= -abs(verdict.witness.value) + 1e-13


#: States with a sector concurrence (before the max with 0) within this band
#: of 0 are skipped: there block PPT and concurrence meet at 0, and the PPT
#: rung's psd_tol (1e-9) decides. For two qubits the negativity
#: 2|lambda_min(rho^T2)| is at least sqrt((1 - C)^2 + C^2) - (1 - C), about
#: C^2/2 (Verstraete et al., J. Phys. A 34, 10327 (2001)), so a concurrence
#: above the band puts the PT minimum below -2.5e-7.
CONCURRENCE_BAND = 1e-3

SIGMA_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def wootters_concurrence(sigma: np.ndarray) -> float:
    """lambda_1 - lambda_2 - lambda_3 - lambda_4 of a two-qubit state, before the max with 0.

    The lambdas are the square roots, in decreasing order, of the eigenvalues
    of sigma (sY x sY) sigma* (sY x sY), taken as those of the Hermitian
    sqrt(sigma) sigma~ sqrt(sigma) (Wootters, PRL 80, 2245 (1998)). The state is
    separable exactly when this is <= 0. Uses no partial transpose.
    """
    sigma = sigma / np.trace(sigma).real
    w, v = np.linalg.eigh(sigma)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    tilde = SIGMA_YY @ sigma.conj() @ SIGMA_YY
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ tilde @ root), 0.0, None))[::-1]
    return float(lam[0] - lam[1] - lam[2] - lam[3])


@st.composite
def two_qubit_sector_sums(draw):
    """Direct sums of two-qubit states over 2x2 shell sectors, with no crossed entry.

    Sector k pairs Alice's label k with Bob's label -k (J = 0), each doubly
    degenerate, so with one sector any two-qubit state is allowed; an optional
    last sector has one Alice index (TYPE1) and holds any state. Each 2x2
    sector state is p G G^dagger / Tr + (1 - p) 1/4 for a random G of rank 1-4.
    Returns the structure, the state and the 2x2 sector states.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_type2 = draw(st.integers(1, 3))
    with_type1 = draw(st.booleans())
    degs = [(2, 2)] * n_type2 + [(1, 2)] * with_type1
    ja = tuple(float(k) for k, (deg, _) in enumerate(degs) for _ in range(deg))
    jb = tuple(float(-k) for k, (_, deg) in enumerate(degs) for _ in range(deg))
    s = AdditiveStructure(ja, jb, 0.0)
    weights = rng.uniform(0.2, 1.0, len(degs))
    weights /= weights.sum()
    mat = np.zeros((s.dim, s.dim), dtype=complex)
    sector_states = []
    a0 = b0 = 0
    for (deg_a, deg_b), weight in zip(degs, weights):
        n = deg_a * deg_b
        rank = draw(st.integers(1, n))
        g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        sigma = g @ g.conj().T
        p = draw(st.floats(0.0, 1.0))
        sigma = p * sigma / np.trace(sigma).real + (1.0 - p) * np.eye(n) / n
        if n == 4:
            sector_states.append(sigma)
        flats = [(a0 + i) * s.d_b + b0 + j for i in range(deg_a) for j in range(deg_b)]
        mat[np.ix_(flats, flats)] = weight * sigma
        a0, b0 = a0 + deg_a, b0 + deg_b
    return s, DensityMatrix(mat), sector_states


class TestType2Oracle:
    @settings(max_examples=300, deadline=None)
    @given(two_qubit_sector_sums())
    def test_separable_iff_every_sector_concurrence_vanishes(self, case):
        # with no crossed entry rho is the direct sum of its sector states, so
        # it is separable exactly when each one is; for a 2x2 sector Wootters'
        # concurrence decides that without reference to the partial transpose
        s, rho, sector_states = case
        assert not find_crossed_entries(rho, s)
        assert all(c.kind is not SectorKind.LARGE for c in classify_sectors(s))
        concurrences = [wootters_concurrence(sigma) for sigma in sector_states]
        assume(all(abs(c) > CONCURRENCE_BAND for c in concurrences))
        separable = all(c < 0.0 for c in concurrences)
        event("separable" if separable else "entangled")
        expected = VerdictStatus.SEPARABLE_CERTIFIED if separable else VerdictStatus.ENTANGLED_CERTIFIED
        assert certify(rho, s).status is expected

    def test_oracle_on_known_states(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        assert wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-12)
        # Werner states are entangled exactly above p = 1/3
        for p, sign in ((0.3, -1), (0.36, 1)):
            werner = p * bell + (1 - p) * np.eye(4) / 4
            assert np.sign(wootters_concurrence(werner)) == sign
        product = np.kron(np.diag([0.7, 0.3]), np.diag([0.4, 0.6])).astype(complex)
        assert wootters_concurrence(product) <= 0.0


PT_BAND = 1e-6


@st.composite
def two_by_three_sector_states(draw):
    """States over one 2x3 or 3x2 shell sector, alone or beside a 1x1 sector.

    Alice's label 0 (deg_a indices) meets Bob's label 0 (deg_b indices) on the
    J = 0 shell, and the optional 1x1 sector pairs Alice's 1 with Bob's -1.
    The state is block diagonal over the sectors, so it has no crossed entry:
    either a random product mixture or w * sigma (+) (1 - w) with
    sigma = p G G^dagger / Tr + (1 - p) 1/6 for a random G of rank 1-6 and
    p >= 0.3. Returns the structure, the state, the 2x3 (or 3x2) sector's
    (Alice, Bob) indices and whether the state is a product mixture.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    deg_a, deg_b = draw(st.sampled_from([(2, 3), (3, 2)]))
    with_1x1 = draw(st.booleans())
    s = AdditiveStructure((0.0,) * deg_a + (1.0,) * with_1x1, (0.0,) * deg_b + (-1.0,) * with_1x1, 0.0)
    sector = (tuple(range(deg_a)), tuple(range(deg_b)))
    if draw(st.booleans()):
        return s, random_product_mixture(rng, s), sector, True
    rank = draw(st.integers(1, 6))
    g = rng.normal(size=(6, rank)) + 1j * rng.normal(size=(6, rank))
    p = draw(st.floats(0.3, 1.0))
    sigma = p * g @ g.conj().T / np.linalg.norm(g) ** 2 + (1.0 - p) * np.eye(6) / 6
    mat = np.zeros((s.dim, s.dim), dtype=complex)
    flats = [m * s.d_b + q for m in sector[0] for q in sector[1]]
    w = rng.uniform(0.2, 1.0) if with_1x1 else 1.0
    mat[np.ix_(flats, flats)] = w * sigma
    if with_1x1:
        mat[-1, -1] = 1.0 - w
    return s, DensityMatrix(mat), sector, False


def sector_pt_min_over_trace(mat: np.ndarray, alice, bob, d_b: int) -> float:
    """lambda_min / Tr of the partial transpose over Bob of rho's block on alice x bob."""
    flats = [m * d_b + q for m in alice for q in bob]
    block = mat[np.ix_(flats, flats)].reshape(len(alice), len(bob), len(alice), len(bob))
    pt = block.transpose(0, 3, 2, 1).reshape(len(flats), len(flats))
    return float(np.linalg.eigvalsh(pt)[0] / np.trace(block.reshape(len(flats), len(flats))).real)


class TestType2Oracle2x3:
    @settings(max_examples=200, deadline=None)
    @given(two_by_three_sector_states())
    def test_verdict_follows_the_sector_partial_transpose(self, case):
        # for 2x3 and 3x2 no concurrence-like closed form exists; the
        # constructive cases: product mixtures are never certified entangled,
        # and a sector whose own partial transpose dips below -PT_BAND is;
        # one whose partial transpose stays above PT_BAND is separable
        # (PPT is sufficient at 2x3, Horodecki, PLA 223, 1 (1996))
        s, rho, (alice, bob), product = case
        assert not find_crossed_entries(rho, s)
        verdict = certify(rho, s)
        if product:
            event("product mixture")
            assert verdict.status is VerdictStatus.SEPARABLE_CERTIFIED
            return
        ratio = sector_pt_min_over_trace(rho.matrix, alice, bob, s.d_b)
        event("npt" if ratio < -PT_BAND else "ppt" if ratio > PT_BAND else "within the band")
        if ratio > PT_BAND:
            assert verdict.status is VerdictStatus.SEPARABLE_CERTIFIED
        elif ratio < -PT_BAND:
            assert verdict.status is VerdictStatus.ENTANGLED_CERTIFIED
            assert isinstance(verdict.witness, BlockWitness)
            assert (verdict.witness.sector.alice_indices, verdict.witness.sector.bob_indices) == (alice, bob)
            assert verdict.witness.min_eigenvalue == pytest.approx(ratio, abs=1e-9)

    def test_bell_pair_in_2x3_sector(self):
        s = AdditiveStructure((0.0, 0.0), (0.0, 0.0, 0.0), 0.0)
        mat = np.zeros((6, 6), dtype=complex)
        mat[np.ix_([0, 4], [0, 4])] = 0.5
        verdict = certify(DensityMatrix(mat), s)
        assert verdict.status is VerdictStatus.ENTANGLED_CERTIFIED
        assert verdict.witness.min_eigenvalue == pytest.approx(-0.5)


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
