"""Tests for sector bookkeeping, texture validation and PT blocks."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addobs_certify import structure
from addobs_certify.cli import load_document
from addobs_certify.entanglement import classify_sectors
from addobs_certify.higgs_zz import HIGGS_STRUCTURE, params_from_measured, rho_from_params
from addobs_certify.linalg import EPS_HERM, as_square_matrix, partial_transpose
from addobs_certify.structure import (
    EPS_J,
    EPS_PSD,
    EPS_TR,
    AdditiveStructure,
    DensityMatrix,
    StateValidationError,
    TextureError,
    build_sectors,
    min_pt_eigenvalue,
    pt_block_decomposition,
    validate_additivity,
)

from helpers import (
    bell_system,
    benchmark_corpus,
    chain_structure,
    make_rng,
    random_crossed_system,
    random_shell_state,
    random_structure,
    sector_diagonal_state,
)


class TestAdditiveStructure:
    def test_empty_shell_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AdditiveStructure((1.0, 2.0), (1.0, 2.0), 100.0)

    @pytest.mark.parametrize("eps_j", [math.inf, math.nan, -1.0])
    def test_bad_eps_j_rejected(self, eps_j):
        # an infinite eps_j groups every label together and puts every pair
        # on the shell, which turns the texture check off
        with pytest.raises(ValueError, match="^eps_j must be finite and nonnegative"):
            AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0, eps_j=eps_j)

    def test_shell_pairs_higgs(self):
        assert HIGGS_STRUCTURE.shell_pairs == ((0, 2), (1, 1), (2, 0))
        assert HIGGS_STRUCTURE.shell_flats == (2, 4, 6)

    def test_label_grouping(self):
        # each group is (representative, indices), ascending; a label's
        # degeneracy is the size of its group
        s = AdditiveStructure((1.0, 1.0, 0.0), (0.0, -1.0), 0.0)
        assert s.alice_groups == ((0.0, (2,)), (1.0, (0, 1)))
        assert s.bob_groups == ((-1.0, (1,)), (0.0, (0,)))

    def test_non_finite_labels_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            AdditiveStructure((float("nan"), 0.0), (0.0,), 0.0)

    @pytest.mark.parametrize("extreme", [1e308, -1e308])
    def test_overflowing_label_sums_rejected(self, extreme):
        # each label is finite; the largest (or least) sum M + P is not
        with pytest.raises(ValueError, match="label sums M \\+ P must be finite"):
            AdditiveStructure((extreme, 0.0), (extreme, 0.0), 0.0)
        # the largest label of one party with the least of the other is finite
        s = AdditiveStructure((extreme, 0.0), (-extreme, 0.0), 0.0)
        assert s.shell_pairs == ((0, 0), (1, 1))


def _near(integers):
    """Integers moved by k * 0.6e-9, |k| <= 3: label groups within 2 * EPS_J of each other."""
    return st.builds(lambda n, k: n + k * 0.6e-9, integers, st.integers(-3, 3))


@st.composite
def near_degenerate_labels(draw):
    """Label sets whose groups can meet the shell ambiguously, with a total most often on some raw pair sum."""
    d_a, d_b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    ja = draw(st.lists(_near(st.integers(-2, 2)), min_size=d_a, max_size=d_a))
    jb = draw(st.lists(_near(st.integers(-2, 2)), min_size=d_b, max_size=d_b))
    total = draw(_near(st.sampled_from([round(ja[0] + jb[0]), round(ja[-1] + jb[-1])])))
    return tuple(ja), tuple(jb), total


@st.composite
def separated_labels(draw):
    """Half-integer labels with at most 2e-10 jitter, a total on a pair sum's grid point or not."""
    jitter = st.floats(-2e-10, 2e-10)
    grid = st.integers(-6, 6).map(lambda v: 0.5 * v)
    label = st.builds(lambda v, e: v + e, grid, jitter)
    ja = draw(st.lists(label, min_size=1, max_size=6))
    jb = draw(st.lists(label, min_size=1, max_size=6))
    on_grid = 0.5 * round(2.0 * (draw(st.sampled_from(ja)) + draw(st.sampled_from(jb))))
    total = draw(st.one_of(st.just(on_grid), grid)) + draw(jitter)
    return tuple(ja), tuple(jb), total


class TestShellTable:
    """Shell, sectors and blocks are all read from one group-level shell table."""

    def test_labels_with_overlapping_cross_blocks_rejected(self):
        # labels within EPS_J of each other: Alice's group at 1.0000000012
        # sums to J with Bob's groups at -1.0000000006 and -0.9999999994, so
        # the cross blocks of flats (8, 5) and (10, 5) would share row 5
        with pytest.raises(ValueError, match="ambiguous labels"):
            AdditiveStructure(
                (0.9999999982, 1.0000000012, 6e-10, 0.9999999988) + (50.0,) * 4,
                (-1.0000000006, 1.2e-09, -0.9999999994, 0.9999999982),
                1.2e-09,
            )

    def test_shell_pair_in_no_sector_rejected(self):
        # labels within EPS_J of each other: the pair (0, 1) sums to J, but
        # its Bob label joins the group represented by -6e-10, which does
        # not, so no sector would hold it; the shell is empty on the groups
        with pytest.raises(ValueError, match="no basis pair satisfies M \\+ P = J"):
            AdditiveStructure((1.2e-09,) + (50.0,) * 15, (-6e-10, 0.0), 1.8e-09)

    @settings(max_examples=300, deadline=None)
    @given(near_degenerate_labels(), st.integers(0, 2**32 - 1))
    def test_near_degenerate_labels_are_rejected_or_partitioned(self, labels, seed):
        try:
            s = AdditiveStructure(*labels)
        except ValueError:
            return
        owners = Counter(
            (m, q)
            for cls in classify_sectors(s)
            for m in cls.sector.alice_indices
            for q in cls.sector.bob_indices
        )
        assert set(owners) == set(s.shell_pairs)
        assert set(owners.values()) == {1}
        flats = [f for block in s._pt_blocks for f in block.flats_mq + block.flats_np]
        assert len(flats) == len(set(flats))
        rho = random_shell_state(np.random.default_rng(seed), s)
        pt = partial_transpose(rho.matrix, s.d_a, s.d_b)
        np.testing.assert_array_equal(pt_block_decomposition(rho, s).assemble(), pt)
        if s.dim >= 32:
            assert abs(min_pt_eigenvalue(rho, s) - np.linalg.eigvalsh(pt)[0]) <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(separated_labels())
    def test_on_shell_is_the_raw_label_sum_for_separated_labels(self, labels):
        ja, jb, total = labels
        raw = [
            (m, p) for m in range(len(ja)) for p in range(len(jb))
            if abs(ja[m] + jb[p] - total) <= EPS_J
        ]
        if not raw:
            with pytest.raises(ValueError, match="no basis pair"):
                AdditiveStructure(ja, jb, total)
            return
        s = AdditiveStructure(ja, jb, total)
        assert [(m, p) for m in range(s.d_a) for p in range(s.d_b) if s.on_shell(m, p)] == raw
        assert list(s.shell_pairs) == raw


class TestBuildSectors:
    def test_higgs_nine_sectors(self):
        sectors = build_sectors(HIGGS_STRUCTURE)
        assert len(sectors) == 9
        on_shell = [sec for sec in sectors if sec.m_value + sec.q_value == 0.0]
        assert len(on_shell) == 3
        assert all(sec.deg_m == 1 and sec.deg_q == 1 for sec in on_shell)
        assert {sec.key for sec in on_shell} == {(1.0, -1.0), (0.0, 0.0), (-1.0, 1.0)}

    def test_qubit_pair(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        sectors = build_sectors(s)
        assert len(sectors) == 4
        assert all(sec.deg_m == 1 and sec.deg_q == 1 for sec in sectors)

    def test_degenerate_grouping(self):
        # jA = [1, 1, 0], jB = [0, -1]: 2 x 2 label grid, hand enumeration
        s = AdditiveStructure((1.0, 1.0, 0.0), (0.0, -1.0), 0.0)
        sectors = {sec.key: sec for sec in build_sectors(s)}
        assert set(sectors) == {(1.0, 0.0), (1.0, -1.0), (0.0, 0.0), (0.0, -1.0)}
        assert sectors[(1.0, 0.0)].deg_m == 2
        assert sectors[(1.0, 0.0)].deg_q == 1
        assert sectors[(1.0, 0.0)].alice_indices == (0, 1)

    def test_sectors_partition_all_pairs(self):
        rng = make_rng(2)
        for _ in range(20):
            s = random_structure(rng)
            seen = []
            for sec in build_sectors(s):
                seen.extend(sec.flat_indices(s.d_b))
            assert sorted(seen) == list(range(s.dim))


class TestDensityMatrix:
    def test_trace_violation(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_psd_violation(self):
        with pytest.raises(StateValidationError, match="semi-definite"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_non_hermitian_rejected(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError, match="Hermitian"):
            DensityMatrix(mat)

    def test_small_defects_symmetrized(self):
        mat = np.array([[0.5, 1e-12], [0.0, 0.5]], dtype=complex)
        dm = DensityMatrix(mat)
        np.testing.assert_array_equal(dm.matrix, dm.matrix.conj().T)

    def test_matrix_is_readonly(self):
        _, rho = bell_system()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40), fortran=st.booleans())
    def test_symmetrized_bits_match_reference(self, seed, dim, fortran):
        # the stored matrix is (rho + rho^dagger)/2 bit for bit, whatever the
        # input's memory order
        rng = make_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T + 1e-12 * g
        mat /= np.trace(mat).real
        mat = np.asfortranarray(mat) if fortran else mat
        expected = (mat + mat.conj().T) / 2.0
        assert DensityMatrix(mat).matrix.tobytes() == expected.tobytes()

    def test_empty_matrix_rejected(self):
        with pytest.raises(StateValidationError, match="empty"):
            DensityMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("name", ["trace_tol", "psd_tol", "herm_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
    def test_bad_tolerance_rejected(self, name, value):
        # a NaN tolerance compares false both ways, so it would accept a
        # negative eigenvalue, a trace of 4 or any hermiticity defect
        valid, not_psd = np.eye(4) / 4, np.diag([1.5, -0.5, 0.0, 0.0])
        for mat in (valid, not_psd, np.eye(4), np.triu(np.ones((4, 4))) / 4):
            with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
                DensityMatrix(mat.astype(complex), **{name: value})


def _state_on_support(seed: int, support: list[bool], negative: bool) -> np.ndarray:
    """Unit-trace Hermitian matrix, zero outside ``support``; when ``negative``
    one eigenvalue lies below -2e-8, twenty times ``EPS_PSD``."""
    rng = make_rng(seed)
    keep = np.flatnonzero(support)
    k = keep.size
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    u, _ = np.linalg.qr(g)
    lam = rng.uniform(0.1, 1.0, k) * (rng.random(k) > 0.3)
    lam[-1] = 1.0  # at least one positive eigenvalue
    if negative:
        lam[0] = -rng.uniform(1e-6, 0.05)
    lam /= lam.sum()
    mat = np.zeros((len(support), len(support)), dtype=complex)
    mat[np.ix_(keep, keep)] = (u * lam) @ u.conj().T
    return mat


class TestDensityMatrixSupport:
    """PSD is checked on the nonzero rows only; decisions match a dense eigensolve."""

    # dimensions on both sides of the switch to the support eigensolve at 32
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        support=st.integers(1, 48)
        .flatmap(lambda d: st.lists(st.booleans(), min_size=d, max_size=d))
        .filter(any),
        negative=st.booleans(),
    )
    def test_accepts_exactly_as_dense_reference(self, seed, support, negative):
        negative = negative and sum(support) >= 2
        mat = _state_on_support(seed, support, negative)
        dense_min = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0]
        assert (dense_min < -EPS_PSD) == negative  # far from the tolerance either way
        if negative:
            with pytest.raises(StateValidationError, match="semi-definite"):
                DensityMatrix(mat)
        else:
            DensityMatrix(mat)

    @pytest.mark.parametrize("dim", [3, 40])
    def test_zero_diagonal_row_is_in_the_support(self, dim):
        # row 2 has a zero diagonal but couples to row 0, and the negative
        # eigenvalue lives on rows {0, 2}; every other row is zero
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
        mat[0, 2] = mat[2, 0] = 0.1
        assert np.linalg.eigvalsh(mat)[0] < -1e-3
        with pytest.raises(StateValidationError, match="semi-definite"):
            DensityMatrix(mat)

    @pytest.mark.parametrize("dim", [3, 40])
    def test_no_support_has_min_eigenvalue_zero(self, dim):
        # only reachable with a trace tolerance of at least 1
        assert DensityMatrix(np.zeros((dim, dim)), trace_tol=1.0).dim == dim


def _counting_eigvalsh(monkeypatch) -> list[int]:
    """A list that records the size of each later ``np.linalg.eigvalsh`` call."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@st.composite
def gated_cases(draw):
    """A unit-trace Hermitian matrix of dim 1-64 with a set spectrum, and a
    ``psd_tol``.

    The state lives on k of the dim indices (the other rows are zero, so
    from dim 32 up the live submatrix is k x k). Of its k eigenvalues one is
    ``low`` (0 to 3 times -psd_tol, anywhere in [-1e-2, 1e-2], or 0), some
    may be 0 (rank-deficient) and the rest are positive.
    """
    dim = draw(st.integers(1, 64))
    k = draw(st.integers(1, dim))
    psd_tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    low = draw(
        st.one_of(
            st.floats(0.0, 3.0).map(lambda f: -f * psd_tol),
            st.floats(-1e-2, 1e-2),
            st.just(0.0),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if k == 1:
        lam = np.ones(1)
    else:
        positive = rng.uniform(0.1, 1.0, k - 1 - draw(st.integers(0, k - 2)))
        lam = np.zeros(k)
        lam[0], lam[k - positive.size:] = low, positive * (1.0 - low) / positive.sum()
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    u, _ = np.linalg.qr(g)
    support = np.sort(rng.choice(dim, size=k, replace=False))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.ix_(support, support)] = (u * lam) @ u.conj().T
    return mat, support, psd_tol


class TestPositivityGate:
    """Positivity is decided by a Cholesky factorization of rho_live +
    psd_tol * I; ``eigvalsh`` runs only when it fails, and decides alone."""

    @settings(max_examples=300, deadline=None)
    @given(gated_cases())
    def test_gated_decision_equals_the_eigensolve(self, case):
        # the reference: the smallest eigenvalue of the symmetrized support,
        # and the exact zeros of the other rows; decisions may differ only in
        # a rounding band about -psd_tol
        mat, support, psd_tol = case
        sym = (mat + mat.conj().T) / 2.0
        low = float(np.linalg.eigvalsh(sym[np.ix_(support, support)])[0])
        if support.size < len(mat):
            low = min(low, 0.0)
        assume(abs(low + psd_tol) > 1e-12)
        try:
            DensityMatrix(mat, psd_tol=psd_tol)
            accepted = True
        except StateValidationError as exc:
            assert "semi-definite" in str(exc)
            accepted = False
        assert accepted == (low >= -psd_tol)

    def test_accepted_chain_state_makes_no_eigensolve(self, monkeypatch):
        mat = random_shell_state(make_rng(70), chain_structure(4)).matrix
        calls = _counting_eigvalsh(monkeypatch)
        assert DensityMatrix(mat).dim == 256
        assert calls == []

    def test_rejected_chain_state_makes_one_eigensolve(self, monkeypatch):
        # a negative diagonal entry on the shell; the message is the one the
        # eigensolve of the symmetrized live submatrix gave before the gate
        s = chain_structure(4)
        mat = np.array(random_shell_state(make_rng(71), s).matrix)
        i, j = s.shell_flats[:2]
        shift = mat[i, i].real + 1e-3
        mat[i, i] -= shift
        mat[j, j] += shift
        live = np.flatnonzero(mat.any(axis=1) | mat.any(axis=0))
        sub = mat[np.ix_(live, live)]
        min_eig = float(np.linalg.eigvalsh((sub + sub.conj().T) / 2.0).min(initial=0.0))
        calls = _counting_eigvalsh(monkeypatch)
        with pytest.raises(StateValidationError) as info:
            DensityMatrix(mat)
        assert calls == [live.size]
        assert str(info.value) == f"not positive semi-definite: min eigenvalue {min_eig:.3e}"

    @pytest.mark.parametrize("dim", [4, 40])
    def test_singular_state_at_psd_tol_zero_takes_the_eigensolve(self, dim, monkeypatch):
        # rho has a zero eigenvalue on its checked rows (a zero row at dim 4, a
        # live row zero by value, -0.0, at dim 40): the factorization fails
        # at psd_tol 0 and the eigensolve, which finds the exact 0, accepts
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = mat[1, 1] = 0.5
        mat[2, 2] = complex(-0.0, 0.0)
        calls = _counting_eigvalsh(monkeypatch)
        assert DensityMatrix(mat, psd_tol=0.0).dim == dim
        assert calls == [dim if dim < 32 else 3]

    @pytest.mark.parametrize("dim", [3, 40])
    def test_no_support_at_psd_tol_zero(self, dim):
        assert DensityMatrix(np.zeros((dim, dim)), trace_tol=1.0, psd_tol=0.0).dim == dim


def _whole_matrix_reference(matrix) -> np.ndarray:
    """The checks ``DensityMatrix`` made on the whole matrix before it worked on
    live rows, at the default tolerances and from dim 32 up: the stored
    matrix, or the same ``StateValidationError``."""
    mat = as_square_matrix(matrix)
    if not np.isfinite(mat).all():
        raise StateValidationError("density matrix has non-finite entries")
    adjoint = np.conjugate(mat.T, order="C")
    defect = float(np.max(np.abs(mat - adjoint)))
    if defect > EPS_HERM:
        raise StateValidationError(f"not Hermitian: defect {defect:.3e} exceeds {EPS_HERM:.3e}")
    mat = (mat + adjoint) / 2.0
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > EPS_TR:
        raise StateValidationError(f"trace {tr!r} differs from 1 beyond tolerance")
    keep = mat.any(axis=1)
    min_eig = min(float(np.linalg.eigvalsh(mat[keep][:, keep])[0]), 0.0) if keep.any() else 0.0
    if min_eig < -EPS_PSD:
        raise StateValidationError(f"not positive semi-definite: min eigenvalue {min_eig:.3e}")
    return mat


def _outcome(build) -> bytes | str:
    try:
        return build().tobytes()
    except StateValidationError as exc:
        return str(exc)


@st.composite
def live_row_inputs(draw):
    """Dim 32-64 matrices with random all-zero rows and columns, perturbed.

    ``one-sided`` puts an entry in a live row whose transposed partner lies
    in an all-zero row, so only the column shows it; ``defect`` adds an
    anti-Hermitian part just above or below ``EPS_HERM``; ``trace`` misses
    unit trace by ten times ``EPS_TR``; ``non-finite`` puts a NaN or an inf
    anywhere, zero rows included; ``negative-zero`` writes -0.0 parts into
    the zero rows.
    """
    dim = draw(st.integers(32, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.random(dim) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    if support.any():
        mat = _state_on_support(int(rng.integers(2**32)), list(support), draw(st.booleans()))
    else:
        mat = np.zeros((dim, dim), dtype=complex)
    dead = np.flatnonzero(~support)
    kind = draw(st.sampled_from(["none", "one-sided", "defect", "trace", "non-finite", "negative-zero"]))
    size = EPS_HERM * draw(st.sampled_from([0.5, 1 - 1e-6, 1 + 1e-6, 2.0, 1e6]))
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    i, j = (int(k) for k in rng.integers(dim, size=2))
    if kind == "one-sided" and dead.size:
        mat[i, int(rng.choice(dead))] = size * phase
    elif kind == "defect":
        mat[i, j] += size * phase if i != j else 1j * size
    elif kind == "trace":
        mat *= 1.0 + 10 * EPS_TR
    elif kind == "non-finite":
        mat[i, j] = draw(st.sampled_from([complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 0.0)]))
    elif kind == "negative-zero" and dead.size:
        for _ in range(4):
            r, c = int(rng.choice(dead)), int(rng.integers(dim))
            mat[r, c] = draw(st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]))
            mat[c, r] = draw(st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]))
    return np.asfortranarray(mat) if draw(st.booleans()) else mat


class TestDensityMatrixLiveRows:
    """From dim 32 up the checks run on the live rows: same bits, same decisions."""

    @settings(max_examples=300, deadline=None)
    @given(live_row_inputs())
    def test_same_bytes_and_messages_as_the_whole_matrix(self, mat):
        assert _outcome(lambda: DensityMatrix(mat).matrix) == _outcome(lambda: _whole_matrix_reference(mat))

    @pytest.mark.parametrize("size, accepted", [(0.5 * EPS_HERM, True), (2.0 * EPS_HERM, False)])
    def test_entry_whose_partner_row_is_zero(self, size, accepted):
        # row 3 is all zero, but column 3 holds the entry at (0, 3): a support
        # taken from the rows alone would drop index 3 and miss the defect
        mat = np.zeros((40, 40), dtype=complex)
        mat[0, 0] = mat[1, 1] = 0.5
        mat[0, 3] = size
        assert _outcome(lambda: DensityMatrix(mat).matrix) == _outcome(lambda: _whole_matrix_reference(mat))
        if accepted:
            assert DensityMatrix(mat).matrix[3, 0] == size / 2
        else:
            with pytest.raises(StateValidationError, match="not Hermitian"):
                DensityMatrix(mat)

    def test_chain_state_peak_memory(self):
        # spin-1/2 chain 5|5 at J = 0: rho is 16 MiB and 252 of its 1024 rows
        # are live; the whole-matrix checks peaked at 40 MiB
        s = chain_structure(5)
        mat = sector_diagonal_state(make_rng(11), s)
        tracemalloc.start()
        try:
            DensityMatrix(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20


class TestValidateAdditivity:
    def test_higgs_texture_valid(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        assert validate_additivity(rho, s) == []

    def test_maximally_mixed_off_shell(self):
        # J = 1 leaves only the (up, up) diagonal entry on shell: the other
        # three diagonal entries of the maximally mixed state violate
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 1.0)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        violations = validate_additivity(rho, s)
        assert len(violations) == 3
        assert {(v.row, v.col) for v in violations} == {(1, 1), (2, 2), (3, 3)}
        assert all(v.row_label_sum != 1.0 for v in violations)

    def test_diagonal_on_shell_valid(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 0.25
        mat[2, 2] = 0.75
        assert validate_additivity(DensityMatrix(mat), s) == []

    def test_dimension_mismatch(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        with pytest.raises(ValueError, match="mismatch"):
            validate_additivity(np.eye(6) / 6, s)


class TestPtBlockDecomposition:
    def test_higgs_blocks(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        decomp = pt_block_decomposition(rho, s)
        assert len(decomp.type_a) == 3
        for block in decomp.type_a:
            assert block.matrix.shape == (1, 1)
        diag = sorted(float(b.matrix[0, 0].real) for b in decomp.type_a)
        assert diag == pytest.approx([0.2, 0.2, 0.6])

        assert len(decomp.type_b) == 3
        couplings = sorted(abs(b.coupling[0, 0]) for b in decomp.type_b)
        assert couplings == pytest.approx([0.2, 0.33, 0.33])
        for block in decomp.type_b:
            assert block.matrix.shape == (2, 2)
            assert block.matrix[0, 0] == 0 and block.matrix[1, 1] == 0

    def test_bell_blocks(self):
        s, rho = bell_system()
        decomp = pt_block_decomposition(rho, s)
        assert len(decomp.type_a) == 2
        assert all(b.matrix.shape == (1, 1) and b.matrix[0, 0] == 0.5 for b in decomp.type_a)
        assert len(decomp.type_b) == 1
        block = decomp.type_b[0]
        np.testing.assert_array_equal(block.matrix, np.array([[0, 0.5], [0.5, 0]]))

    def test_diagonal_state_has_zero_type_b(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = mat[2, 2] = 0.5
        decomp = pt_block_decomposition(DensityMatrix(mat), s)
        for block in decomp.type_b:
            assert np.count_nonzero(block.matrix) == 0

    def test_texture_invalid_rejected(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 1.0)
        with pytest.raises(TextureError):
            pt_block_decomposition(DensityMatrix(np.eye(4, dtype=complex) / 4), s)

    def test_reassembly_is_exact(self):
        rng = make_rng(3)
        for _ in range(25):
            s, rho = random_crossed_system(rng)
            decomp = pt_block_decomposition(rho, s)
            expected = partial_transpose(rho.matrix, s.d_a, s.d_b)
            np.testing.assert_array_equal(decomp.assemble(), expected)

    def test_off_texture_entry_below_tolerance_lies_in_no_block(self):
        # texture-valid (1e-13 <= zero_tol), but rho^{T2} moves the entry to
        # a position joining a sector block and a cross block: in neither
        s, bell = bell_system()
        mat = bell.matrix.copy()
        mat[0, 1] = mat[1, 0] = 1e-13
        rho = DensityMatrix(mat)
        validate_additivity(rho, s)
        gap = pt_block_decomposition(rho, s).assemble() - partial_transpose(mat, s.d_a, s.d_b)
        assert np.count_nonzero(gap) == 2
        assert np.abs(gap).max() == 1e-13

    def test_type_a_traces_sum_to_one(self):
        rng = make_rng(4)
        for _ in range(25):
            s = random_structure(rng)
            rho = random_shell_state(rng, s)
            decomp = pt_block_decomposition(rho, s)
            total = sum(float(np.trace(b.matrix).real) for b in decomp.type_a)
            assert total == pytest.approx(1.0, abs=1e-9)
            for block in decomp.type_b:
                assert abs(np.trace(block.matrix)) <= 1e-12

    def test_type_b_spectra_are_sign_symmetric(self):
        rng = make_rng(5)
        for _ in range(25):
            s = random_structure(rng)
            rho = random_shell_state(rng, s)
            decomp = pt_block_decomposition(rho, s)
            for block in decomp.type_b:
                eigs = np.linalg.eigvalsh(block.matrix)
                np.testing.assert_allclose(eigs, -eigs[::-1], atol=1e-10)


@st.composite
def large_shell_states(draw):
    """Integer labels with d_a * d_b >= 32 and a state on the shell, as an array.

    The total is one of the label sums, so the shell may be a single sector
    (the extreme sums) and some off-shell sectors may have no partner. The
    state mixes a random shell state with the maximally mixed one.
    """
    d_a = draw(st.integers(4, 8))
    d_b = draw(st.integers(-(-32 // d_a), 8))
    labels = st.integers(-2, 2).map(float)
    ja = draw(st.lists(labels, min_size=d_a, max_size=d_a))
    jb = draw(st.lists(labels, min_size=d_b, max_size=d_b))
    total = draw(st.sampled_from(sorted({a + b for a in ja for b in jb})))
    s = AdditiveStructure(tuple(ja), tuple(jb), total)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.sampled_from([None, 1, 2]))
    weight = draw(st.sampled_from([0.0, 0.5, 1.0]))
    flats = list(s.shell_flats)
    mat = (1.0 - weight) * random_shell_state(rng, s, rank).matrix
    mat[flats, flats] += weight / len(flats)
    return s, mat


def _off_shell_flats(s: AdditiveStructure) -> list[int]:
    shell = set(s.shell_flats)
    return [k for k in range(s.dim) if k not in shell]


class TestMinPtEigenvalueBlocks:
    """From dim 32 up the minimum comes from the PT blocks; it must equal one dense solve."""

    @settings(max_examples=150, deadline=None)
    @given(large_shell_states())
    def test_matches_dense_solve_on_texture_valid_states(self, case):
        s, mat = case
        dense = np.linalg.eigvalsh(partial_transpose(mat, s.d_a, s.d_b))[0]
        assert abs(min_pt_eigenvalue(mat, s) - dense) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(large_shell_states(), st.data())
    def test_entries_off_the_texture_take_the_dense_solve(self, case, data):
        # an entry joining a shell pair (M, P) to an off-shell pair (N, Q)
        # lands at PT labels (M, Q) and (N, P), which share no block
        s, mat = case
        off = _off_shell_flats(s)
        assume(off)
        row = data.draw(st.sampled_from(s.shell_flats))
        col = data.draw(st.sampled_from(off))
        value = data.draw(st.floats(1e-15, 1e-12)) * np.exp(1j * data.draw(st.floats(0.0, 6.0)))
        mat[row, col] += value
        mat[col, row] += np.conj(value)
        dense = np.linalg.eigvalsh(partial_transpose(mat, s.d_a, s.d_b))[0]
        assert min_pt_eigenvalue(mat, s) == dense

    @settings(max_examples=50, deadline=None)
    @given(large_shell_states(), st.booleans())
    def test_non_hermitian_input_rejected(self, case, in_block):
        s, mat = case
        off = _off_shell_flats(s)
        assume(in_block or off)
        row = s.shell_flats[0]
        if in_block:
            mat[row, row] += 1e-6j  # a diagonal entry stays in its sector block
        else:
            mat[row, off[0]] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            min_pt_eigenvalue(mat, s)

    def test_uncovered_rows_clamp_a_positive_block_minimum(self):
        # J = 0 is the smallest label sum, so the shell is one 4 x 4 sector and
        # no off-shell sector has a partner: the maximally mixed sector state
        # gives a block minimum of 1/16, and the 48 uncovered rows give 0
        s = AdditiveStructure((0.0,) * 4 + (1.0,) * 4, (0.0,) * 4 + (1.0,) * 4, 0.0)
        flats = list(s.shell_flats)
        mat = np.zeros((64, 64), dtype=complex)
        mat[flats, flats] = 1.0 / 16.0
        assert np.linalg.eigvalsh(partial_transpose(mat, 8, 8))[0] == 0.0
        assert min_pt_eigenvalue(mat, s) == 0.0


def _no_partial_transpose(*args, **kwargs):
    raise AssertionError("partial_transpose called")


class TestPtGathers:
    """Each cached block reads its rho^{T2} entries straight from rho."""

    @staticmethod
    def _assert_gathers_match(s: AdditiveStructure, mat: np.ndarray) -> None:
        pt = partial_transpose(mat, s.d_a, s.d_b)
        for block in s._pt_blocks:
            idx = np.asarray(block.flats_mq + block.flats_np)
            assert mat[block.rows, block.cols].tobytes() == pt[np.ix_(idx, idx)].tobytes()

    @pytest.mark.parametrize("n_spins", [3, 4])
    def test_chain_gathers_equal_the_partial_transpose(self, n_spins):
        # any matrix, texture or not: the gather is a fixed permutation
        s = chain_structure(n_spins)
        rng = make_rng(n_spins)
        mat = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        self._assert_gathers_match(s, mat)

    @settings(max_examples=100, deadline=None)
    @given(
        ja=st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=6),
        jb=st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=6),
        pick=st.integers(0, 2**16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_degenerate_label_gathers_equal_the_partial_transpose(self, ja, jb, pick, seed):
        sums = sorted({a + b for a in ja for b in jb})
        s = AdditiveStructure(tuple(ja), tuple(jb), sums[pick % len(sums)])
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
        self._assert_gathers_match(s, mat)

    @pytest.mark.parametrize("n_spins", [3, 4])
    @pytest.mark.parametrize("cross", ["zero", "nonzero"])
    def test_min_pt_eigenvalue_without_the_partial_transpose(self, n_spins, cross, monkeypatch):
        s = chain_structure(n_spins)
        rng = make_rng(20 + n_spins)
        if cross == "zero":
            mat = sector_diagonal_state(rng, s)
        else:
            mat = random_shell_state(rng, s).matrix
        dense = np.linalg.eigvalsh(partial_transpose(mat, s.d_a, s.d_b))[0]
        monkeypatch.setattr(structure, "partial_transpose", _no_partial_transpose)
        assert abs(min_pt_eigenvalue(mat, s) - dense) <= 1e-13

    @pytest.mark.parametrize("n_spins", [3, 4])
    def test_entries_off_the_texture_take_the_dense_solve(self, n_spins, monkeypatch):
        s = chain_structure(n_spins)
        mat = sector_diagonal_state(make_rng(30 + n_spins), s)
        row, col = s.shell_flats[0], _off_shell_flats(s)[0]
        mat[row, col] = mat[col, row] = 1e-14
        calls = []

        def counting(*args):
            calls.append(args[1:])
            return partial_transpose(*args)

        monkeypatch.setattr(structure, "partial_transpose", counting)
        dense = np.linalg.eigvalsh(partial_transpose(mat, s.d_a, s.d_b))[0]
        assert min_pt_eigenvalue(mat, s) == dense
        assert calls == [(s.d_a, s.d_b)]

    @pytest.mark.parametrize("n_spins", [3, 4])
    @pytest.mark.parametrize("as_state", [False, True])
    def test_off_shell_signed_zeros_keep_the_block_path(self, n_spins, as_state, monkeypatch):
        # -0.0 parts make off-shell rows live by bit pattern but not by value:
        # the blocks still hold every nonzero entry, and the minimum keeps its bits
        s = chain_structure(n_spins)
        mat = sector_diagonal_state(make_rng(50 + n_spins), s)
        form = DensityMatrix if as_state else np.array
        expected = min_pt_eigenvalue(form(mat), s)
        off, row = _off_shell_flats(s), s.shell_flats[0]
        mat[off[0], off[0]] = complex(-0.0, 0.0)
        mat[row, off[1]] = mat[off[1], row] = complex(0.0, -0.0)
        mat[off[2], off[3]] = mat[off[3], off[2]] = complex(-0.0, -0.0)
        assert set(off[:4]) <= set(structure._live_indices(mat).tolist())
        rho = form(mat)
        monkeypatch.setattr(structure, "partial_transpose", _no_partial_transpose)
        assert min_pt_eigenvalue(rho, s) == expected

    @pytest.mark.parametrize("n_spins", [3, 4])
    def test_decomposition_reassembles_the_partial_transpose(self, n_spins, monkeypatch):
        s = chain_structure(n_spins)
        mat = random_shell_state(make_rng(40 + n_spins), s).matrix
        expected = partial_transpose(mat, s.d_a, s.d_b)
        monkeypatch.setattr(structure, "partial_transpose", _no_partial_transpose)
        np.testing.assert_array_equal(pt_block_decomposition(mat, s).assemble(), expected)


DATA = Path(__file__).resolve().parent / "data"


def _assert_cross_diagonals_zero(rho, s: AdditiveStructure) -> None:
    """``rho`` reaches the block path of the minimum PT eigenvalue (no
    partial transpose is built), and both diagonal sub-blocks of every cross
    block are zero there, so the block's minimum is -sigma_max of its
    coupling."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structure, "partial_transpose", _no_partial_transpose)
        min_pt_eigenvalue(rho, s)
    mat = rho.matrix if isinstance(rho, DensityMatrix) else rho
    cross = [b for b in s._pt_blocks if b.partner is not None]
    assert cross
    for block in cross:
        d1 = len(block.flats_mq)
        gathered = mat[block.rows, block.cols]
        assert not gathered[:d1, :d1].any() and not gathered[d1:, d1:].any()


class TestCrossBlockDiagonals:
    """On the block path a cross block is [[0, C], [C^dagger, 0]]."""

    @pytest.mark.parametrize("name", ["chain3_full", "chain3_sector"])
    def test_data_documents(self, name):
        s, rho = load_document(str(DATA / f"{name}.json"))
        _assert_cross_diagonals_zero(rho, s)

    @pytest.mark.parametrize("kind", ["chain_full_support", "chain_sector_diagonal"])
    @pytest.mark.parametrize("n_spins", [3, 4])
    @pytest.mark.parametrize("index", [0, 1])
    def test_benchmark_chain_documents(self, kind, n_spins, index, tmp_path):
        corpus = benchmark_corpus()
        path = tmp_path / "doc.json"
        path.write_text(corpus.document_text(getattr(corpus, kind)(730, index, n_spins)))
        s, rho = load_document(str(path))
        _assert_cross_diagonals_zero(rho, s)

    @pytest.mark.parametrize("n_spins", [3, 4])
    def test_chain_states(self, n_spins):
        s = chain_structure(n_spins)
        _assert_cross_diagonals_zero(random_shell_state(make_rng(80 + n_spins), s), s)
        _assert_cross_diagonals_zero(sector_diagonal_state(make_rng(90 + n_spins), s), s)

    @settings(max_examples=100, deadline=None)
    @given(large_shell_states())
    def test_generated_states(self, case):
        s, mat = case
        assume(any(b.partner is not None for b in s._pt_blocks))
        _assert_cross_diagonals_zero(mat, s)
