"""Tests for anchors, observables, trace formulas and the CHSH maximum."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from addobs_certify import chsh
from addobs_certify.chsh import (
    AnchorEntry,
    TSIRELSON_BOUND,
    _f_points,
    _alice_contractions,
    _grid_max,
    build_o_operators,
    build_observables,
    certify_nonlocality,
    f_max_closed_form,
    f_value,
    find_anchor_entries,
    grid_verify,
    o_expectations,
    reorder_basis,
)
from addobs_certify.linalg import PAULI_X, PAULI_Y, PAULI_Z, kron
from addobs_certify.higgs_zz import HiggsZZParams, params_from_measured, rho_from_params
from addobs_certify.structure import AdditiveStructure, DensityMatrix

from helpers import (
    bell_system,
    chain_structure,
    make_rng,
    o_operators_blockwise,
    random_anchored_system,
    random_shell_state,
)


def diagonal_higgs() -> tuple[DensityMatrix, AdditiveStructure]:
    params = HiggsZZParams(
        a11=1 / 3, a22=1 / 3, a33=1 / 3, a12=0j, a13=0j, a23=0j
    )
    return rho_from_params(params)


def random_hermitian_unit_trace(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2
    h += np.eye(dim) * (1.0 - np.trace(h).real) / dim
    return h


class TestFindAnchorEntries:
    def test_higgs_anchors(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        anchors = find_anchor_entries(rho, s)
        assert len(anchors) == 3
        a12 = next(a for a in anchors if (a.m0, a.p0, a.n0, a.q0) == (0, 2, 1, 1))
        # column pair is the non-degenerate (N0, Q0) = (0, 0)
        assert s.j_alice[a12.n0] == 0.0 and s.j_bob[a12.q0] == 0.0
        assert a12.value == pytest.approx(-0.33)

    def test_diagonal_state_has_none(self):
        rho, s = diagonal_higgs()
        assert find_anchor_entries(rho, s) == []

    def test_fully_degenerate_crossed_entry_excluded(self):
        # both the (M0, P0) and (N0, Q0) eigenvalue pairs are doubly
        # degenerate, so the crossed entry cannot anchor a violation
        s = AdditiveStructure((1.0, 1.0, 0.0, 0.0), (-1.0, -1.0, 0.0, 0.0), 0.0)
        psi = np.zeros(16, dtype=complex)
        psi[s.flat_index(0, 0)] = 1 / np.sqrt(2)
        psi[s.flat_index(2, 2)] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        assert find_anchor_entries(rho, s) == []

    def test_conjugate_orientation_taken_when_row_pair_nondegenerate(self):
        # (M0, P0) non-degenerate but (N0, Q0) degenerate: the anchor is the
        # conjugate entry, with the non-degenerate pair in the column slot
        s = AdditiveStructure((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), 0.0)
        psi = np.zeros(9, dtype=complex)
        psi[s.flat_index(0, 0)] = 1 / np.sqrt(2)  # labels (1, -1), non-degenerate
        psi[s.flat_index(1, 1)] = 1 / np.sqrt(2)  # labels (0, 0), degenerate
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        anchors = find_anchor_entries(rho, s)
        assert len(anchors) == 1
        anchor = anchors[0]
        assert (anchor.n0, anchor.q0) == (0, 0)
        assert (anchor.m0, anchor.p0) == (1, 1)


class TestReorderBasis:
    def test_higgs_a12(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        anchor = next(
            a for a in find_anchor_entries(rho, s) if (a.m0, a.p0, a.n0, a.q0) == (0, 2, 1, 1)
        )
        reorder = reorder_basis(anchor, s)
        assert reorder.alice_order == (0, 1, 2)
        assert reorder.bob_order == (2, 1, 0)
        # after reordering Bob's labels run (-1, 0, 1)
        assert [s.j_bob[i] for i in reorder.bob_order] == [-1.0, 0.0, 1.0]

    def test_qubit_bob_swap(self):
        s, rho = bell_system()
        anchor = find_anchor_entries(rho, s)[0]
        assert (anchor.m0, anchor.p0, anchor.n0, anchor.q0) == (0, 1, 1, 0)
        reorder = reorder_basis(anchor, s)
        assert reorder.alice_order == (0, 1)
        assert reorder.bob_order == (1, 0)

    def test_anchor_lands_in_corner(self):
        rng = make_rng(20)
        for _ in range(15):
            s, rho, anchors = random_anchored_system(rng)
            anchor = anchors[0]
            rho_r = reorder_basis(anchor, s).apply(rho)
            assert rho_r[0, s.d_b + 1] == anchor.value

    def test_permutations_are_bijective(self):
        rng = make_rng(21)
        for _ in range(10):
            s, _, anchors = random_anchored_system(rng)
            reorder = reorder_basis(anchors[0], s)
            assert sorted(reorder.alice_order) == list(range(s.d_a))
            assert sorted(reorder.bob_order) == list(range(s.d_b))
            assert sorted(reorder.product_order()) == list(range(s.dim))


class TestBuildObservables:
    def test_theta_zero(self):
        obs = build_observables(0.0, 0.3, 3, 4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = PAULI_Z
        expected[2:, 2:] = np.eye(2)
        np.testing.assert_allclose(obs.b1, expected, atol=1e-15)
        np.testing.assert_allclose(obs.b2, expected, atol=1e-15)

    def test_theta_half_pi(self):
        obs = build_observables(math.pi / 2, 0.0, 2, 3)
        b1 = np.zeros((3, 3), dtype=complex)
        b1[:2, :2] = PAULI_X
        b1[2, 2] = 1.0
        b2 = np.zeros((3, 3), dtype=complex)
        b2[:2, :2] = -PAULI_X
        b2[2, 2] = 1.0
        np.testing.assert_allclose(obs.b1, b1, atol=1e-15)
        np.testing.assert_allclose(obs.b2, b2, atol=1e-15)

    def test_sum_and_difference_block_identities(self):
        # B1 + B2 = 2 [cos(theta) sigma_z (+) identity tail];
        # B1 - B2 = 2 sin(theta) [(cos(phi) sigma_x + sin(phi) sigma_y) (+) zero tail]
        rng = make_rng(22)
        for _ in range(20):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            d_b = int(rng.integers(2, 6))
            obs = build_observables(theta, phi, 2, d_b)
            plus = np.zeros((d_b, d_b), dtype=complex)
            plus[:2, :2] = math.cos(theta) * PAULI_Z
            if d_b > 2:
                plus[2:, 2:] = np.eye(d_b - 2)
            minus = np.zeros((d_b, d_b), dtype=complex)
            minus[:2, :2] = math.sin(theta) * (
                math.cos(phi) * PAULI_X + math.sin(phi) * PAULI_Y
            )
            np.testing.assert_allclose(obs.b1 + obs.b2, 2 * plus, atol=1e-12)
            np.testing.assert_allclose(obs.b1 - obs.b2, 2 * minus, atol=1e-12)

    def test_observables_square_to_identity(self):
        rng = make_rng(23)
        for _ in range(20):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            obs = build_observables(theta, phi, d_a, d_b)
            for mat, d in ((obs.a1, d_a), (obs.a2, d_a), (obs.b1, d_b), (obs.b2, d_b)):
                np.testing.assert_allclose(mat @ mat, np.eye(d), atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="theta"):
            build_observables(4.0, 0.0, 2, 2)
        with pytest.raises(ValueError, match="phi"):
            build_observables(0.5, 7.0, 2, 2)


class TestBuildOOperators:
    def test_qubit_pair_o0_vanishes(self):
        o0, _, _, _ = build_o_operators(2, 2)
        np.testing.assert_array_equal(o0, np.zeros((4, 4)))

    def test_qubit_pair_oz(self):
        _, _, _, oz = build_o_operators(2, 2)
        np.testing.assert_array_equal(oz, kron(PAULI_Z, PAULI_Z))

    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (3, 3), (3, 4), (4, 3)])
    def test_matches_blockwise_assembly(self, d_a, d_b):
        expected = o_operators_blockwise(d_a, d_b)
        for built, oracle in zip(build_o_operators(d_a, d_b), expected):
            np.testing.assert_array_equal(built, oracle)

    def test_operator_identities(self):
        # A1 (x) (B1+B2) = 2[cos(theta) Oz + O0];
        # A2 (x) (B1-B2) = 2[sin(theta)cos(phi) Ox + sin(theta)sin(phi) Oy]
        rng = make_rng(24)
        for _ in range(10):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            obs = build_observables(theta, phi, d_a, d_b)
            o0, ox, oy, oz = build_o_operators(d_a, d_b)
            lhs1 = kron(obs.a1, obs.b1 + obs.b2)
            rhs1 = 2 * (math.cos(theta) * oz + o0)
            np.testing.assert_allclose(lhs1, rhs1, atol=1e-12)
            lhs2 = kron(obs.a2, obs.b1 - obs.b2)
            rhs2 = 2 * (
                math.sin(theta) * math.cos(phi) * ox + math.sin(theta) * math.sin(phi) * oy
            )
            np.testing.assert_allclose(lhs2, rhs2, atol=1e-12)


class TestOExpectations:
    def test_bell_reordered(self):
        s, rho = bell_system()
        anchor = find_anchor_entries(rho, s)[0]
        rho_r = reorder_basis(anchor, s).apply(rho)
        exp = o_expectations(rho_r, 2, 2)
        assert exp.o0 == pytest.approx(0.0, abs=1e-15)
        assert exp.oz == pytest.approx(1.0, abs=1e-15)
        assert exp.ox == pytest.approx(1.0, abs=1e-15)
        assert exp.oy == pytest.approx(0.0, abs=1e-15)

    def test_higgs_reordered_entry_sums(self):
        # PSD by construction: pure shell state mixed with the shell identity
        c = np.array([0.6, 0.64 + 0.28j, 0.38])
        c /= np.linalg.norm(c)
        core = 0.85 * np.outer(c, c.conj()) + 0.15 * np.eye(3) / 3
        params = HiggsZZParams(
            a11=core[0, 0].real, a22=core[1, 1].real, a33=core[2, 2].real,
            a12=complex(core[0, 1]), a13=complex(core[0, 2]), a23=complex(core[1, 2]),
        )
        a12 = params.a12
        rho, s = rho_from_params(params)
        anchor = next(
            a for a in find_anchor_entries(rho, s) if (a.m0, a.p0, a.n0, a.q0) == (0, 2, 1, 1)
        )
        rho_r = reorder_basis(anchor, s).apply(rho)
        exp = o_expectations(rho_r, 3, 3)
        assert exp.oz == pytest.approx(params.a11 + params.a22, abs=1e-15)
        assert exp.ox == pytest.approx(2 * a12.real, abs=1e-15)
        assert exp.oy == pytest.approx(-2 * a12.imag, abs=1e-15)
        assert exp.o0 == pytest.approx(1 - params.a11 - params.a22, abs=1e-15)

    def test_diagonal_state_has_no_transverse_part(self):
        rho, s = diagonal_higgs()
        exp = o_expectations(rho.matrix, 3, 3)
        assert exp.ox == 0.0 and exp.oy == 0.0

    def test_matches_operator_traces(self):
        rng = make_rng(25)
        for _ in range(20):
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            mat = random_hermitian_unit_trace(rng, d_a * d_b)
            exp = o_expectations(mat, d_a, d_b)
            operators = build_o_operators(d_a, d_b)
            direct = [float(np.trace(mat @ op).real) for op in operators]
            assert exp.o0 == pytest.approx(direct[0], abs=1e-12)
            assert exp.ox == pytest.approx(direct[1], abs=1e-12)
            assert exp.oy == pytest.approx(direct[2], abs=1e-12)
            assert exp.oz == pytest.approx(direct[3], abs=1e-12)

    @pytest.mark.parametrize("d_a,d_b", [(1, 1), (1, 3), (3, 1)])
    def test_a_party_of_dimension_one_rejected(self, d_a, d_b):
        mat = np.eye(d_a * d_b, dtype=complex) / (d_a * d_b)
        with pytest.raises(ValueError, match="^both parties need dimension at least 2$"):
            o_expectations(mat, d_a, d_b)

    def test_same_bits_as_the_entry_sums_of_the_identity_order(self):
        # the sums over the unreordered matrix, spelled out: o_expectations
        # reads the same entries through identity basis orders
        rng = make_rng(26)
        for _ in range(200):
            d_a, d_b = (int(d) for d in rng.integers(2, 7, size=2))
            mat = random_hermitian_unit_trace(rng, d_a * d_b)
            tensor = mat.reshape(d_a, d_b, d_a, d_b)
            diag = np.einsum("ijij->ij", tensor).real
            oz = float((diag[0, 0] - diag[0, 1]) + (diag[1, 1] - diag[1, 0]) + np.sum(diag[2:, 0] - diag[2:, 1]))
            cross = tensor[0, 0, 1, 1] + tensor[1, 0, 0, 1] + np.sum(tensor[2:, 0, 2:, 1].diagonal())
            exp = o_expectations(mat, d_a, d_b)
            assert (exp.ox, exp.oy, exp.oz) == (float(2.0 * cross.real), float(-2.0 * cross.imag), oz)


class TestFValue:
    def test_theta_zero_reduces_to_longitudinal_part(self):
        rng = make_rng(26)
        for _ in range(10):
            d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            mat = random_hermitian_unit_trace(rng, d_a * d_b)
            obs = build_observables(0.0, 0.0, d_a, d_b)
            exp = o_expectations(mat, d_a, d_b)
            assert f_value(mat, obs) == pytest.approx(2 * (exp.o0 + exp.oz), abs=1e-12)

    def test_bell_at_optimal_angles(self):
        s, rho = bell_system()
        anchor = find_anchor_entries(rho, s)[0]
        rho_r = reorder_basis(anchor, s).apply(rho)
        obs = build_observables(math.pi / 4, 0.0, 2, 2)
        assert f_value(rho_r, obs) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_product_state_respects_classical_bound(self):
        s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 1.0
        rng = make_rng(27)
        for _ in range(50):
            obs = build_observables(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), 2, 2)
            assert f_value(mat, obs) <= 2.0 + 1e-9

    def test_angle_decomposition_identity(self):
        rng = make_rng(28)
        for _ in range(20):
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            mat = random_hermitian_unit_trace(rng, d_a * d_b)
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            obs = build_observables(theta, phi, d_a, d_b)
            exp = o_expectations(mat, d_a, d_b)
            decomposed = 2 * (
                exp.o0
                + math.sin(theta) * math.cos(phi) * exp.ox
                + math.sin(theta) * math.sin(phi) * exp.oy
                + math.cos(theta) * exp.oz
            )
            assert f_value(mat, obs) == pytest.approx(decomposed, abs=1e-12)

    def test_trace_is_real(self):
        rng = make_rng(29)
        for _ in range(10):
            s, rho, _ = random_anchored_system(rng)
            obs = build_observables(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), s.d_a, s.d_b)
            chsh_op = kron(obs.a1, obs.b1 + obs.b2) + kron(obs.a2, obs.b1 - obs.b2)
            raw = np.trace(rho.matrix @ chsh_op)
            assert abs(raw.imag) <= 1e-12

    def test_dimension_mismatch(self):
        obs = build_observables(0.1, 0.2, 2, 2)
        with pytest.raises(ValueError, match="mismatch"):
            f_value(np.eye(6) / 6, obs)


class TestFMaxClosedForm:
    def test_bell_saturates_tsirelson(self):
        s, rho = bell_system()
        anchor = find_anchor_entries(rho, s)[0]
        cert = f_max_closed_form(rho, anchor, s)
        assert cert.f_max == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert cert.theta_opt == pytest.approx(math.pi / 4, abs=1e-12)
        assert cert.phi_opt == pytest.approx(0.0, abs=1e-12)

    def test_higgs_table_value(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        anchor = next(
            a for a in find_anchor_entries(rho, s) if (a.m0, a.p0, a.n0, a.q0) == (0, 2, 1, 1)
        )
        cert = f_max_closed_form(rho, anchor, s)
        assert round(cert.f_max, 2) == 2.47

    def test_zero_anchor_gives_classical_bound(self):
        rho, s = diagonal_higgs()
        anchor = AnchorEntry(m0=0, p0=2, n0=1, q0=1, value=0j)
        cert = f_max_closed_form(rho, anchor, s)
        assert cert.f_max == pytest.approx(2.0, abs=1e-14)

    def test_invalid_anchor_rejected(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        with pytest.raises(ValueError, match="shell"):
            f_max_closed_form(rho, AnchorEntry(0, 0, 1, 1, 0.1 + 0j), s)
        with pytest.raises(ValueError, match="crossed"):
            f_max_closed_form(rho, AnchorEntry(0, 2, 0, 2, 0.1 + 0j), s)

    def test_angles_are_those_of_the_reordered_matrix(self):
        # f_max_closed_form reads the entries behind <Ox>, <Oy>, <Oz> in place;
        # the angles must be, to the bit, those o_expectations gives on the
        # reordered copy (on a 5|5 chain cut numpy's pairwise sum over the 30
        # other Alice indices differs from a plain loop for about 1 anchor in 4)
        rng = make_rng(41)
        chain = tuple(float(sum(0.5 - (k >> i & 1) for i in range(5))) for k in range(32))
        systems = [random_anchored_system(rng)[:2] for _ in range(30)]
        s = AdditiveStructure(chain, chain, 0.0)
        systems.append((s, random_shell_state(rng, s)))
        for s, rho in systems:
            for anchor in find_anchor_entries(rho, s)[::10]:
                cert = f_max_closed_form(rho, anchor, s)
                exp = o_expectations(cert.reorder.apply(rho), s.d_a, s.d_b)
                norm = math.sqrt(exp.ox**2 + exp.oy**2 + exp.oz**2)
                assert cert.theta_opt == math.acos(min(1.0, max(-1.0, exp.oz / norm))) + 0.0
                assert cert.phi_opt == math.atan2(exp.oy, exp.ox) + 0.0

    def test_attained_at_reported_angles(self):
        rng = make_rng(30)
        for _ in range(25):
            s, rho, anchors = random_anchored_system(rng)
            for anchor in anchors:
                cert = f_max_closed_form(rho, anchor, s)
                rho_r = cert.reorder.apply(rho)
                obs = build_observables(cert.theta_opt, cert.phi_opt, s.d_a, s.d_b)
                assert f_value(rho_r, obs) == pytest.approx(cert.f_max, abs=1e-10)

    def test_tsirelson_bound_never_exceeded(self):
        rng = make_rng(31)
        for _ in range(40):
            s, rho, anchors = random_anchored_system(rng)
            for anchor in anchors:
                cert = f_max_closed_form(rho, anchor, s)
                assert 2.0 <= cert.f_max <= TSIRELSON_BOUND + 1e-9

    def test_anchor_entry_simplifications(self):
        # on anchored texture states the transverse expectations reduce to
        # the anchor entry and the longitudinal pair sums to the full trace
        rng = make_rng(32)
        for _ in range(25):
            s, rho, anchors = random_anchored_system(rng)
            for anchor in anchors:
                rho_r = reorder_basis(anchor, s).apply(rho)
                exp = o_expectations(rho_r, s.d_a, s.d_b)
                assert exp.ox**2 + exp.oy**2 == pytest.approx(
                    4 * abs(anchor.value) ** 2, abs=1e-12
                )
                assert exp.o0 + exp.oz == pytest.approx(1.0, abs=1e-9)
                assert exp.o0 >= -1e-12

    def test_alignment_azimuth_beats_arccos_recipe(self):
        # alternative azimuth recipe sgn(Im a) * arccos(Re a / (2|a|)) never
        # does better than aligning with the expectation vector
        rng = make_rng(33)
        for _ in range(20):
            s, rho, anchors = random_anchored_system(rng)
            anchor = anchors[0]
            cert = f_max_closed_form(rho, anchor, s)
            rho_r = cert.reorder.apply(rho)
            a = anchor.value
            sgn = (a.imag > 0) - (a.imag < 0)
            phi_alt = sgn * math.acos(min(1.0, max(-1.0, a.real / (2 * abs(a)))))
            f_alt = f_value(rho_r, build_observables(cert.theta_opt, phi_alt, s.d_a, s.d_b))
            assert f_alt <= cert.f_max + 1e-12


class TestGridVerify:
    def test_internal_evaluator_matches_f_value(self):
        # random dims, d_a = 2 (Alice has no rest), d_b = 2 (Bob has no
        # tail), a Hermitian matrix off the texture (the oracle assumes
        # none), and the 5|5 chain (d_b = 32), whose f_value is slow
        rng = make_rng(34)
        systems = []
        for d_a, d_b in ((None, None), (2, 5), (4, 2)):
            s, rho, anchors = random_anchored_system(rng, d_a=d_a, d_b=d_b)
            systems.append((s, rho.matrix, anchors[0], 40))
        s, _, anchors = random_anchored_system(rng)
        systems.append((s, random_hermitian_unit_trace(rng, s.dim), anchors[0], 40))
        chain = chain_structure(5)
        rho = random_shell_state(rng, chain, rank=4)
        systems.append((chain, rho.matrix, find_anchor_entries(rho, chain)[0], 3))
        for s, mat, anchor, points in systems:
            reorder = reorder_basis(anchor, s)
            rho_r = reorder.apply(mat)
            corners, tails = _alice_contractions(mat, reorder)
            thetas = rng.uniform(0, math.pi, size=points)
            phis = rng.uniform(-math.pi, math.pi, size=points)
            batched = _f_points(corners, tails, thetas, phis)
            for k in range(points):
                obs = build_observables(thetas[k], phis[k], s.d_a, s.d_b)
                assert batched[k] == pytest.approx(f_value(rho_r, obs), abs=1e-12)

    def test_bell_dense_grid(self):
        s, rho = bell_system()
        anchor = find_anchor_entries(rho, s)[0]
        value = grid_verify(rho, anchor, s, 2000, 2000, refine_levels=0)
        assert value == pytest.approx(2 * math.sqrt(2), abs=5e-6)
        assert value <= 2 * math.sqrt(2) + 1e-9

    def test_higgs_grid_agrees_with_closed_form(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        cert = certify_nonlocality(rho, s)
        value = grid_verify(rho, cert.anchor, s, 256, 512)
        assert value == pytest.approx(cert.f_max, abs=1e-4)
        assert value <= cert.f_max + 1e-9

    def test_diagonal_state_stays_classical(self):
        rho, s = diagonal_higgs()
        anchor = AnchorEntry(m0=0, p0=2, n0=1, q0=1, value=0j)
        assert grid_verify(rho, anchor, s, 64, 128) <= 2.0 + 1e-9

    def test_refinement_tightens_the_gap(self):
        rng = make_rng(35)
        s, rho, anchors = random_anchored_system(rng)
        cert = f_max_closed_form(rho, anchors[0], s)
        coarse = grid_verify(rho, anchors[0], s, 48, 96, refine_levels=0)
        refined = grid_verify(rho, anchors[0], s, 48, 96, refine_levels=3)
        assert coarse <= refined <= cert.f_max + 1e-9
        assert cert.f_max - refined <= 1e-4

    def test_unrefined_gap_shrinks_at_least_linearly(self):
        rng = make_rng(36)
        for _ in range(5):
            s, rho, anchors = random_anchored_system(rng)
            cert = f_max_closed_form(rho, anchors[0], s)
            for n in (32, 64, 128):
                value = grid_verify(rho, anchors[0], s, n, n, refine_levels=0)
                assert value <= cert.f_max + 1e-9
                assert cert.f_max - value <= 10.0 / n

    def test_chunks_within_a_row_give_the_same_maximum(self):
        rng = make_rng(37)
        s, rho, anchors = random_anchored_system(rng)
        corners, tails = _alice_contractions(rho.matrix, reorder_basis(anchors[0], s))
        thetas = np.linspace(0.0, math.pi, 9)
        phis = np.linspace(-math.pi, math.pi, 13)
        whole = _grid_max(corners, tails, thetas, phis)
        for chunk in (1, 5, 13, 40):
            assert _grid_max(corners, tails, thetas, phis, chunk=chunk) == whole

    def test_ties_keep_the_first_point(self):
        # a state with only a Bob-tail trace scores the same at every point
        corners, tails = np.zeros((2, 2, 2), complex), np.array([0.5, 0.25 + 0j])
        thetas = np.linspace(0.0, math.pi, 9)
        phis = np.linspace(-math.pi, math.pi, 13)
        for chunk in (1, 5, 13, 40, 1 << 16):
            assert _grid_max(corners, tails, thetas, phis, chunk=chunk) == (0.75, 0.0, -math.pi)

    def test_chain_grid_memory_is_capped(self):
        # spin-1/2 chain 5|5 at J = 0 (d_b = 32), default 1024 x 2048 grid:
        # each point is scored from two 2x2 corners and two tail traces, so
        # the peak is a chunk's few arrays of 65,536 numbers (about 8 MiB),
        # whatever d_b is; no copy of the 16 MiB state is made
        s = chain_structure(5)
        rho = random_shell_state(make_rng(38), s, rank=4)
        anchor = find_anchor_entries(rho, s)[0]
        tracemalloc.start()
        try:
            grid_verify(rho, anchor, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_grid_shape_validation(self):
        s, rho = bell_system()
        anchor = find_anchor_entries(rho, s)[0]
        with pytest.raises(ValueError, match="grid"):
            grid_verify(rho, anchor, s, 1, 10)


class TestCertifyNonlocality:
    def test_higgs_violation(self):
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        cert = certify_nonlocality(rho, s)
        assert cert is not None
        assert cert.f_max > 2.0
        assert (cert.anchor.m0, cert.anchor.p0) == (0, 2)

    def test_diagonal_state_none(self):
        rho, s = diagonal_higgs()
        assert certify_nonlocality(rho, s) is None

    def test_largest_anchor_wins(self):
        # equal diagonals, two anchors of different magnitude
        params = HiggsZZParams(
            a11=1 / 3, a22=1 / 3, a33=1 / 3,
            a12=complex(0.25), a13=complex(0.10), a23=0j,
        )
        rho, s = rho_from_params(params)
        cert = certify_nonlocality(rho, s)
        assert abs(cert.anchor.value) == pytest.approx(0.25)
        for anchor in find_anchor_entries(rho, s):
            other = f_max_closed_form(rho, anchor, s)
            assert other.f_max <= cert.f_max + 1e-15

    def test_one_closed_form_per_anchor(self, monkeypatch):
        # the pick's certificate takes the pick's own score: no second
        # closed form, and no pass through the checking public entry point
        rho, s = rho_from_params(params_from_measured(-0.33, 0.20))
        n_anchors = len(find_anchor_entries(rho, s))
        assert n_anchors > 1
        calls = {"_closed_form_f_max": 0, "f_max_closed_form": 0}

        def counted(name):
            inner = getattr(chsh, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(chsh, name, counted(name))
        assert certify_nonlocality(rho, s).f_max > 2.0
        assert calls == {"_closed_form_f_max": n_anchors, "f_max_closed_form": 0}
