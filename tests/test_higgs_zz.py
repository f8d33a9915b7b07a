"""Tests for the H -> ZZ texture, closed-form F values and table reproduction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from addobs_certify.chsh import f_max_closed_form, find_anchor_entries
from addobs_certify.entanglement import VerdictStatus, certify
from addobs_certify.higgs_zz import (
    HIGGS_STRUCTURE,
    SQRT2,
    HiggsCoefficients,
    HiggsZZParams,
    Measurement,
    TABLES,
    f12,
    f12_from_measured,
    f13,
    f13_from_measured,
    params_from_coefficients,
    params_from_measured,
    reproduce_tables,
    rho_from_params,
    significance,
)
from addobs_certify.structure import EPS_PSD

from helpers import make_rng


class TestParams:
    def test_diagonal_thirds_is_valid(self):
        params = HiggsZZParams(1 / 3, 1 / 3, 1 / 3, 0j, 0j, 0j)
        rho, s = rho_from_params(params)
        assert s is HIGGS_STRUCTURE
        assert np.trace(rho.matrix) == pytest.approx(1.0)
        assert certify(rho, s).status is VerdictStatus.SEPARABLE_CERTIFIED

    def test_pure_like_texture_is_entangled(self):
        params = HiggsZZParams(
            1 / 3, 1 / 3, 1 / 3,
            a12=complex(-1 / 3), a13=complex(1 / 3), a23=complex(-1 / 3),
        )
        rho, s = rho_from_params(params)
        assert certify(rho, s).status is VerdictStatus.ENTANGLED_CERTIFIED

    def test_trace_violation_rejected(self):
        with pytest.raises(ValueError, match="sums"):
            HiggsZZParams(0.5, 0.5, 0.5, 0j, 0j, 0j)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="non-PSD"):
            HiggsZZParams(0.0, 1.0, 0.0, complex(0.9), 0j, 0j)

    @pytest.mark.parametrize("a12", [0.2, 1 / 3, 1 / 3 + 2e-9, 0.5, 0.9])
    def test_psd_decision_and_message_follow_the_eigensolve(self, a12):
        # the core's eigenvalues are 1/3 and 1/3 -+ a12: the Cholesky gate
        # accepts and rejects as the eigensolve does, with the same message
        entries = (1 / 3, 1 / 3, 1 / 3, complex(a12), 0j, 0j)
        core = np.array([[1 / 3, a12, 0], [a12, 1 / 3, 0], [0, 0, 1 / 3]], dtype=complex)
        min_eig = float(np.linalg.eigvalsh(core)[0])
        if min_eig >= -EPS_PSD:
            HiggsZZParams(*entries)
            return
        with pytest.raises(ValueError) as info:
            HiggsZZParams(*entries)
        assert str(info.value) == f"parameters give a non-PSD matrix: min eigenvalue {min_eig:.3e}"

    @pytest.mark.parametrize(
        "entries",
        [
            (1 / 3, 1 / 3, 1 / 3, complex(math.nan), 0j, 0j),
            (1 / 3, 1 / 3, 1 / 3, 0j, complex(0.0, math.inf), 0j),
            (math.inf, -math.inf, 1.0, 0j, 0j, 0j),  # a NaN diagonal sum passes the trace test
            (1 / 3, math.nan, 1 / 3, 0j, 0j, 0j),
        ],
    )
    def test_non_finite_entries_rejected(self, entries):
        with pytest.raises(ValueError, match="finite"):
            HiggsZZParams(*entries)

    def test_entries_placed_on_shell(self):
        params = params_from_measured(-0.33, 0.20)
        rho, _ = rho_from_params(params)
        mat = rho.matrix
        assert mat[2, 2] == params.a11
        assert mat[4, 4] == params.a22
        assert mat[6, 6] == params.a33
        assert mat[2, 4] == params.a12
        assert mat[2, 6] == params.a13
        assert mat[4, 6] == params.a23
        # nothing outside the 3x3 shell core
        off = mat.copy()
        off[np.ix_((2, 4, 6), (2, 4, 6))] = 0
        assert np.count_nonzero(off) == 0


class TestCoefficients:
    def test_all_zero_coefficients(self):
        params = params_from_coefficients(HiggsCoefficients(0.0, 0.0, 0.0))
        assert params.a11 == pytest.approx(1 / 3)
        assert params.a22 == pytest.approx(1 / 3)
        assert params.a33 == pytest.approx(1 / 3)
        assert params.a12 == 0 and params.a13 == 0 and params.a23 == 0

    def test_parity_with_zero_alignment(self):
        coeffs = HiggsCoefficients.with_parity(0.0, 0.0)
        assert coeffs.c_22_2m2 == pytest.approx(1.0)
        params = params_from_coefficients(coeffs)
        assert params.a13 == pytest.approx(1 / 3)
        assert params.a11 == pytest.approx(params.a13)

    def test_parity_inversion_hits_target_a13(self):
        # choose the alignment coefficient so that a13 = 0.20 under parity
        a1_20 = SQRT2 * (3 * 0.20 - 1)
        params = params_from_coefficients(HiggsCoefficients.with_parity(a1_20, 0.0))
        assert params.a13 == pytest.approx(0.20)
        assert params.a11 == pytest.approx(0.20)
        assert params.a22 == pytest.approx(0.60)

    def test_parity_flag_validated(self):
        with pytest.raises(ValueError, match="parity"):
            HiggsCoefficients(0.0, 0.0, 0.5, parity_enforced=True)

    def test_symmetry_enforced_from_coefficients(self):
        params = params_from_coefficients(HiggsCoefficients(0.1, -0.6, 0.4))
        assert params.a12 == params.a23


class TestFValues:
    def test_table_spot_values(self):
        assert round(f12_from_measured(0.33, 0.20), 2) == 2.47
        assert round(f13_from_measured(0.20), 2) == 2.33
        assert round(f13_from_measured(0.25), 2) == 2.41

    def test_zero_coupling_gives_classical_bound(self):
        params = HiggsZZParams(0.2, 0.6, 0.2, 0j, complex(0.2), 0j)
        assert f12(params) == pytest.approx(2.0)

    def test_params_route_matches_measured_route(self):
        params = params_from_measured(-0.33, 0.20)
        assert f12(params) == pytest.approx(f12_from_measured(0.33, 0.20), abs=1e-12)
        assert f13(params) == pytest.approx(f13_from_measured(0.20), abs=1e-12)

    def test_parity_identity(self):
        # general expression vs the parity-reduced one, across the physical range
        for mag13 in (0.05, 0.1, 0.2, 0.3):
            for mag12 in (0.0, 0.1, 0.25, 0.33):
                try:
                    params = params_from_measured(-mag12, mag13)
                except ValueError:
                    continue  # outside the PSD region
                reduced = 2 * (math.hypot(2 * mag12, 1 - mag13) + mag13)
                assert f12(params) == pytest.approx(reduced, abs=1e-12)
                assert f13(params) == pytest.approx(
                    2 + 4 * mag13 * (SQRT2 - 1), abs=1e-12
                )

    def test_f13_excess_is_linear_in_a13(self):
        for mag in (0.0, 0.07, 0.19, 0.31):
            assert f13_from_measured(mag) - 2.0 == pytest.approx(
                4 * (SQRT2 - 1) * mag, abs=1e-15
            )

    def test_bridge_to_chsh_certificates(self):
        rng = make_rng(40)
        for _ in range(10):
            mag12 = rng.uniform(0.05, 0.3)
            mag13 = rng.uniform(0.05, 0.3)
            try:
                params = params_from_measured(-mag12, mag13)
            except ValueError:
                continue
            rho, s = rho_from_params(params)
            anchors = {(a.m0, a.p0, a.n0, a.q0): a for a in find_anchor_entries(rho, s)}
            cert12 = f_max_closed_form(rho, anchors[(0, 2, 1, 1)], s)
            assert cert12.f_max == pytest.approx(f12(params), abs=1e-10)
            cert13 = f_max_closed_form(rho, anchors[(0, 2, 2, 0)], s)
            assert cert13.f_max == pytest.approx(f13(params), abs=1e-10)

    def test_any_nonzero_off_diagonal_certifies_entanglement(self):
        rng = make_rng(41)
        for _ in range(10):
            mag12 = rng.uniform(0.02, 0.3)
            mag13 = rng.uniform(0.02, 0.3)
            try:
                params = params_from_measured(-mag12, mag13)
            except ValueError:
                continue
            rho, s = rho_from_params(params)
            assert certify(rho, s).status is VerdictStatus.ENTANGLED_CERTIFIED


class TestSignificance:
    def test_table_value(self):
        assert round(significance(Measurement(0.20, 0.12)), 1) == 1.7

    def test_zero_central(self):
        assert significance(Measurement(0.0, 0.5)) == 0.0

    def test_rounded_inputs_vs_printed(self):
        # printed 5.3 sigma is reachable only inside the rounding interval
        assert significance(Measurement(0.25, 0.05)) == pytest.approx(5.0)
        lo = (0.25 - 0.005) / (0.05 + 0.005)
        hi = (0.25 + 0.005) / (0.05 - 0.005)
        assert lo <= 5.3 <= hi

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            Measurement(0.1, 0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -math.inf])
    def test_sigma_must_be_finite(self, sigma):
        # an infinite sigma would give significance 0.0
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            Measurement(0.1, sigma)

    @pytest.mark.parametrize("central", [math.inf, -math.inf, math.nan])
    def test_central_must_be_finite(self, central):
        with pytest.raises(ValueError, match="central value must be finite"):
            Measurement(central, 0.1)


class TestReproduceTables:
    def test_dataset_shape(self):
        assert len(TABLES) == 2
        assert all(len(table.columns) == 4 for table in TABLES)

    def test_all_checks_pass(self):
        report = reproduce_tables()
        assert len(report.columns) == 8
        assert len(report.checks()) == 32
        assert report.all_pass

    def test_spot_columns(self):
        report = reproduce_tables()
        by_key = {(c.table_label, c.cut_gev): c for c in report.columns}

        col = by_key[("L = 300 fb^-1", 0)]
        checks = {c.name: c for c in col.checks}
        assert round(checks["F12"].computed, 2) == 2.47
        assert round(checks["F13"].computed, 2) == 2.33

        col20 = by_key[("L = 300 fb^-1", 20)]
        checks20 = {c.name: c for c in col20.checks}
        assert round(checks20["F12"].computed, 2) == 2.55

        col_hl = by_key[("L = 3 ab^-1", 0)]
        checks_hl = {c.name: c for c in col_hl.checks}
        assert round(checks_hl["F13"].computed, 2) == 2.33
        assert checks_hl["sig13"].computed == pytest.approx(0.20 / 0.04)
        assert checks_hl["sig13"].printed == 5.0

    def test_f_values_within_printed_tolerance(self):
        report = reproduce_tables()
        for check in report.checks("F"):
            assert abs(check.computed - check.printed) <= 0.02

    def test_intervals_contain_central_values(self):
        report = reproduce_tables()
        for check in report.checks():
            lo, hi = check.interval
            assert lo <= check.computed <= hi
