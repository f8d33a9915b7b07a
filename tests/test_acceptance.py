"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
verbose test listing) and enforces its runtime budget. The randomized
corpora are seeded from ADDOBS_CERTIFY_SEED (default 42).
"""

from __future__ import annotations

import math
import time

import numpy as np

from addobs_certify.chsh import (
    TSIRELSON_BOUND,
    build_o_operators,
    build_observables,
    f_max_closed_form,
    f_value,
    find_anchor_entries,
    grid_verify,
    o_expectations,
    reorder_basis,
)
from addobs_certify.entanglement import VerdictStatus, certify, find_crossed_entries
from addobs_certify.higgs_zz import (
    Measurement,
    f12_from_measured,
    f13_from_measured,
    reproduce_tables,
    significance,
)
from addobs_certify.structure import min_pt_eigenvalue

from helpers import (
    bell_system,
    make_rng,
    o_operators_blockwise,
    random_anchored_system,
    random_crossed_system,
    random_product_mixture,
    random_shell_state,
    random_type1_structure,
)


def _report(number: int, message: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS ({message}; {elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    report = reproduce_tables()
    f_checks = report.checks("F")
    assert len(f_checks) == 16
    for check in f_checks:
        assert abs(check.computed - check.printed) <= 0.02, check
    assert abs(f12_from_measured(0.33, 0.20) - 2.47) <= 0.01
    assert abs(f13_from_measured(0.20) - 2.33) <= 0.01
    _report(1, "16 F values within 0.02 of print", started, 1.0)


def test_criterion_2_significance_reproduction():
    started = time.perf_counter()
    report = reproduce_tables()
    sig_checks = report.checks("sig")
    assert len(sig_checks) == 16
    for check in sig_checks:
        assert check.passed, check
    assert round(significance(Measurement(0.20, 0.12)), 1) == 1.7
    _report(2, "16 significances inside rounding intervals", started, 1.0)


def test_criterion_3_closed_form_vs_grid_oracle():
    started = time.perf_counter()
    rng = make_rng(100)
    checked = 0
    worst_gap = 0.0
    while checked < 200:
        s, rho, anchors = random_anchored_system(rng)
        if s.d_a > 4 or s.d_b > 5:
            continue
        anchor = anchors[int(rng.integers(len(anchors)))]
        cert = f_max_closed_form(rho, anchor, s)
        refined = grid_verify(rho, anchor, s, 96, 192, refine_levels=3)
        gap = abs(cert.f_max - refined)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-4
        rho_r = cert.reorder.apply(rho)
        obs = build_observables(cert.theta_opt, cert.phi_opt, s.d_a, s.d_b)
        assert abs(f_value(rho_r, obs) - cert.f_max) <= 1e-10
        checked += 1
    _report(3, f"200 anchored states, worst gap {worst_gap:.2e}", started, 60.0)


def test_criterion_4_crossed_entries_force_negative_pt():
    started = time.perf_counter()
    rng = make_rng(101)
    for _ in range(500):
        s, rho = random_crossed_system(rng)
        assert find_crossed_entries(rho, s)
        assert min_pt_eigenvalue(rho, s) < -1e-12
    _report(4, "500 crossed states, PT spectrum dips negative", started, 30.0)


def test_criterion_5_type1_iff_certification():
    started = time.perf_counter()
    rng = make_rng(102)
    entangled = separable = 0
    for i in range(120):
        s = random_type1_structure(rng, qubit_qudit=(i % 2 == 0))
        rho = random_shell_state(rng, s)
        has_crossed = bool(find_crossed_entries(rho, s, tol=1e-12))
        verdict = certify(rho, s, tol=1e-12)
        if has_crossed:
            assert verdict.status is VerdictStatus.ENTANGLED_CERTIFIED
            entangled += 1
        else:
            assert verdict.status is VerdictStatus.SEPARABLE_CERTIFIED
            separable += 1
    false_positives = 0
    for i in range(120):
        s = random_type1_structure(rng, qubit_qudit=(i % 2 == 0))
        rho = random_product_mixture(rng, s)
        verdict = certify(rho, s)
        if verdict.status is not VerdictStatus.SEPARABLE_CERTIFIED:
            false_positives += 1
    assert false_positives == 0
    _report(
        5,
        f"{entangled} entangled / {separable} separable by crossed entries, "
        "0 false positives on 120 product mixtures",
        started,
        30.0,
    )


def test_criterion_6_bell_and_tsirelson():
    started = time.perf_counter()
    s, rho = bell_system()
    anchor = find_anchor_entries(rho, s)[0]
    cert = f_max_closed_form(rho, anchor, s)
    assert abs(cert.f_max - 2.0 * math.sqrt(2.0)) <= 1e-12
    rng = make_rng(103)
    for _ in range(100):
        sys_s, sys_rho, anchors = random_anchored_system(rng)
        for a in anchors:
            assert f_max_closed_form(sys_rho, a, sys_s).f_max <= TSIRELSON_BOUND + 1e-9
    _report(6, "Bell saturates 2*sqrt(2); corpus below Tsirelson", started, 5.0)


def test_criterion_7_o_operator_identities():
    started = time.perf_counter()
    for d_a, d_b in ((2, 2), (3, 3), (3, 4), (4, 3)):
        built = build_o_operators(d_a, d_b)
        oracle = o_operators_blockwise(d_a, d_b)
        for lhs, rhs in zip(built, oracle):
            np.testing.assert_array_equal(lhs, rhs)
    rng = make_rng(104)
    for _ in range(50):
        s, rho, anchors = random_anchored_system(rng)
        rho_r = reorder_basis(anchors[0], s).apply(rho)
        exp = o_expectations(rho_r, s.d_a, s.d_b)
        for value, op in zip(
            (exp.o0, exp.ox, exp.oy, exp.oz), build_o_operators(s.d_a, s.d_b)
        ):
            assert abs(value - np.trace(rho_r @ op).real) <= 1e-12
    _report(7, "operator blocks exact; entry sums match traces", started, 10.0)


def test_criterion_8_anchor_simplifications():
    started = time.perf_counter()
    rng = make_rng(105)
    for _ in range(100):
        s, rho, anchors = random_anchored_system(rng)
        for anchor in anchors:
            rho_r = reorder_basis(anchor, s).apply(rho)
            exp = o_expectations(rho_r, s.d_a, s.d_b)
            assert abs(exp.ox**2 + exp.oy**2 - 4.0 * abs(anchor.value) ** 2) <= 1e-12
            assert abs(exp.o0 + exp.oz - 1.0) <= 1e-9
    _report(8, "transverse part equals anchor; longitudinal pair sums to 1", started, 10.0)
