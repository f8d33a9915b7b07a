"""Spin density matrix of H -> ZZ and its CHSH phenomenology.

The two Z bosons inherit a vanishing total spin projection along the decay
axis, so the 9x9 two-qutrit density matrix in the J_z product basis
span{|1>, |0>, |-1>} (x) span{|1>, |0>, |-1>} carries a 3x3 core of
parameters a_ij on the J_z = 0 shell and zeros everywhere else. Every
off-diagonal a_ij is simultaneously a crossed entry and an anchor entry,
so a single nonzero off-diagonal certifies both entanglement and a CHSH
violation, with closed-form maxima

    F_12 = F_23 = 2 * [1 + sqrt(4*|a12|^2 + (a11+a22)^2) - (a11+a22)],
    F_13        = 2 * [1 + sqrt(4*|a13|^2 + (a11+a33)^2) - (a11+a33)].

Under parity conservation a11 = a33 = a13, which reduces these to functions
of the two measurable magnitudes |a12| and |a13|. The module also embeds
the published pseudoexperiment results (two luminosities, four mass cuts)
and reproduces the corresponding F values and significances, judging
agreement through the interval of outputs reachable when every two-decimal
input varies within its rounding width.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .chsh import _f_max
from .structure import AdditiveStructure, DensityMatrix

SQRT2 = math.sqrt(2.0)

#: J_z labels of the Z spin basis, identical for both bosons.
HIGGS_LABELS = (1.0, 0.0, -1.0)
HIGGS_STRUCTURE = AdditiveStructure(HIGGS_LABELS, HIGGS_LABELS, 0.0)

#: Half-width of the rounding interval of a two-decimal printed input.
INPUT_ROUNDING = 0.005


@dataclass(frozen=True)
class HiggsZZParams:
    """Entries of the 3x3 core of the constrained ZZ density matrix.

    The parameters are physical exactly when the core is a density matrix,
    so construction validates it as a ``DensityMatrix`` at the default
    tolerances: finite, Hermitian (a complex diagonal entry is not), unit
    trace and positive semi-definite, else ``StateValidationError``.
    ``a12 == a23`` is not enforced here: it is a physics consequence of the
    production mechanism, not a validity condition, and holds automatically
    when built from angular coefficients.
    """

    a11: float
    a22: float
    a33: float
    a12: complex
    a13: complex
    a23: complex

    def __post_init__(self):
        DensityMatrix(self.core())

    def core(self) -> np.ndarray:
        return np.array(
            [
                [self.a11, self.a12, self.a13],
                [np.conj(self.a12), self.a22, self.a23],
                [np.conj(self.a13), np.conj(self.a23), self.a33],
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class HiggsCoefficients:
    """The three angular-expansion coefficients fixing the core entries.

    With ``parity_enforced`` the two-index coefficient is tied to the
    one-index one (c_22 = a1_20 / sqrt(2) + 1), as parity conservation in
    the decay requires.
    """

    a1_20: float
    c_21_2m1: float
    c_22_2m2: float
    parity_enforced: bool = False

    def __post_init__(self):
        if self.parity_enforced:
            expected = self.a1_20 / SQRT2 + 1.0
            if abs(self.c_22_2m2 - expected) > 1e-12:
                raise ValueError(
                    f"parity requires c_22_2m2 == {expected!r}, got {self.c_22_2m2!r}"
                )

    @classmethod
    def with_parity(cls, a1_20: float, c_21_2m1: float) -> "HiggsCoefficients":
        return cls(a1_20, c_21_2m1, a1_20 / SQRT2 + 1.0, parity_enforced=True)


def _parity_params(a11: float, a12: float, a13: float) -> HiggsZZParams:
    """The parity-respecting core: a33 = a11, a23 = a12, unit trace."""
    return HiggsZZParams(a11, 1.0 - 2.0 * a11, a11, complex(a12), complex(a13), complex(a12))


def params_from_coefficients(c: HiggsCoefficients) -> HiggsZZParams:
    """Core entries from the angular coefficients.

    a12 = a23 = c_21/3, a11 = a33 = (a1_20/sqrt(2) + 1)/3, a13 = c_22/3,
    and a22 completes the unit trace.
    """
    return _parity_params((c.a1_20 / SQRT2 + 1.0) / 3.0, c.c_21_2m1 / 3.0, c.c_22_2m2 / 3.0)


def params_from_measured(a12: float, a13: float) -> HiggsZZParams:
    """Parity-respecting core from the two measured central values.

    Parity pins the diagonal to the |a13| magnitude (a11 = a33 = |a13|),
    which is how the published pseudoexperiment columns are interpreted.
    """
    return _parity_params(abs(a13), a12, abs(a13))


def rho_from_params(p: HiggsZZParams) -> tuple[DensityMatrix, AdditiveStructure]:
    """The full 9x9 density matrix with the core placed on the J_z = 0 shell."""
    mat = np.zeros((9, 9), dtype=complex)
    shell = HIGGS_STRUCTURE.shell_flats
    mat[np.ix_(shell, shell)] = p.core()
    return DensityMatrix(mat), HIGGS_STRUCTURE


def f12(p: HiggsZZParams) -> float:
    """Closed-form CHSH maximum anchored on the a12 entry."""
    return _f_max(abs(p.a12), p.a11 + p.a22)


def f13(p: HiggsZZParams) -> float:
    """Closed-form CHSH maximum anchored on the a13 entry."""
    return _f_max(abs(p.a13), p.a11 + p.a33)


def f12_from_measured(abs_a12: float, abs_a13: float) -> float:
    """Parity-reduced F_12 as a function of the measured magnitudes.

    The arithmetic of ``f12(params_from_measured(a12, a13))``, bit for bit,
    without the core's positivity check.
    """
    return _f_max(abs_a12, abs_a13 + (1.0 - 2.0 * abs_a13))


def f13_from_measured(abs_a13: float) -> float:
    """Parity-reduced F_13 = 2 + 4 (sqrt(2) - 1) |a13|.

    The arithmetic of ``f13(params_from_measured(a12, a13))``, bit for bit,
    without the core's positivity check.
    """
    return _f_max(abs_a13, abs_a13 + abs_a13)


@dataclass(frozen=True)
class Measurement:
    """A central value with a symmetric Gaussian uncertainty."""

    central: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.central):
            raise ValueError(f"central value must be finite, got {self.central!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")


def significance(m: Measurement) -> float:
    """Number of standard deviations by which the value differs from zero.

    Because F - 2 is proportional to the anchor magnitude, this is also the
    confidence level at which the CHSH bound is exceeded. Raises
    ``ValueError`` when the quotient overflows (a tiny ``sigma``): it is no
    finite number of standard deviations.
    """
    sig = abs(m.central) / m.sigma
    if not math.isfinite(sig):
        raise ValueError(f"significance |{m.central!r}| / {m.sigma!r} is not finite")
    return sig


# --- published pseudoexperiment dataset (1000 pseudoexperiments per column) ---


@dataclass(frozen=True)
class TableColumn:
    cut_gev: int
    n_events: int
    a12: Measurement
    a13: Measurement
    printed_f12: float
    printed_sig12: float
    printed_f13: float
    printed_sig13: float


@dataclass(frozen=True)
class LuminosityTable:
    label: str
    columns: tuple[TableColumn, ...]


TABLES: tuple[LuminosityTable, ...] = (
    LuminosityTable(
        label="L = 300 fb^-1",
        columns=(
            TableColumn(0, 450, Measurement(-0.33, 0.10), Measurement(0.20, 0.12), 2.47, 3.2, 2.33, 1.7),
            TableColumn(10, 418, Measurement(-0.32, 0.11), Measurement(0.21, 0.13), 2.46, 2.9, 2.35, 1.6),
            TableColumn(20, 312, Measurement(-0.35, 0.13), Measurement(0.25, 0.14), 2.55, 2.7, 2.41, 1.8),
            TableColumn(30, 129, Measurement(-0.35, 0.20), Measurement(0.27, 0.21), 2.57, 1.7, 2.45, 1.3),
        ),
    ),
    LuminosityTable(
        label="L = 3 ab^-1",
        columns=(
            TableColumn(0, 4500, Measurement(-0.32, 0.03), Measurement(0.20, 0.04), 2.44, 9.5, 2.33, 5.0),
            TableColumn(10, 4180, Measurement(-0.33, 0.03), Measurement(0.21, 0.04), 2.49, 10.0, 2.35, 5.3),
            TableColumn(20, 3120, Measurement(-0.35, 0.04), Measurement(0.25, 0.05), 2.54, 8.7, 2.41, 5.3),
            TableColumn(30, 1290, Measurement(-0.35, 0.06), Measurement(0.28, 0.07), 2.56, 5.5, 2.46, 4.2),
        ),
    ),
)


@dataclass(frozen=True)
class ValueCheck:
    """One computed quantity against its printed counterpart.

    ``interval`` is the range of outputs reachable when every input varies
    within its two-decimal rounding width; the check passes when it
    overlaps the printed value's own rounding interval.
    """

    name: str
    computed: float
    interval: tuple[float, float]
    printed: float
    printed_halfwidth: float

    @property
    def passed(self) -> bool:
        lo, hi = self.interval
        return lo <= self.printed + self.printed_halfwidth and self.printed - self.printed_halfwidth <= hi


@dataclass(frozen=True)
class ColumnReport:
    table_label: str
    cut_gev: int
    n_events: int
    a12: Measurement
    a13: Measurement
    checks: tuple[ValueCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class TablesReport:
    columns: tuple[ColumnReport, ...]

    @property
    def all_pass(self) -> bool:
        return all(col.all_pass for col in self.columns)

    def checks(self, name_prefix: str = "") -> list[ValueCheck]:
        return [
            check
            for col in self.columns
            for check in col.checks
            if check.name.startswith(name_prefix)
        ]


def _interval(f, *inputs: tuple[float, float]) -> tuple[float, float]:
    """Least and greatest value of ``f`` over the corners of the rounding box.

    Each ``(c, floor)`` input ranges over [max(c - INPUT_ROUNDING, floor),
    c + INPUT_ROUNDING].
    """
    sides = [(max(c - INPUT_ROUNDING, floor), c + INPUT_ROUNDING) for c, floor in inputs]
    values = [f(*corner) for corner in itertools.product(*sides)]
    return (min(values), max(values))


def reproduce_tables() -> TablesReport:
    """Recompute every published F value and significance and grade them.

    F values are judged at the printed two-decimal resolution and
    significances at one decimal, in both cases against the interval of
    results compatible with the rounded inputs.
    """
    reports = []
    for table in TABLES:
        for col in table.columns:
            c12, c13 = abs(col.a12.central), abs(col.a13.central)
            f12_box = _interval(f12_from_measured, (c12, 0.0), (c13, 0.0))
            f13_box = _interval(f13_from_measured, (c13, 0.0))
            sig12_box = _interval(operator.truediv, (c12, 0.0), (col.a12.sigma, 1e-12))
            sig13_box = _interval(operator.truediv, (c13, 0.0), (col.a13.sigma, 1e-12))
            checks = (
                ValueCheck("F12", f12_from_measured(c12, c13), f12_box, col.printed_f12, 0.005),
                ValueCheck("sig12", significance(col.a12), sig12_box, col.printed_sig12, 0.05),
                ValueCheck("F13", f13_from_measured(c13), f13_box, col.printed_f13, 0.005),
                ValueCheck("sig13", significance(col.a13), sig13_box, col.printed_sig13, 0.05),
            )
            reports.append(
                ColumnReport(table.label, col.cut_gev, col.n_events, col.a12, col.a13, checks)
            )
    return TablesReport(tuple(reports))
