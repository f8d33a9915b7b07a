"""CHSH nonlocality certification built on anchor entries.

An *anchor* is a crossed entry rho[(m0,p0),(n0,q0)] whose column labels
(N0, Q0) are non-degenerate in their respective spectra. Reordering each
party's basis so the anchor spans the leading 2x2 corner, one measures

    A1 = sigma_z (+) 1,   A2 = sigma_x (+) 1,
    B1 = b1.sigma (+) 1,  B2 = b2.sigma (+) 1,

with b1, b2 unit vectors of opposite azimuth (polar angle theta, azimuth
phi). The CHSH score decomposes over four fixed product observables whose
expectations are plain entry sums of the reordered matrix, which yields a
closed-form maximum over the angles:

    max F = 2 * [1 + sqrt(4*|anchor|^2 + <Oz>^2) - <Oz>],

strictly above the classical bound 2 whenever the anchor entry is nonzero.
A grid maximizer over the raw trace expression serves as an independent
numerical cross-check of the closed form. It contracts the state with
Alice's two settings into two Bob operators W1, W2 and scores each angle
pair as Tr(W B) with B = b.sigma (+) 1: each W's 2x2 Bob corner contracted
with b.sigma plus its tail trace. Those corners and traces are read from
rho through the basis orders, so no reordered copy is made, and the grid
costs O(n_theta * n_phi) whatever Bob's dimension. It shares none of the
closed form's expectations and assumes no texture, so a slip in either
shows as a gap between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_X, PAULI_Y, PAULI_Z, kron
from .structure import (
    EPS_ZERO,
    AdditiveStructure,
    _analysis,
    _check_dims,
    _matrix_of,
)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class AnchorEntry:
    """Crossed entry rho[(m0,p0),(n0,q0)] with (N0, Q0) non-degenerate."""

    m0: int
    p0: int
    n0: int
    q0: int
    value: complex

    def row(self, d_b: int) -> int:
        return self.m0 * d_b + self.p0

    def col(self, d_b: int) -> int:
        return self.n0 * d_b + self.q0


@dataclass(frozen=True)
class BasisReordering:
    """Basis orders putting the anchor pairs first on each side.

    ``alice_order[k]`` is the original Alice index sitting at position k
    after the reordering (anchor row index first, column index second, the
    rest in ascending original order); likewise for Bob.
    """

    alice_order: tuple[int, ...]
    bob_order: tuple[int, ...]

    @property
    def d_a(self) -> int:
        return len(self.alice_order)

    @property
    def d_b(self) -> int:
        return len(self.bob_order)

    def product_order(self) -> tuple[int, ...]:
        """Original flat index sitting at each new flat position."""
        return tuple(
            a * self.d_b + b for a in self.alice_order for b in self.bob_order
        )

    def apply(self, rho) -> np.ndarray:
        """Conjugate a matrix by the induced permutation of the product basis."""
        mat = _matrix_of(rho)
        if mat.shape[0] != self.d_a * self.d_b:
            raise ValueError(
                f"dimension mismatch: matrix has dim {mat.shape[0]}, "
                f"reordering needs {self.d_a * self.d_b}"
            )
        idx = np.asarray(self.product_order())
        return mat[np.ix_(idx, idx)].copy()


@dataclass(frozen=True, eq=False)
class ChshObservables:
    """The four +/-1-valued measurements entering the CHSH score."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    theta: float
    phi: float


@dataclass(frozen=True)
class OExpectations:
    """Expectations of the four product observables behind the CHSH score."""

    o0: float
    ox: float
    oy: float
    oz: float


@dataclass(frozen=True, eq=False)
class ChshCertificate:
    """Closed-form CHSH maximum for one anchor, with the attaining angles.

    The anchor, the basis orders ``reorder``, ``f_max`` and the angles
    ``theta_opt``, ``phi_opt`` decide the certificate; no settings matrix is
    kept. ``build_observables(theta_opt, phi_opt, d_a, d_b)`` gives the four
    settings, which act in the reordered basis described by ``reorder``.
    ``f_max`` exceeds 2 exactly when the anchor entry is nonzero and never
    exceeds the Tsirelson bound 2*sqrt(2).
    """

    anchor: AnchorEntry
    reorder: BasisReordering
    f_max: float
    theta_opt: float
    phi_opt: float


def find_anchor_entries(rho, s: AdditiveStructure, tol: float = EPS_ZERO) -> list[AnchorEntry]:
    """All anchor entries above ``tol``, scanned in ascending flat order.

    Anchors are the crossed entries with a non-degenerate column or row
    pair; each unordered position pair contributes at most one anchor.
    When the upper-triangle orientation has a degenerate column pair but
    the row pair (M0, P0) is non-degenerate, the conjugate entry takes over
    the anchor role.
    """
    analysis = _analysis(rho, s)
    return [_anchor_entry(*entry, s.d_b) for entry in analysis.entries(*analysis.valid(tol).anchors)]


def _anchor_entry(row: int, col: int, value: complex, d_b: int) -> AnchorEntry:
    return AnchorEntry(*divmod(row, d_b), *divmod(col, d_b), value)


def reorder_basis(anchor: AnchorEntry, s: AdditiveStructure) -> BasisReordering:
    """Basis orders with the anchor's index pairs moved to the 2x2 corner."""
    alice_rest = [i for i in range(s.d_a) if i not in (anchor.m0, anchor.n0)]
    bob_rest = [i for i in range(s.d_b) if i not in (anchor.p0, anchor.q0)]
    return BasisReordering(
        alice_order=(anchor.m0, anchor.n0, *alice_rest),
        bob_order=(anchor.p0, anchor.q0, *bob_rest),
    )


def _corner_block(two_by_two: np.ndarray, dim: int, tail: float) -> np.ndarray:
    """dim x dim matrix with a 2x2 corner and ``tail`` times identity after it."""
    if dim < 2:
        raise ValueError("party dimension must be at least 2")
    out = np.zeros((dim, dim), dtype=complex)
    out[:2, :2] = two_by_two
    if dim > 2:
        out[2:, 2:] = tail * np.eye(dim - 2)
    return out


def _bloch(bx: float, by: float, bz: float) -> np.ndarray:
    return bx * PAULI_X + by * PAULI_Y + bz * PAULI_Z


def build_observables(theta: float, phi: float, d_a: int, d_b: int) -> ChshObservables:
    """CHSH observables for polar angle ``theta`` and azimuth ``phi``.

    Alice's settings are fixed (z and x Pauli corners); Bob's two settings
    share the polar angle and take opposite azimuthal directions. All four
    matrices square to the identity.
    """
    if not (-1e-12 <= theta <= math.pi + 1e-12):
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    if not (-math.pi - 1e-12 <= phi <= math.pi + 1e-12):
        raise ValueError(f"phi must lie in [-pi, pi], got {phi!r}")
    st, ct = math.sin(theta), math.cos(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    a1 = _corner_block(PAULI_Z, d_a, tail=1.0)
    a2 = _corner_block(PAULI_X, d_a, tail=1.0)
    b1 = _corner_block(_bloch(st * cp, st * sp, ct), d_b, tail=1.0)
    b2 = _corner_block(_bloch(-st * cp, -st * sp, ct), d_b, tail=1.0)
    return ChshObservables(a1=a1, a2=a2, b1=b1, b2=b2, theta=theta, phi=phi)


def build_o_operators(d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four product observables (O0, Ox, Oy, Oz) behind the CHSH score.

    O0 collects the Bob-tail identity part; Ox, Oy, Oz are the corner
    correlation parts along the respective Pauli axes.
    """
    if d_a < 2 or d_b < 2:
        raise ValueError("both parties need dimension at least 2")
    zero2 = np.zeros((2, 2), dtype=complex)
    alice_z = _corner_block(PAULI_Z, d_a, tail=1.0)
    alice_x = _corner_block(PAULI_X, d_a, tail=1.0)
    o0 = kron(alice_z, _corner_block(zero2, d_b, tail=1.0))
    oz = kron(alice_z, _corner_block(PAULI_Z, d_b, tail=0.0))
    ox = kron(alice_x, _corner_block(PAULI_X, d_b, tail=0.0))
    oy = kron(alice_x, _corner_block(PAULI_Y, d_b, tail=0.0))
    return o0, ox, oy, oz


def o_expectations(rho, d_a: int, d_b: int) -> OExpectations:
    """Expectations of the four product observables from matrix entries.

    Works directly on the entries of the (reordered) matrix, without
    building any operator; agrees with Tr(rho * O_i) to machine precision.
    Like ``build_o_operators``, needs both parties of dimension 2 or more.
    """
    if d_a < 2 or d_b < 2:
        raise ValueError("both parties need dimension at least 2")
    mat = _matrix_of(rho)
    if mat.shape[0] != d_a * d_b:
        raise ValueError(
            f"dimension mismatch: matrix has dim {mat.shape[0]}, expected {d_a}*{d_b}"
        )
    diag = mat.diagonal().real.reshape(d_a, d_b)
    o0 = float(np.sum(diag[0, 2:]) - np.sum(diag[1, 2:]) + np.sum(diag[2:, 2:]))
    ox, oy, oz = _o_vector(mat, diag, BasisReordering(tuple(range(d_a)), tuple(range(d_b))))
    return OExpectations(o0=o0, ox=ox, oy=oy, oz=oz)


def f_value(rho, obs: ChshObservables) -> float:
    """CHSH score Tr(rho * [A1 (x) (B1+B2) + A2 (x) (B1-B2)])."""
    mat = _matrix_of(rho)
    dim = obs.a1.shape[0] * obs.b1.shape[0]
    if mat.shape[0] != dim:
        raise ValueError(
            f"dimension mismatch: matrix has dim {mat.shape[0]}, observables need {dim}"
        )
    chsh_op = kron(obs.a1, obs.b1 + obs.b2) + kron(obs.a2, obs.b1 - obs.b2)
    return float(np.trace(mat @ chsh_op).real)


def _validate_anchor(rho, anchor: AnchorEntry, s: AdditiveStructure) -> np.ndarray:
    """The matrix of ``rho``, once its dims fit ``s`` and ``anchor`` is an anchor of ``s``."""
    mat = _matrix_of(rho)
    _check_dims(mat, s)
    m, p, n, q = anchor.m0, anchor.p0, anchor.n0, anchor.q0
    for party, idx, bound in (("Alice", m, s.d_a), ("Alice", n, s.d_a), ("Bob", p, s.d_b), ("Bob", q, s.d_b)):
        if not 0 <= idx < bound:
            raise ValueError(f"anchor {party} index {idx} out of range")
    if not (s.on_shell(m, p) and s.on_shell(n, q)):
        raise ValueError("anchor pairs must lie on the J shell")
    if not s._crossed(anchor.row(s.d_b), anchor.col(s.d_b)):
        raise ValueError("anchor must be a crossed entry (M0+Q0 != J)")
    if not s._flat_flags[1][s.flat_index(n, q)]:
        raise ValueError("anchor column labels (N0, Q0) must be non-degenerate")
    return mat


def _f_max(a_abs: float, oz: float) -> float:
    """2 * [1 + hypot(2|a|, <Oz>) - <Oz>], the closed-form CHSH maximum."""
    return 2.0 * (1.0 + math.hypot(2.0 * a_abs, oz) - oz)


def _closed_form_f_max(mat: np.ndarray, diag: np.ndarray, row: int, col: int) -> float:
    """``_f_max`` of the anchor rho[row, col], with <Oz> read from entries.

    ``diag`` is diag(rho) as d_a x d_b. After the anchor's reordering the
    diagonal entries in <Oz> sit at (m0,p0), (n0,q0) and in Bob's column p0
    for the other Alice indices, summed in ascending order.
    """
    d_a, d_b = diag.shape
    (m0, p0), (n0, q0) = divmod(row, d_b), divmod(col, d_b)
    rest = [i for i in range(d_a) if i not in (m0, n0)]
    oz = float(diag[m0, p0] + diag[n0, q0] + np.sum(diag[rest, p0]))
    return _f_max(abs(mat[row, col]), oz)


def _o_vector(mat: np.ndarray, diag: np.ndarray, reorder: BasisReordering) -> tuple[float, float, float]:
    """(<Ox>, <Oy>, <Oz>) of the reordered state, without reordering ``mat``.

    Reads the entries of ``reorder.apply(mat)`` that the sums need through
    the basis orders instead; ``o_expectations`` passes the identity
    orders. ``diag`` is diag(rho) as d_a x d_b.
    """
    (m0, n0, *rest), (p0, q0, *_) = reorder.alice_order, reorder.bob_order
    rho4 = mat.reshape(*diag.shape, *diag.shape)  # rho4[m, p, n, q] = rho[(m, p), (n, q)]
    oz = float(
        (diag[m0, p0] - diag[m0, q0])
        + (diag[n0, q0] - diag[n0, p0])
        + np.sum(diag[rest, p0] - diag[rest, q0])
    )
    cross = rho4[m0, p0, n0, q0] + rho4[n0, p0, m0, q0] + np.sum(rho4[rest, p0, rest, q0])
    return float(2.0 * cross.real), float(-2.0 * cross.imag), oz


def f_max_closed_form(rho, anchor: AnchorEntry, s: AdditiveStructure) -> ChshCertificate:
    """Closed-form CHSH maximum over the angle family, for a given anchor.

    The maximum is attained when Bob's first setting aligns with the
    expectation vector (<Ox>, <Oy>, <Oz>) of the reordered state; the
    aligned angles are returned, and ``build_observables`` turns them into
    the settings.
    """
    mat = _validate_anchor(rho, anchor, s)
    diag = mat.diagonal().real.reshape(s.d_a, s.d_b)
    f_max = _closed_form_f_max(mat, diag, anchor.row(s.d_b), anchor.col(s.d_b))
    return _certificate(mat, diag, anchor, f_max, s)


def _certificate(
    mat: np.ndarray, diag: np.ndarray, anchor: AnchorEntry, f_max: float, s: AdditiveStructure
) -> ChshCertificate:
    """The certificate of a checked ``anchor`` whose closed form is ``f_max``.

    ``diag`` is diag(rho) as d_a x d_b. The angles align Bob's first setting
    with (<Ox>, <Oy>, <Oz>) of the reordered state.
    """
    reorder = reorder_basis(anchor, s)
    ox, oy, oz = _o_vector(mat, diag, reorder)
    norm = math.sqrt(ox**2 + oy**2 + oz**2)
    if norm <= EPS_ZERO:
        theta_opt, phi_opt = 0.0, 0.0
    else:
        theta_opt = math.acos(min(1.0, max(-1.0, oz / norm))) + 0.0
        phi_opt = math.atan2(oy, ox) + 0.0  # +0.0 folds -0.0 into 0.0
    return ChshCertificate(anchor, reorder, f_max, theta_opt, phi_opt)


def _alice_contractions(mat: np.ndarray, reorder: BasisReordering) -> tuple[np.ndarray, np.ndarray]:
    """Bob corners and tail traces of W1 + W2 and W1 - W2, read from rho.

    W_i[j, l] = sum_{ik} rho[(ij),(kl)] A_i[k, i] in the reordered basis, so
    that Tr(rho * (A_i (x) B)) = sum_{jl} W_i[j, l] * B[l, j] for any B. With
    A1 = sigma_z (+) 1, W1 sums Alice's diagonal blocks, the n0 one negated;
    with A2 = sigma_x (+) 1, W2 sums the (m0, n0) and (n0, m0) blocks and the
    diagonal blocks of Alice's rest. Of each block only Bob's (p0, q0) corner
    and the diagonal of his tail are read, through the basis orders. Returns
    the (2, 2, 2) corners and the two tail traces.
    """
    (m0, n0, *rest), (p0, q0, *tail) = reorder.alice_order, reorder.bob_order
    # Alice pairs (i, k) of the blocks rho[(i .), (k .)] as row offsets, and their weights in W1, W2
    i, k = np.array([(m0, m0), (n0, n0), (m0, n0), (n0, m0), *zip(rest, rest)]).T * reorder.d_b
    ones = [1.0] * len(rest)
    w1, w2 = np.array([1.0, -1.0, 0.0, 0.0, *ones]), np.array([0.0, 0.0, 1.0, 1.0, *ones])
    corner, tail = np.array([p0, q0]), np.array(tail, dtype=int)
    corners = mat[i[:, None, None] + corner[:, None], k[:, None, None] + corner]
    tails = mat[i[:, None] + tail, k[:, None] + tail].sum(axis=1)
    weights = np.stack([w1 + w2, w1 - w2])
    return np.tensordot(weights, corners, 1), weights @ tails


def _f_points(corners: np.ndarray, tails: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """CHSH scores Tr(W_sum B1) + Tr(W_diff B2) at paired (theta, phi) points.

    B = b.sigma (+) 1, so Tr(W B) is W's Bob corner contracted with b.sigma
    plus W's tail trace.
    """
    ct = np.cos(thetas)
    up = np.sin(thetas) * np.exp(-1j * phis)  # b1.sigma[0, 1]; b2.sigma negates the off-diagonal
    (s, d), low = corners, up.conj()
    t_sum = s[0, 0] * ct + s[0, 1] * low + s[1, 0] * up - s[1, 1] * ct + tails[0]
    t_diff = d[0, 0] * ct - d[0, 1] * low - d[1, 0] * up - d[1, 1] * ct + tails[1]
    return (t_sum + t_diff).real


def _grid_max(
    corners: np.ndarray,
    tails: np.ndarray,
    thetas: np.ndarray,
    phis: np.ndarray,
    chunk: int = 1 << 16,
) -> tuple[float, float, float]:
    """Best score on the theta x phi grid, phi fastest; ties keep the first point.

    Points are scored ``chunk`` flat points at a time, each from the two
    corners and tail traces alone: the cost is O(n_theta * n_phi) whatever
    d_b is, and a chunk holds a few arrays of ``chunk`` numbers.
    """
    best = -math.inf
    best_t = best_p = 0.0
    n_phi = phis.shape[0]
    total = thetas.shape[0] * n_phi
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        th_flat, ph_flat = thetas[flat // n_phi], phis[flat % n_phi]
        vals = _f_points(corners, tails, th_flat, ph_flat)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_t, best_p = float(vals[k]), float(th_flat[k]), float(ph_flat[k])
    return best, best_t, best_p


def grid_verify(
    rho,
    anchor: AnchorEntry,
    s: AdditiveStructure,
    n_theta: int = 1024,
    n_phi: int = 2048,
    refine_levels: int = 3,
) -> float:
    """Numerical CHSH maximum by grid search over the measurement angles.

    Evaluates the raw trace expression on a uniform n_theta x n_phi grid
    over theta in [0, pi], phi in [-pi, pi], then zooms into the best cell
    ``refine_levels`` times (10x finer per level). Each point is scored from
    Bob's 2x2 corner and tail trace of the two Alice contractions, which are
    read from rho through the anchor's basis orders; no reordered copy is
    made, and the grid costs O(n_theta * n_phi) whatever d_b is. Independent
    of the closed form (it reads none of its expectations and assumes no
    texture), so it checks it: it never exceeds it, and converges to it as
    the grid refines.
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError("need at least a 2x2 grid")
    mat = _validate_anchor(rho, anchor, s)
    corners, tails = _alice_contractions(mat, reorder_basis(anchor, s))

    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(-math.pi, math.pi, n_phi)
    best, best_t, best_p = _grid_max(corners, tails, thetas, phis)

    d_theta = math.pi / (n_theta - 1)
    d_phi = 2.0 * math.pi / (n_phi - 1)
    for _ in range(refine_levels):
        thetas = np.linspace(max(0.0, best_t - d_theta), min(math.pi, best_t + d_theta), 21)
        phis = np.linspace(best_p - d_phi, best_p + d_phi, 21)
        cand, cand_t, cand_p = _grid_max(corners, tails, thetas, phis)
        if cand > best:
            best, best_t, best_p = cand, cand_t, cand_p
        d_theta /= 10.0
        d_phi /= 10.0
    return best


def certify_nonlocality(rho, s: AdditiveStructure, tol: float = EPS_ZERO) -> ChshCertificate | None:
    """Best CHSH certificate over all anchors, or None when no anchor exists.

    Absence of an anchor makes no locality claim; it only means this
    construction cannot certify a violation. Anchors are scanned in
    ascending flat order and ties in the maximum keep the first; only that
    one is built as an ``AnchorEntry``, and its certificate takes the
    score the pick computed. The scan found the anchors with the predicate
    and flags of ``f_max_closed_form``'s anchor check, so none is checked
    again.
    """
    analysis = _analysis(rho, s)
    anchors = analysis.entries(*analysis.valid(tol).anchors)
    if not anchors:
        return None
    mat = analysis.mat
    diag = mat.diagonal().real.reshape(s.d_a, s.d_b)
    f_all = [_closed_form_f_max(mat, diag, row, col) for row, col, _ in anchors]
    k = f_all.index(max(f_all))
    return _certificate(mat, diag, _anchor_entry(*anchors[k], s.d_b), f_all[k], s)
