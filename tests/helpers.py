"""Shared fixtures: randomized texture-respecting states and block oracles."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import numpy as np

from addobs_certify import chsh, entanglement
from addobs_certify.structure import AdditiveStructure, DensityMatrix, build_sectors

SEED = int(os.environ.get("ADDOBS_CERTIFY_SEED", "42"))


def make_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(SEED + offset)


def benchmark_corpus():
    """``perfbench/corpus.py``, the benchmark's seeded state generator."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bell_system() -> tuple[AdditiveStructure, DensityMatrix]:
    """|psi+> = (|01> + |10>)/sqrt(2) on a spin-1/2 pair with J = 0."""
    s = AdditiveStructure((0.5, -0.5), (0.5, -0.5), 0.0)
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = mat[2, 2] = mat[1, 2] = mat[2, 1] = 0.5
    return s, DensityMatrix(mat)


def random_shell_state(
    rng: np.random.Generator, s: AdditiveStructure, rank: int | None = None
) -> DensityMatrix:
    """Random full-support density matrix living on the J shell."""
    flats = list(s.shell_flats)
    k = len(flats)
    r = rank if rank is not None else k
    g = rng.normal(size=(k, r)) + 1j * rng.normal(size=(k, r))
    core = g @ g.conj().T
    core /= np.trace(core).real
    mat = np.zeros((s.dim, s.dim), dtype=complex)
    mat[np.ix_(flats, flats)] = core
    return DensityMatrix(mat)


def chain_structure(n_spins: int) -> AdditiveStructure:
    """Spin-1/2 chain cut n|n at J = 0: a party's label is its total S_z."""
    labels = tuple((n_spins - 2 * bin(k).count("1")) / 2.0 for k in range(2**n_spins))
    return AdditiveStructure(labels, labels, 0.0)


def sector_diagonal_state(rng: np.random.Generator, s: AdditiveStructure) -> np.ndarray:
    """Random state block diagonal over the shell sectors, as an array.

    Every shell sector gets a full-support block, so there is no crossed
    entry and every cross block of the partial transpose is zero.
    """
    mat = np.zeros((s.dim, s.dim), dtype=complex)
    for sec in build_sectors(s):
        if abs(sec.m_value + sec.q_value - s.j_total) > s.eps_j:
            continue
        flats = list(sec.flat_indices(s.d_b))
        g = rng.normal(size=(len(flats),) * 2) + 1j * rng.normal(size=(len(flats),) * 2)
        mat[np.ix_(flats, flats)] = g @ g.conj().T
    return mat / np.trace(mat).real


def random_structure(
    rng: np.random.Generator,
    d_a: int | None = None,
    d_b: int | None = None,
    min_shell: int = 2,
) -> AdditiveStructure:
    """Random eigenvalue assignment whose shell holds at least min_shell pairs."""
    while True:
        da = int(d_a) if d_a else int(rng.integers(2, 5))
        db = int(d_b) if d_b else int(rng.integers(2, 6))
        ja = rng.integers(-2, 3, size=da).astype(float)
        jb = rng.integers(-2, 3, size=db).astype(float)
        sums = sorted({ja[m] + jb[p] for m in range(da) for p in range(db)})
        rng.shuffle(sums)
        for j in sums:
            shell = [(m, p) for m in range(da) for p in range(db) if ja[m] + jb[p] == j]
            if len(shell) >= min_shell:
                return AdditiveStructure(tuple(ja), tuple(jb), float(j))


def _shell_has_crossed_positions(s: AdditiveStructure) -> bool:
    values = {s.j_alice[m] for m, _ in s.shell_pairs}
    return len(values) >= 2


def group_size(groups: tuple[tuple[float, tuple[int, ...]], ...], index: int) -> int:
    """The size of the label group holding ``index``: the label's degeneracy."""
    return next(len(members) for _, members in groups if index in members)


def _shell_has_anchor_positions(s: AdditiveStructure) -> bool:
    for n, q in s.shell_pairs:
        if group_size(s.alice_groups, n) != 1 or group_size(s.bob_groups, q) != 1:
            continue
        if any(s.j_alice[m] != s.j_alice[n] for m, _ in s.shell_pairs):
            return True
    return False


def random_crossed_system(
    rng: np.random.Generator, max_tries: int = 200
) -> tuple[AdditiveStructure, DensityMatrix]:
    """A random system guaranteed to carry at least one crossed entry."""
    for _ in range(max_tries):
        s = random_structure(rng)
        if not _shell_has_crossed_positions(s):
            continue
        rho = random_shell_state(rng, s)
        if entanglement.find_crossed_entries(rho, s, tol=1e-9):
            return s, rho
    raise RuntimeError("failed to draw a crossed system")


def random_anchored_system(
    rng: np.random.Generator,
    max_tries: int = 200,
    d_a: int | None = None,
    d_b: int | None = None,
) -> tuple[AdditiveStructure, DensityMatrix, list[chsh.AnchorEntry]]:
    """A random system guaranteed to carry at least one anchor entry, with
    the party dimensions given (random where None)."""
    for _ in range(max_tries):
        s = random_structure(rng, d_a, d_b)
        if not _shell_has_anchor_positions(s):
            continue
        rho = random_shell_state(rng, s)
        anchors = chsh.find_anchor_entries(rho, s, tol=1e-9)
        if anchors:
            return s, rho, anchors
    raise RuntimeError("failed to draw an anchored system")


def random_type1_structure(
    rng: np.random.Generator, qubit_qudit: bool = False
) -> AdditiveStructure:
    """Structures whose shell sectors all have a non-degenerate factor.

    Either a qubit on Alice's side with two distinct labels, or fully
    non-degenerate spectra on both sides.
    """
    while True:
        if qubit_qudit:
            ja = rng.choice(np.arange(-2.0, 3.0), size=2, replace=False)
            db = int(rng.integers(2, 6))
            jb = rng.integers(-2, 3, size=db).astype(float)
        else:
            da = int(rng.integers(2, 5))
            db = int(rng.integers(2, 6))
            ja = rng.choice(np.arange(-3.0, 4.0), size=da, replace=False)
            jb = rng.choice(np.arange(-3.0, 4.0), size=db, replace=False)
        sums = sorted({a + b for a in ja for b in jb})
        rng.shuffle(sums)
        for j in sums:
            shell = [(m, p) for m in range(len(ja)) for p in range(len(jb)) if ja[m] + jb[p] == j]
            if len(shell) >= 2:
                return AdditiveStructure(tuple(ja), tuple(jb), float(j))


def random_product_mixture(
    rng: np.random.Generator, s: AdditiveStructure, n_terms: int = 4
) -> DensityMatrix:
    """Convex mixture of sector-diagonal product states (separable by build)."""
    shell_sectors = [
        sec
        for sec in build_sectors(s)
        if abs(sec.m_value + sec.q_value - s.j_total) <= s.eps_j
    ]
    weights = rng.dirichlet(np.ones(n_terms))
    mat = np.zeros((s.dim, s.dim), dtype=complex)
    for w in weights:
        sec = shell_sectors[int(rng.integers(len(shell_sectors)))]
        alpha = rng.normal(size=sec.deg_m) + 1j * rng.normal(size=sec.deg_m)
        beta = rng.normal(size=sec.deg_q) + 1j * rng.normal(size=sec.deg_q)
        alpha /= np.linalg.norm(alpha)
        beta /= np.linalg.norm(beta)
        psi = np.zeros(s.dim, dtype=complex)
        for i, m in enumerate(sec.alice_indices):
            for j, q in enumerate(sec.bob_indices):
                psi[s.flat_index(m, q)] = alpha[i] * beta[j]
        mat += w * np.outer(psi, psi.conj())
    return DensityMatrix(mat)


def o_operators_blockwise(d_a: int, d_b: int) -> tuple[np.ndarray, ...]:
    """Independent assembly of the four product observables, block by block.

    Built by explicit placement of d_b x d_b blocks on a d_a x d_a grid:
    the identity-tail observable and the z-corner one live on the diagonal
    with a sign flip in the second slot; the x/y-corner ones couple the
    first two slots and repeat on the remaining diagonal.
    """
    sigma = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }

    def corner(two: np.ndarray) -> np.ndarray:
        out = np.zeros((d_b, d_b), dtype=complex)
        out[:2, :2] = two
        return out

    def tail_identity() -> np.ndarray:
        out = np.zeros((d_b, d_b), dtype=complex)
        out[2:, 2:] = np.eye(d_b - 2)
        return out

    def place(grid: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
        out = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
        for (i, k), block in grid.items():
            out[i * d_b : (i + 1) * d_b, k * d_b : (k + 1) * d_b] = block
        return out

    o0 = place(
        {(0, 0): tail_identity(), (1, 1): -tail_identity()}
        | {(i, i): tail_identity() for i in range(2, d_a)}
    )
    oz = place(
        {(0, 0): corner(sigma["z"]), (1, 1): -corner(sigma["z"])}
        | {(i, i): corner(sigma["z"]) for i in range(2, d_a)}
    )
    ox = place(
        {(0, 1): corner(sigma["x"]), (1, 0): corner(sigma["x"])}
        | {(i, i): corner(sigma["x"]) for i in range(2, d_a)}
    )
    oy = place(
        {(0, 1): corner(sigma["y"]), (1, 0): corner(sigma["y"])}
        | {(i, i): corner(sigma["y"]) for i in range(2, d_a)}
    )
    return o0, ox, oy, oz
