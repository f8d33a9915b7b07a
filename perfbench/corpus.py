"""Seeded inputs for the three workloads, built with numpy alone.

Nothing here imports the package under test or its tests, so edits to
either cannot change what the benchmark feeds the program. A system is a
plain dict:

* ``ja``, ``jb``, ``jt``: the additive-observable labels of the two
  parties and the definite total;
* ``idx``, ``core``: the state, as the principal submatrix ``core`` on
  the flat positions ``idx`` (zeros elsewhere); ``dense(system)`` expands
  it;
* ``higgs``: for H->ZZ systems, the measured ``(a12, a13)`` pair the
  program turns into a state itself (``idx``/``core`` then hold the
  expected matrix for the oracle);
* ``kind``: how it was built, which fixes the expected verdict.

Every matrix is exactly Hermitian, so the program's symmetrisation leaves
its entries bit for bit unchanged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

#: Bumped whenever a generator changes, so cached documents are rebuilt.
CORPUS_VERSION = 1

WORKLOAD_IDS = {"chain-cli": 1, "sector-ppt": 2, "small-batch": 3}

#: The published pseudoexperiment central values (a12, a13), one per column
#: of the two luminosity tables (cuts 0, 10, 20, 30 GeV).
HIGGS_CENTRAL_VALUES = (
    (-0.33, 0.20), (-0.32, 0.21), (-0.35, 0.25), (-0.35, 0.27),
    (-0.32, 0.20), (-0.33, 0.21), (-0.35, 0.25), (-0.35, 0.28),
)

#: One cycle of the small-batch mix, as (kind, dimA, dimB); the dimensions
#: apply to the kinds with random labels (the others have their own). One
#: system in ten carries off-shell noise, every decision-ladder rung is
#: reached, and the kinds, sizes and labels are the same in every run
#: whatever its length or seed (``small_system``), so the slowest systems do
#: not depend on the seed's luck.
SMALL_BATCH_CYCLE = (
    ("bell", 2, 2), ("anchored", 4, 5), ("crossed", 3, 4), ("type1", 3, 4), ("type2-npt", 0, 0),
    ("higgs", 3, 3), ("anchored", 3, 5), ("noisy", 3, 3), ("type2-ppt", 0, 0), ("crossed", 4, 5),
    ("bell", 2, 2), ("anchored", 4, 4), ("type1", 4, 5), ("type2-npt", 0, 0), ("crossed", 2, 5),
    ("higgs", 3, 3), ("anchored", 2, 4), ("noisy", 4, 4), ("type2-ppt", 0, 0), ("type1", 2, 3),
)


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    """Independent stream per (seed, workload, system index)."""
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def spin_chain_labels(n_spins: int) -> tuple[float, ...]:
    """Total S_z of each computational basis state of ``n_spins`` spin-1/2s."""
    return tuple((n_spins - 2 * bin(k).count("1")) / 2.0 for k in range(2**n_spins))


def shell_flats(ja, jb, jt) -> np.ndarray:
    sums = np.add.outer(np.asarray(ja), np.asarray(jb)).ravel()
    return np.flatnonzero(np.abs(sums - jt) <= 1e-9)


def dense(system: dict) -> np.ndarray:
    dim = len(system["ja"]) * len(system["jb"])
    mat = np.zeros((dim, dim), dtype=complex)
    idx = system["idx"]
    mat[np.ix_(idx, idx)] = system["core"]
    return mat


def _hermitian_unit_trace(mat: np.ndarray) -> np.ndarray:
    mat = (mat + mat.conj().T) / 2.0
    return mat / np.trace(mat).real


def _gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_state(rng: np.random.Generator, k: int) -> np.ndarray:
    g = _gaussian(rng, k, k)
    return _hermitian_unit_trace(g @ g.conj().T)


def _sector_groups(ja, jb, jt) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Shell sectors (M, Alice indices, Bob indices) with M + Q = J."""
    ja, jb = np.asarray(ja), np.asarray(jb)
    out = []
    for m_value in np.unique(ja):
        alice = np.flatnonzero(ja == m_value)
        bob = np.flatnonzero(np.abs(jb - (jt - m_value)) <= 1e-9)
        if bob.size:
            out.append((float(m_value), alice, bob))
    return out


def _product_mixture(rng: np.random.Generator, deg_m: int, deg_q: int, terms: int) -> np.ndarray:
    """Mixture of product pure states on a deg_m x deg_q sector, unit trace."""
    out = np.zeros((deg_m * deg_q, deg_m * deg_q), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        alpha = _gaussian(rng, deg_m)
        beta = _gaussian(rng, deg_q)
        psi = np.kron(alpha / np.linalg.norm(alpha), beta / np.linalg.norm(beta))
        out += w * np.outer(psi, psi.conj())
    return _hermitian_unit_trace(out)


def _npt_block(rng: np.random.Generator, deg_m: int, deg_q: int) -> np.ndarray:
    """Entangled pure state mixed with a full-support product mixture.

    Returned only when the partial transpose of the block dips below -1e-6,
    far beyond the program's PSD tolerance, so the verdict is fixed by
    construction.
    """
    while True:
        psi = _gaussian(rng, deg_m * deg_q)
        psi /= np.linalg.norm(psi)
        w = rng.uniform(0.6, 0.9)
        block = w * np.outer(psi, psi.conj()) + (1 - w) * _product_mixture(rng, deg_m, deg_q, 3)
        block = _hermitian_unit_trace(block)
        pt = block.reshape(deg_m, deg_q, deg_m, deg_q).transpose(0, 3, 2, 1)
        if np.linalg.eigvalsh(pt.reshape(block.shape))[0] < -1e-6:
            return block


def sector_diagonal_state(rng: np.random.Generator, ja, jb, jt, npt_sector: float | None):
    """Block-diagonal state over the shell sectors: no crossed entries.

    Every sector gets a full-support block (so entry counts repeat exactly);
    the sector with Alice label ``npt_sector`` gets an NPT block, all others
    product mixtures.
    """
    d_b = len(jb)
    sectors = _sector_groups(ja, jb, jt)
    weights = rng.dirichlet(np.full(len(sectors), 4.0))
    idx, blocks = [], []
    for w, (m_value, alice, bob) in zip(weights, sectors):
        deg_m, deg_q = alice.size, bob.size
        if m_value == npt_sector:
            block = _npt_block(rng, deg_m, deg_q)
        else:
            block = _product_mixture(rng, deg_m, deg_q, max(3, min(deg_m, deg_q) + 1))
        idx.extend((alice[:, None] * d_b + bob[None, :]).ravel().tolist())
        blocks.append(w * block)
    core = np.zeros((len(idx), len(idx)), dtype=complex)
    pos = 0
    for block in blocks:
        k = block.shape[0]
        core[pos : pos + k, pos : pos + k] = block
        pos += k
    return np.asarray(idx), _hermitian_unit_trace(core)


def _system(kind, ja, jb, jt, idx, core, **extra) -> dict:
    return {
        "kind": kind,
        "ja": tuple(float(v) for v in ja),
        "jb": tuple(float(v) for v in jb),
        "jt": float(jt),
        "idx": np.asarray(idx, dtype=np.int64),
        "core": core,
        **extra,
    }


# --- spin-1/2 chain bipartitions (chain-cli, sector-ppt) ---


def chain_full_support(seed: int, index: int, n_spins: int) -> dict:
    """Full-support random state on the J = 0 shell of an n|n chain cut."""
    rng = rng_for(seed, "chain-cli", index)
    labels = spin_chain_labels(n_spins)
    idx = shell_flats(labels, labels, 0.0)
    return _system("chain", labels, labels, 0.0, idx, _random_state(rng, idx.size))


def chain_sector_diagonal(seed: int, index: int, n_spins: int) -> dict:
    """Even indices: NPT in one LARGE sector; odd: product mixtures only."""
    rng = rng_for(seed, "sector-ppt", index)
    labels = spin_chain_labels(n_spins)
    npt = index % 2 == 0
    large = [m for m, a, b in _sector_groups(labels, labels, 0.0) if min(a.size, b.size) > 1]
    npt_sector = large[int(rng.integers(len(large)))] if npt else None
    idx, core = sector_diagonal_state(rng, labels, labels, 0.0, npt_sector)
    return _system("sector-npt" if npt else "sector-product", labels, labels, 0.0, idx, core)


# --- small systems (small-batch) ---


def _random_labels(rng: np.random.Generator, da: int, db: int):
    while True:
        ja = rng.integers(-2, 3, size=da).astype(float)
        jb = rng.integers(-2, 3, size=db).astype(float)
        for jt in rng.permutation(np.unique(np.add.outer(ja, jb))):
            if shell_flats(ja, jb, jt).size >= 2:
                return ja, jb, float(jt)


def _shell_alice_values(ja, jb, jt) -> set[float]:
    return {float(ja[f // len(jb)]) for f in shell_flats(ja, jb, jt)}


def _has_anchor_position(ja, jb, jt) -> bool:
    ja, jb = np.asarray(ja), np.asarray(jb)
    flats = shell_flats(ja, jb, jt)
    for f in flats:
        n, q = divmod(int(f), len(jb))
        if np.sum(ja == ja[n]) == 1 and np.sum(jb == jb[q]) == 1:
            if any(ja[g // len(jb)] != ja[n] for g in flats):
                return True
    return False


def _shell_state_system(rng: np.random.Generator, labels_rng: np.random.Generator, kind: str, shape, want) -> dict:
    while True:
        ja, jb, jt = _random_labels(labels_rng, *shape)
        if want(ja, jb, jt):
            idx = shell_flats(ja, jb, jt)
            return _system(kind, ja, jb, jt, idx, _random_state(rng, idx.size))


def _type1_system(rng: np.random.Generator, labels_rng: np.random.Generator, da: int, db: int) -> dict:
    """All shell sectors have a non-degenerate factor; product mixture state."""
    while True:
        ja = labels_rng.choice(np.arange(-3.0, 4.0), size=da, replace=False)
        jb = labels_rng.choice(np.arange(-3.0, 4.0), size=db, replace=False)
        for jt in labels_rng.permutation(np.unique(np.add.outer(ja, jb))):
            if shell_flats(ja, jb, jt).size >= 2:
                idx, core = sector_diagonal_state(rng, ja, jb, float(jt), None)
                return _system("type1", ja, jb, float(jt), idx, core)


def _type2_system(rng: np.random.Generator, labels_rng: np.random.Generator, npt: bool) -> dict:
    """A 2x2 or 2x3 shell sector (TYPE2) next to an optional 1x1 one."""
    da, deg_q = int(labels_rng.integers(2, 4)), int(labels_rng.integers(2, 4))
    ja = np.array([0.0, 0.0, 1.0][:da])
    jb = np.array([0.0] * deg_q + [-1.0] * int(labels_rng.integers(0, 2)))
    ja, jb = labels_rng.permutation(ja), labels_rng.permutation(jb)
    idx, core = sector_diagonal_state(rng, ja, jb, 0.0, 0.0 if npt else None)
    return _system("type2-npt" if npt else "type2-ppt", ja, jb, 0.0, idx, core)


def _bell_system(rng: np.random.Generator) -> dict:
    """(|01> + e^{i phi} |10>)/sqrt(2) on a spin-1/2 pair with J = 0."""
    psi = np.array([1.0, np.exp(1j * rng.uniform(-np.pi, np.pi))]) / np.sqrt(2.0)
    core = np.outer(psi, psi.conj())
    return _system("bell", (0.5, -0.5), (0.5, -0.5), 0.0, [1, 2], (core + core.conj().T) / 2.0)


def _higgs_system(index: int) -> dict:
    """A table column's (a12, a13): the program builds the 9x9 state itself."""
    a12, a13 = HIGGS_CENTRAL_VALUES[index % len(HIGGS_CENTRAL_VALUES)]
    m13 = abs(a13)
    core = np.array(
        [[m13, a12, m13], [a12, 1.0 - 2.0 * m13, a12], [m13, a12, m13]], dtype=complex
    )
    labels = (1.0, 0.0, -1.0)
    return _system("higgs", labels, labels, 0.0, [2, 4, 6], core, higgs=(a12, a13))


def _noisy_system(rng: np.random.Generator, labels_rng: np.random.Generator, shape) -> dict:
    """A shell state with weight eps moved onto one off-shell diagonal entry."""
    base = _shell_state_system(
        rng, labels_rng, "noisy", shape, lambda ja, jb, jt: len(ja) * len(jb) > len(shell_flats(ja, jb, jt))
    )
    dim = len(base["ja"]) * len(base["jb"])
    off = np.setdiff1d(np.arange(dim), base["idx"])
    k = int(off[int(labels_rng.integers(off.size))])
    eps = 10.0 ** rng.uniform(-8, -3)
    n = base["idx"].size
    core = np.zeros((n + 1, n + 1), dtype=complex)
    core[:n, :n] = (1.0 - eps) * base["core"]
    core[n, n] = eps
    base["idx"] = np.append(base["idx"], k)
    base["core"] = core
    return base


def small_system(seed: int, index: int) -> dict:
    """The seed draws the state; the labels, and so the system's cost, are
    the same for every seed, so the slowest systems (those with the most
    anchors or the largest shells) do not depend on the seed's luck."""
    rng = rng_for(seed, "small-batch", index)
    labels_rng = np.random.default_rng([WORKLOAD_IDS["small-batch"], index])
    kind, *shape = SMALL_BATCH_CYCLE[index % len(SMALL_BATCH_CYCLE)]
    if kind == "bell":
        return _bell_system(rng)
    if kind == "higgs":
        return _higgs_system(index // len(SMALL_BATCH_CYCLE) * 2 + (index % len(SMALL_BATCH_CYCLE) > 10))
    if kind == "anchored":
        return _shell_state_system(rng, labels_rng, kind, shape, _has_anchor_position)
    if kind == "crossed":
        return _shell_state_system(rng, labels_rng, kind, shape, lambda *lab: len(_shell_alice_values(*lab)) >= 2)
    if kind == "type1":
        return _type1_system(rng, labels_rng, *shape)
    if kind.startswith("type2"):
        return _type2_system(rng, labels_rng, kind == "type2-npt")
    return _noisy_system(rng, labels_rng, shape)


def system_for(workload: str, seed: int, index: int, n_spins: int) -> dict:
    """The workload's ``index``-th input for ``seed`` (chain cuts are n|n)."""
    if workload == "chain-cli":
        return chain_full_support(seed, index, n_spins)
    if workload == "sector-ppt":
        return chain_sector_diagonal(seed, index, n_spins)
    return small_system(seed, index)


# --- JSON state documents (chain-cli) ---


def _entry(z: complex) -> str:
    return '{"re": %r, "im": %r}' % (float(z.real), float(z.imag))


def document_text(system: dict) -> str:
    """The state document the CLI reads, in the repository's documented format.

    Byte-for-byte what ``json.dumps`` gives for the same dict, written row
    by row because a dim-1024 document has a million entries.
    """
    mat = dense(system)
    zero = _entry(0j)
    head = json.dumps(
        {
            "dimA": len(system["ja"]),
            "dimB": len(system["jb"]),
            "jA": list(system["ja"]),
            "jB": list(system["jb"]),
            "jTotal": system["jt"],
        }
    )[:-1]
    rows = []
    for row in mat:
        cells = [zero] * row.size
        for j in np.flatnonzero(row).tolist():
            cells[j] = _entry(row[j])
        rows.append("[" + ", ".join(cells) + "]")
    return head + ', "matrix": [' + ", ".join(rows) + "]}"


def cached_document(cache_dir: Path, stem: str, index: int, system: dict) -> Path:
    """Write the system's document once; later runs with the same stem reuse it.

    Documents of any other stem (another seed or size) are deleted first,
    so the cache holds one seed's documents at a time.
    """
    stem = f"v{CORPUS_VERSION}-{stem}"
    path = cache_dir / f"{stem}-{index}.json"
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        for old in cache_dir.glob("*.json"):
            if not old.name.startswith(f"{stem}-"):
                old.unlink(missing_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(document_text(system), encoding="utf-8")
        os.replace(tmp, path)
    return path
