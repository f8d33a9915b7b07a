"""Every public function that takes a state reads it through one gate.

``structure._matrix_of`` returns the matrix of a ``DensityMatrix`` after a
size comparison and checks a raw array for shape, size and finite entries.
The table below lists each public function that takes a state once; each is
checked for the one size message, for rejecting a NaN or an inf in a raw
array, and for giving the same result on a raw array as on a
``DensityMatrix``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from addobs_certify.chsh import (
    build_observables,
    certify_nonlocality,
    f_max_closed_form,
    f_value,
    find_anchor_entries,
    grid_verify,
    o_expectations,
    reorder_basis,
)
from addobs_certify.entanglement import certify, find_crossed_entries, reduced_purity
from addobs_certify.linalg import partial_trace, partial_transpose
from addobs_certify.structure import (
    DensityMatrix,
    min_pt_eigenvalue,
    pt_block_decomposition,
    validate_additivity,
)

from helpers import bell_system, chain_structure, make_rng, random_shell_state

#: name -> call(rho, s, anchor) for each public function that takes a state
CALLS = {
    "validate_additivity": lambda rho, s, a: validate_additivity(rho, s),
    "find_crossed_entries": lambda rho, s, a: find_crossed_entries(rho, s),
    "certify": lambda rho, s, a: certify(rho, s),
    "min_pt_eigenvalue": lambda rho, s, a: min_pt_eigenvalue(rho, s),
    "pt_block_decomposition": lambda rho, s, a: pt_block_decomposition(rho, s),
    "reduced_purity": lambda rho, s, a: reduced_purity(rho, s, "B"),
    "find_anchor_entries": lambda rho, s, a: find_anchor_entries(rho, s),
    "certify_nonlocality": lambda rho, s, a: certify_nonlocality(rho, s),
    "f_max_closed_form": lambda rho, s, a: f_max_closed_form(rho, a, s),
    "grid_verify": lambda rho, s, a: grid_verify(rho, a, s, n_theta=8, n_phi=8, refine_levels=1),
    "o_expectations": lambda rho, s, a: o_expectations(rho, s.d_a, s.d_b),
    "f_value": lambda rho, s, a: f_value(rho, build_observables(0.7, 0.3, s.d_a, s.d_b)),
    "BasisReordering.apply": lambda rho, s, a: reorder_basis(a, s).apply(rho),
    "partial_transpose": lambda rho, s, a: partial_transpose(rho, s.d_a, s.d_b),
    "partial_trace": lambda rho, s, a: partial_trace(rho, s.d_a, s.d_b, "A"),
}
#: the linear-algebra layer sits below ``DensityMatrix`` and takes arrays only
ARRAYS_ONLY = {"partial_transpose", "partial_trace"}


def _chain():
    # dim 64: the checks and the scan read live indices from dim 32 up
    s = chain_structure(3)
    return s, random_shell_state(make_rng(24), s)


SYSTEMS = {"bell-dim4": bell_system, "chain3-dim64": _chain}


def _positions(s, rho) -> dict[str, tuple[int, int]]:
    """A crossed entry, an entry of an off-shell pair and a shell diagonal entry."""
    crossed = find_crossed_entries(rho, s)[0]
    shell = s.shell_flats[0]
    off = next(k for k in range(s.dim) if k not in s.shell_flats)
    return {"crossed": (crossed.row, crossed.col), "off-shell": (off, shell), "diagonal": (shell, shell)}


def _plain(x):
    """``x`` with arrays as lists and dataclasses as tuples, for ``==``."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(_plain(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


@pytest.mark.parametrize("name", CALLS)
def test_a_wrong_size_raises_the_one_message(name):
    s, rho = bell_system()
    anchor = find_anchor_entries(rho, s)[0]
    wrong = np.eye(9, dtype=complex) / 9
    inputs = [wrong] if name in ARRAYS_ONLY else [wrong, DensityMatrix(wrong)]
    for bad in inputs:
        with pytest.raises(ValueError, match="^dimension mismatch: matrix has dim 9, expected 4$"):
            CALLS[name](bad, s, anchor)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", CALLS)
def test_a_non_finite_raw_entry_is_rejected(name, system):
    s, rho = SYSTEMS[system]()
    anchor = find_anchor_entries(rho, s)[0]
    for row, col in _positions(s, rho).values():
        for value in (np.nan, np.inf, -np.inf):
            bad = rho.matrix.copy()
            bad[row, col] = value
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                CALLS[name](bad, s, anchor)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", sorted(set(CALLS) - ARRAYS_ONLY))
def test_a_raw_array_and_a_density_matrix_agree(name, system):
    s, rho = SYSTEMS[system]()
    anchor = find_anchor_entries(rho, s)[0]
    raw = CALLS[name](rho.matrix.copy(), s, anchor)
    assert _plain(CALLS[name](rho, s, anchor)) == _plain(raw)


def test_the_nan_bell_texture_is_not_called_valid():
    # a NaN fails every comparison with zero: at the crossed pair it would
    # hide the only entries that make the state entangled
    s, _ = bell_system()
    mat = np.zeros((4, 4))
    mat[1, 1] = mat[2, 2] = 0.5
    mat[1, 2] = mat[2, 1] = np.nan
    for call in (validate_additivity, find_crossed_entries, find_anchor_entries, reduced_purity, certify):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            call(mat, s)
