import itertools
from math import comb

import numpy as np
import pytest

from drivenchain.basis import (QuantumState, build_sector_basis, fock_state,
                               sector_dimension)


def brute_force_states(n_sites, n, n_max):
    """Oracle: plain nested enumeration of the sector."""
    out = []
    for occ in itertools.product(range(n_max + 1), repeat=n_sites):
        if sum(occ) == n:
            out.append(occ)
    return out


def test_single_excitation_dimension():
    for n_max in (1, 2, 3):
        assert build_sector_basis(12, 1, n_max).dim == 12


def test_hardcore_two_excitation_dimension():
    assert build_sector_basis(12, 2, 1).dim == comb(12, 2)


def test_soft_cutoff_dimension_against_oracle():
    basis = build_sector_basis(12, 2, 2)
    assert basis.dim == 78
    assert basis.dim == len(brute_force_states(12, 2, 2))


@pytest.mark.parametrize("n_sites,n,n_max",
                         [(N, n, m) for N in range(2, 9)
                          for n in range(0, 4) for m in (1, 2)
                          if n <= N * m])
def test_dimension_matches_oracle_small_sectors(n_sites, n, n_max):
    basis = build_sector_basis(n_sites, n, n_max)
    assert basis.dim == len(brute_force_states(n_sites, n, n_max))
    assert sector_dimension(n_sites, n, n_max) == basis.dim


def test_states_sorted_lexicographically_descending():
    basis = build_sector_basis(6, 3, 2)
    as_tuples = [tuple(s) for s in basis.states]
    assert as_tuples == sorted(as_tuples, reverse=True)


def test_index_roundtrip_exhaustive():
    basis = build_sector_basis(12, 2, 1)
    for idx, state in enumerate(basis.states):
        assert basis.index_of(state) == idx
    assert basis.index_of(basis.states[0]) == 0


def test_index_of_rejects_bad_occupations():
    basis = build_sector_basis(12, 2, 1)
    with pytest.raises(ValueError):
        basis.index_of([1] * 12)               # wrong total
    with pytest.raises(ValueError):
        basis.index_of([2] + [0] * 11)         # above cutoff
    with pytest.raises(ValueError):
        basis.index_of([1, 1])                 # wrong length


def test_sector_bounds():
    with pytest.raises(ValueError):
        build_sector_basis(12, 13, 1)
    with pytest.raises(ValueError):
        build_sector_basis(12, -1, 1)
    assert build_sector_basis(12, 0, 1).dim == 1


def test_fock_state_one_hot():
    basis = build_sector_basis(12, 1, 1)
    for site in (3, 9):
        state = fock_state(basis, site)
        pops = np.abs(state.amplitudes) ** 2 @ basis.states
        assert pops[site - 1] == pytest.approx(1.0)
        assert pops.sum() == pytest.approx(1.0)
        assert state.norm() == pytest.approx(1.0)


def test_fock_state_needs_single_excitation_sector():
    with pytest.raises(ValueError):
        fock_state(build_sector_basis(12, 2, 1), 3)
    with pytest.raises(ValueError):
        fock_state(build_sector_basis(12, 1, 1), 0)


def test_quantum_state_validation():
    basis = build_sector_basis(4, 1, 1)
    with pytest.raises(ValueError):
        QuantumState(np.zeros(3, dtype=complex), basis)
    state = QuantumState(np.full(4, 0.5 + 0j), basis)
    assert state.basis_tag == basis.tag
    state.check_normalized()
