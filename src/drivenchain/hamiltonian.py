"""Dense sector Hamiltonian: static bosonic hopping plus time-dependent diagonal.

The hopping term moves one excitation across a bond with the bosonic matrix
element J_l * sqrt(n_l (n_{l+1} + 1)); moves that would exceed the boson
cutoff are absent.  The diagonal collects the instantaneous site frequencies
and the onsite nonlinearity (U/2) n(n-1).  Both pieces act inside one
excitation sector by construction, so total excitation number is conserved
structurally.

Only the drive makes the Hamiltonian time dependent, and it enters as one
scalar times a fixed diagonal: H(t) = H0 + f(t) D, with H0 the hopping plus
the static diagonal.  :class:`SectorModel` holds both parts, and the
propagators are built on this split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import SectorBasis
from .model import ChainSpec, DriveSpec, PotentialSpec, _frozen_array


def hopping_matrix(chain: ChainSpec, basis: SectorBasis) -> np.ndarray:
    """Static hopping matrix of the sector (real symmetric)."""
    dim = basis.dim
    hop = np.zeros((dim, dim))
    states = basis.states
    for col in range(dim):
        v = states[col]
        for bond in range(chain.n_sites - 1):
            # move one excitation from bond -> bond+1
            if v[bond] > 0 and v[bond + 1] < basis.boson_cutoff:
                target = v.copy()
                target[bond] -= 1
                target[bond + 1] += 1
                row = basis.index_map[tuple(int(x) for x in target)]
                element = chain.bond_couplings[bond] * np.sqrt(
                    v[bond] * (v[bond + 1] + 1))
                hop[row, col] += element
                hop[col, row] += element
    return hop


@dataclass(frozen=True)
class SectorModel:
    """Chain + drive + potential + basis (the sector, cutoff included)."""

    chain: ChainSpec
    drive: DriveSpec
    potential: PotentialSpec
    basis: SectorBasis

    def __post_init__(self):
        n = self.chain.n_sites
        if self.potential.n_sites != n or self.drive.n_sites != n \
                or self.basis.n_sites != n:
            raise ValueError("chain, drive, potential and basis disagree on N")

    @cached_property
    def hopping(self) -> np.ndarray:
        return _frozen_array(hopping_matrix(self.chain, self.basis))

    @cached_property
    def drive_diagonal(self) -> np.ndarray:
        """D in H(t) = H0 + f(t) D: the drive's spatial weights in the sector."""
        return _frozen_array(self.basis.states @ self.drive.spatial_weights)

    def static_hamiltonians(self, offsets=None) -> np.ndarray:
        """(R, dim, dim) stack of H0 = hopping + static diagonal (real symmetric).

        One H0 per row of ``offsets`` (R, N), static site offsets in rad/ns;
        by default the model's own potential, R = 1.
        """
        if offsets is None:
            offsets = self.potential.static_offsets[None]
        states = self.basis.states
        # row by row: one matrix product would sum three or more terms per
        # entry in another order, so a realization would depend on R
        diag = np.stack([states @ row for row in offsets])
        if self.chain.onsite_nonlinearity != 0.0:
            diag = diag + 0.5 * self.chain.onsite_nonlinearity * (
                states * (states - 1)).sum(axis=1)
        h0 = np.repeat(self.hopping[None], len(diag), axis=0)
        index = np.arange(self.basis.dim)
        h0[:, index, index] += diag         # the hopping has no diagonal entries
        return h0

    def with_potential(self, potential: PotentialSpec) -> "SectorModel":
        return replace(self, potential=potential)
