"""Occupation-number basis for a fixed total excitation number.

The Hamiltonian conserves the total excitation number (the drive only
modulates the diagonal), so everything runs inside one sector.  States are
occupation vectors of length N with entries in 0..n_max summing to n,
enumerated in descending lexicographic order; the inverse index map is a
plain dict.  Sectors here are small (a few hundred states at most), so no
hashing tricks are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SectorBasis:
    """All occupation vectors with a fixed total excitation number."""

    n_sites: int
    total_excitations: int
    boson_cutoff: int
    states: np.ndarray          # (dim, n_sites) int array, lexicographic descending
    index_map: dict             # occupation tuple -> row index

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, occupation) -> int:
        """Dense index of an occupation vector; raises on invalid input."""
        key = tuple(int(x) for x in occupation)
        if len(key) != self.n_sites:
            raise ValueError(f"occupation must have {self.n_sites} entries")
        if sum(key) != self.total_excitations:
            raise ValueError(
                f"occupation sums to {sum(key)}, sector has {self.total_excitations}")
        if any(x < 0 or x > self.boson_cutoff for x in key):
            raise ValueError("occupation entry outside 0..n_max")
        return self.index_map[key]


def sector_dimension(n_sites: int, total_excitations: int,
                     boson_cutoff: int) -> int:
    """Number of states in a sector, counted without enumerating them.

    Inclusion-exclusion over the k sites that exceed the cutoff.
    """
    return sum((-1) ** k * comb(n_sites, k)
               * comb(total_excitations - k * (boson_cutoff + 1) + n_sites - 1,
                      n_sites - 1)
               for k in range(min(n_sites, total_excitations // (boson_cutoff + 1))
                              + 1))


def build_sector_basis(n_sites: int, total_excitations: int,
                       boson_cutoff: int = 1) -> SectorBasis:
    """Enumerate the sector in descending lexicographic order."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if boson_cutoff < 1:
        raise ValueError("boson_cutoff must be >= 1")
    if not 0 <= total_excitations <= n_sites * boson_cutoff:
        raise ValueError(
            f"total excitations {total_excitations} outside 0..{n_sites * boson_cutoff}")

    states = []
    vec = [0] * n_sites

    def fill(pos: int, remaining: int):
        if pos == n_sites:
            if remaining == 0:
                states.append(tuple(vec))
            return
        # remaining excitations must fit in the sites left after this one
        tail_capacity = (n_sites - pos - 1) * boson_cutoff
        top = min(remaining, boson_cutoff)
        bottom = max(0, remaining - tail_capacity)
        for k in range(top, bottom - 1, -1):
            vec[pos] = k
            fill(pos + 1, remaining - k)
        vec[pos] = 0

    fill(0, total_excitations)
    arr = np.array(states, dtype=np.int64)
    arr.flags.writeable = False
    index_map = {state: i for i, state in enumerate(states)}
    return SectorBasis(n_sites, total_excitations, boson_cutoff, arr, index_map)


def fock_state(basis: SectorBasis, site: int) -> np.ndarray:
    """Read-only (dim,) amplitudes of one excitation at a 1-based site (n=1)."""
    if basis.total_excitations != 1:
        raise ConfigError("a single-excitation initial state needs sector = 1")
    if not 1 <= site <= basis.n_sites:
        raise ValueError(f"site {site} outside 1..{basis.n_sites}")
    occupation = [0] * basis.n_sites
    occupation[site - 1] = 1
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(occupation)] = 1.0
    amps.flags.writeable = False
    return amps
