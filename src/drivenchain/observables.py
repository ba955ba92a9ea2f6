"""Populations and the ZZ correlation.

The correlation is the sigma-z expectation value.  The tests keep a second,
independent form, assembled from joint counting probabilities the way a
readout-based estimator does, and require the two to agree on any state.

For boson cutoffs above one, "qubit state one" means occupation >= 1: the
binary readout distinguishes the ground state from the excited manifold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import QuantumState, SectorBasis
from .propagate import StateTrajectory


def populations(state: QuantumState) -> np.ndarray:
    """Per-site mean occupation <n_l>, length N."""
    weights = np.abs(state.amplitudes) ** 2
    return weights @ state.basis.states


def _check_pair(basis: SectorBasis, site_i: int, site_j: int) -> None:
    if site_i == site_j:
        raise ValueError("a site pair needs two distinct sites")
    for s in (site_i, site_j):
        if not 1 <= s <= basis.n_sites:
            raise ValueError(f"site {s} outside 1..{basis.n_sites}")


def _czz(weights: np.ndarray, basis: SectorBasis, site_i: int, site_j: int):
    """<sz_i sz_j> - <sz_i><sz_j> for weights of shape (dim,) or (time, dim)."""
    _check_pair(basis, site_i, site_j)
    sz_i = 2.0 * (basis.states[:, site_i - 1] >= 1) - 1.0
    sz_j = 2.0 * (basis.states[:, site_j - 1] >= 1) - 1.0
    return weights @ (sz_i * sz_j) - (weights @ sz_i) * (weights @ sz_j)


@dataclass(frozen=True)
class ObservableSeries:
    """Populations and selected pair correlations along a trajectory."""

    times: np.ndarray                   # actual sample times (ns)
    populations: np.ndarray             # (time, site)
    correlations: dict                  # (i, j) -> array over time


def observable_series(trajectory: StateTrajectory, basis: SectorBasis,
                      pairs=()) -> ObservableSeries:
    """Evaluate populations (and optional ZZ pairs) at every sample time."""
    if trajectory.basis_tag != basis.tag:
        raise ValueError("trajectory was produced with a different basis")
    weights = np.abs(trajectory.amplitudes) ** 2
    pops = weights @ basis.states
    correlations = {(i, j): _czz(weights, basis, i, j) for (i, j) in pairs}
    return ObservableSeries(trajectory.times, np.asarray(pops, dtype=float),
                            correlations)
