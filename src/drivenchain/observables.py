"""Populations and the ZZ correlation.

The correlation is the sigma-z expectation value.  The tests keep a second,
independent form, assembled from joint counting probabilities the way a
readout-based estimator does, and require the two to agree on any state.
Every population and ZZ value a command writes comes from
:func:`observable_series`, which squares the amplitudes once: the
ensemble runners call it on each batch's (realization, time, dim) block.

For boson cutoffs above one, "qubit state one" means occupation >= 1: the
binary readout distinguishes the ground state from the excited manifold.
"""

from __future__ import annotations

import numpy as np

from .basis import SectorBasis


def _check_pair(basis: SectorBasis, site_i: int, site_j: int) -> None:
    if site_i == site_j:
        raise ValueError("a site pair needs two distinct sites")
    for s in (site_i, site_j):
        if not 1 <= s <= basis.n_sites:
            raise ValueError(f"site {s} outside 1..{basis.n_sites}")


def _czz(weights: np.ndarray, basis: SectorBasis, site_i: int, site_j: int):
    """<sz_i sz_j> - <sz_i><sz_j> for |psi|^2 weights of shape (..., dim)."""
    _check_pair(basis, site_i, site_j)
    sz_i = 2.0 * (basis.states[:, site_i - 1] >= 1) - 1.0
    sz_j = 2.0 * (basis.states[:, site_j - 1] >= 1) - 1.0
    return weights @ (sz_i * sz_j) - (weights @ sz_i) * (weights @ sz_j)


def observable_series(amplitudes: np.ndarray, basis: SectorBasis, pairs=()):
    """(..., time, site) populations and {(i, j): ZZ of shape (..., time)}
    from the ``amplitudes`` (..., time, dim) of trajectories in ``basis``."""
    if amplitudes.shape[-1] != basis.dim:
        raise ValueError(f"amplitudes of dimension {amplitudes.shape[-1]} do "
                         f"not fit basis dimension {basis.dim}")
    weights = np.abs(amplitudes) ** 2
    correlations = {(i, j): _czz(weights, basis, i, j) for (i, j) in pairs}
    return weights @ basis.states, correlations
