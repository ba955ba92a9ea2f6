"""Populations and the ZZ correlation.

The correlation is the sigma-z expectation value.  The tests keep a second,
independent form, assembled from joint counting probabilities the way a
readout-based estimator does, and require the two to agree on any state.
Along a trajectory, :func:`observable_series` reads the |psi|^2 weights of
a (time, dim) amplitude array, such as one realization of an ensemble.

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
    """<sz_i sz_j> - <sz_i><sz_j> for weights of shape (dim,) or (time, dim)."""
    _check_pair(basis, site_i, site_j)
    sz_i = 2.0 * (basis.states[:, site_i - 1] >= 1) - 1.0
    sz_j = 2.0 * (basis.states[:, site_j - 1] >= 1) - 1.0
    return weights @ (sz_i * sz_j) - (weights @ sz_i) * (weights @ sz_j)


def observable_series(weights: np.ndarray, basis: SectorBasis, pairs=()):
    """(time, site) populations and {(i, j): ZZ over time} from the
    |psi|^2 ``weights`` (time, dim) of a trajectory in ``basis``."""
    if weights.shape[-1] != basis.dim:
        raise ValueError(f"weights of dimension {weights.shape[-1]} do not "
                         f"fit basis dimension {basis.dim}")
    correlations = {(i, j): _czz(weights, basis, i, j) for (i, j) in pairs}
    return weights @ basis.states, correlations
