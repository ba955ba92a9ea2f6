"""Populations, joint two-site probabilities, and the ZZ correlation.

The correlation is implemented twice on purpose: once from the joint
counting probabilities (the way a readout-based estimator assembles it) and
once as the sigma-z expectation value.  The two must agree on any state;
their equality is a permanent regression test.

For boson cutoffs above one, "qubit state one" means occupation >= 1: the
binary readout distinguishes the ground state from the excited manifold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import QuantumState, SectorBasis
from .propagate import StateTrajectory

_PROBABILITY_TOL = 1e-9


def populations(state: QuantumState) -> np.ndarray:
    """Per-site mean occupation <n_l>, length N."""
    weights = np.abs(state.amplitudes) ** 2
    return weights @ state.basis.states


@dataclass(frozen=True)
class JointProbabilities:
    """Binary joint and marginal occupation probabilities for a site pair."""

    p00: float
    p01: float
    p10: float
    p11: float
    p0_i: float
    p1_i: float
    p0_j: float
    p1_j: float


def _check_pair(basis: SectorBasis, site_i: int, site_j: int) -> None:
    if site_i == site_j:
        raise ValueError("a site pair needs two distinct sites")
    for s in (site_i, site_j):
        if not 1 <= s <= basis.n_sites:
            raise ValueError(f"site {s} outside 1..{basis.n_sites}")


def joint_probabilities(state: QuantumState, site_i: int, site_j: int
                        ) -> JointProbabilities:
    """P_ab(i, j) with a, b in {0, 1}; occupation >= 1 counts as "one"."""
    basis = state.basis
    _check_pair(basis, site_i, site_j)
    weights = np.abs(state.amplitudes) ** 2
    occ_i = basis.states[:, site_i - 1] >= 1
    occ_j = basis.states[:, site_j - 1] >= 1
    p11 = float(weights[occ_i & occ_j].sum())
    p10 = float(weights[occ_i & ~occ_j].sum())
    p01 = float(weights[~occ_i & occ_j].sum())
    p00 = float(weights[~occ_i & ~occ_j].sum())
    return JointProbabilities(p00, p01, p10, p11,
                              p0_i=p00 + p01, p1_i=p10 + p11,
                              p0_j=p00 + p10, p1_j=p01 + p11)


def czz_from_counts(p00: float, p01: float, p10: float, p11: float,
                    p0_i: float, p1_i: float, p0_j: float, p1_j: float) -> float:
    """ZZ correlation from counting probabilities.

    C = P00 + P11 - P01 - P10 - (P0(i) - P1(i)) (P0(j) - P1(j)).
    """
    total = p00 + p01 + p10 + p11
    if abs(total - 1.0) > _PROBABILITY_TOL:
        raise ValueError(f"joint probabilities sum to {total}, not 1")
    for name, joint, marg in (("i", p10 + p11, p1_i), ("j", p01 + p11, p1_j)):
        if abs(joint - marg) > _PROBABILITY_TOL:
            raise ValueError(f"marginal of site {name} inconsistent with joints")
    if abs(p0_i + p1_i - 1.0) > _PROBABILITY_TOL or abs(p0_j + p1_j - 1.0) > _PROBABILITY_TOL:
        raise ValueError("marginals do not sum to 1")
    return (p00 + p11 - p01 - p10) - (p0_i - p1_i) * (p0_j - p1_j)


def _czz(weights: np.ndarray, basis: SectorBasis, site_i: int, site_j: int):
    """<sz_i sz_j> - <sz_i><sz_j> for weights of shape (dim,) or (time, dim)."""
    _check_pair(basis, site_i, site_j)
    sz_i = 2.0 * (basis.states[:, site_i - 1] >= 1) - 1.0
    sz_j = 2.0 * (basis.states[:, site_j - 1] >= 1) - 1.0
    return weights @ (sz_i * sz_j) - (weights @ sz_i) * (weights @ sz_j)


def czz_expectation(state: QuantumState, site_i: int, site_j: int) -> float:
    """ZZ correlation as <sz_i sz_j> - <sz_i><sz_j> with sz = 2*[n>=1] - 1."""
    return float(_czz(np.abs(state.amplitudes) ** 2, state.basis, site_i, site_j))


def czz(state: QuantumState, site_i: int, site_j: int) -> float:
    """ZZ correlation via the counting estimator."""
    jp = joint_probabilities(state, site_i, site_j)
    return czz_from_counts(jp.p00, jp.p01, jp.p10, jp.p11,
                           jp.p0_i, jp.p1_i, jp.p0_j, jp.p1_j)


@dataclass(frozen=True)
class ObservableSeries:
    """Populations and selected pair correlations along a trajectory."""

    times: np.ndarray                   # actual sample times (ns)
    populations: np.ndarray             # (time, site)
    correlations: dict                  # (i, j) -> array over time

    @property
    def n_sites(self) -> int:
        return self.populations.shape[1]

    def total_population(self) -> np.ndarray:
        return self.populations.sum(axis=1)


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
