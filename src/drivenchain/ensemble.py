"""Disorder-ensemble runners: dynamics averages and pooled spectral statistics.

All R realizations are propagated as one block by the batched functions of
:mod:`drivenchain.propagate`; aggregation is an ordered fold over
realization index, so results are a pure function of (model, disorder spec)
and equal, bit for bit, what the single-realization functions give for each
realization.  A failed numerical check aborts the whole ensemble with a
:class:`~drivenchain.errors.NumericalError` whose ``realization_index``
names the first realization that failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import fock_state
from .errors import NumericalError
from .hamiltonian import SectorModel
from .model import DisorderSpec, sample_disorder
from .propagate import evolve_states, floquet_operators
from .spectrum import RatioSample, gap_ratios, quasienergies


def _realizations(model: SectorModel, disorder: DisorderSpec) -> list:
    return [model.with_potential(model.potential.with_overlay(
        sample_disorder(disorder, idx)))
        for idx in range(disorder.realization_count)]


@dataclass(frozen=True)
class EnsembleResult:
    """Deterministic aggregate over disorder realizations."""

    times: np.ndarray                   # actual sample times (ns)
    mean_populations: np.ndarray        # (time, site)
    per_realization: tuple = ()         # optional (time, site) arrays


def run_dynamics_ensemble(model: SectorModel, disorder: DisorderSpec,
                          initial_site: int, t_samples, step: float,
                          keep_realizations: bool = False) -> EnsembleResult:
    """Mean populations over R disorder realizations of one initial state."""
    psi0 = fock_state(model.basis, initial_site)
    models = _realizations(model, disorder)
    trajectories = evolve_states(models, psi0, t_samples, step)
    stack = np.stack([np.abs(traj.amplitudes) ** 2 @ model.basis.states
                      for traj in trajectories])
    return EnsembleResult(
        trajectories[0].times, stack.mean(axis=0),
        per_realization=tuple(stack) if keep_realizations else ())


def run_spectrum_ensemble(model: SectorModel, disorder: DisorderSpec,
                          steps_per_period: int = 256) -> RatioSample:
    """Pooled quasienergy gap ratios over R disorder realizations."""
    models = _realizations(model, disorder)
    spectra = []
    for idx, operator in enumerate(floquet_operators(models, steps_per_period)):
        try:
            spectra.append(quasienergies(operator))
        except NumericalError as exc:
            raise NumericalError(f"realization {idx}: {exc}",
                                 realization_index=idx) from exc
    return gap_ratios(spectra)
