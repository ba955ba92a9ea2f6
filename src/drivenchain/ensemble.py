"""Disorder-ensemble runners: dynamics averages and pooled spectral statistics.

An ensemble stays one block of arrays from the (R, N) disorder offsets to
the data file: one (R, dim, dim) stack of static Hamiltonians, one batched
propagation by :mod:`drivenchain.propagate`, one batched eigenvalue call.
Aggregation is an ordered fold over realization index, so results are a
pure function of (model, disorder spec), and the ``dynamics`` command is
realization 0 of this same path.  A failed numerical check aborts the
whole ensemble with a :class:`~drivenchain.errors.NumericalError` whose
``realization_index`` names the first realization that failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import fock_state
from .hamiltonian import SectorModel
from .model import DisorderSpec, sample_disorders
from .propagate import DEFAULT_STEPS_PER_PERIOD, evolve_states, floquet_operators
from .spectrum import RatioSample, gap_ratios, quasienergies


def _static_hamiltonians(model: SectorModel, disorder: DisorderSpec):
    """H0 of every realization: the model's potential plus its disorder draw."""
    return model.static_hamiltonians(model.potential.static_offsets
                                     + sample_disorders(disorder))


@dataclass(frozen=True)
class EnsembleResult:
    """Per-realization evolution of one initial state."""

    times: np.ndarray                   # actual sample times (ns)
    weights: np.ndarray                 # (realization, time, dim) |psi|^2
    populations: np.ndarray             # (realization, time, site)

    @property
    def mean_populations(self) -> np.ndarray:
        """(time, site) mean over realizations."""
        return self.populations.mean(axis=0)


def run_dynamics_ensemble(model: SectorModel, disorder: DisorderSpec,
                          initial_site: int, t_samples, step: float
                          ) -> EnsembleResult:
    """Populations over R disorder realizations of one initial state."""
    trajectory = evolve_states(model, _static_hamiltonians(model, disorder),
                               fock_state(model.basis, initial_site),
                               t_samples, step)
    weights = np.abs(trajectory.amplitudes) ** 2
    return EnsembleResult(trajectory.times, weights,
                          weights @ model.basis.states)


def run_spectrum_ensemble(model: SectorModel, disorder: DisorderSpec,
                          steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                          ) -> RatioSample:
    """Pooled quasienergy gap ratios over R disorder realizations."""
    operators = floquet_operators(model, _static_hamiltonians(model, disorder),
                                  steps_per_period)
    return gap_ratios(quasienergies(operators))
