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
from .errors import ConfigError
from .hamiltonian import SectorModel
from .model import DisorderSpec, sample_disorders
from .propagate import (DEFAULT_STEPS_PER_PERIOD, evolve_states, floquet_operators,
                        floquet_steps)
from .spectrum import RatioSample, gap_ratios, quasienergies

#: most entries of the realizations x dim x dim block a runner propagates
MAX_BLOCK = 2_000_000
#: most split-operator steps one propagation may take
MAX_STEPS = 1_000_000
#: most complex amplitudes (realizations x samples x dim, 800 MB) a dynamics
#: ensemble holds at once
MAX_AMPLITUDES = 50_000_000


def _admit(model: SectorModel, disorder: DisorderSpec, steps: float) -> None:
    """Refuse a block, or a step count (a float, so inf too), over budget."""
    block = disorder.realization_count * model.basis.dim ** 2
    if block > MAX_BLOCK:
        raise ConfigError(f"realizations x sector dimension^2 = {block:.3g} "
                          f"exceeds {MAX_BLOCK}: lower realizations, n_sites, "
                          f"sector or boson_cutoff")
    if not steps <= MAX_STEPS:
        raise ConfigError(f"the run needs {steps:.3g} propagator steps, more "
                          f"than {MAX_STEPS}: lower the drive frequency, "
                          f"t_max_ns or steps_per_period")


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
    psi0 = fock_state(model.basis, initial_site)
    _admit(model, disorder, float(t_samples[-1]) / step if step else float("inf"))
    amplitudes = disorder.realization_count * len(t_samples) * model.basis.dim
    if amplitudes > MAX_AMPLITUDES:
        raise ConfigError(f"realizations x samples x sector dimension = "
                          f"{amplitudes:.3g} exceeds {MAX_AMPLITUDES}: lower "
                          f"realizations, t_max_ns or n_sites, or raise sample_dt_ns")
    if np.any(np.diff(np.rint(np.asarray(t_samples) / step)) < 1):
        raise ConfigError(f"the sample spacing is below the propagator step "
                          f"of {step:.3g} ns, so two samples fall on one "
                          f"step: raise steps_per_period or sample_dt_ns")
    trajectory = evolve_states(model, _static_hamiltonians(model, disorder),
                               psi0, t_samples, step)
    weights = np.abs(trajectory.amplitudes) ** 2
    return EnsembleResult(trajectory.times, weights,
                          weights @ model.basis.states)


def run_spectrum_ensemble(model: SectorModel, disorder: DisorderSpec,
                          steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                          ) -> RatioSample:
    """Pooled quasienergy gap ratios over R disorder realizations."""
    _admit(model, disorder, floquet_steps(model.drive, steps_per_period))
    operators = floquet_operators(model, _static_hamiltonians(model, disorder),
                                  steps_per_period)
    return gap_ratios(quasienergies(operators))
