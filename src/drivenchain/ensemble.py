"""Disorder-ensemble runners: state trajectories and pooled gap ratios.

An ensemble stays one block of arrays from the (R, N) disorder offsets to
the data file: one (R, dim, dim) stack of static Hamiltonians, one batched
propagation by :mod:`drivenchain.propagate`, one batched eigenvalue call.
A dynamics ensemble returns its (realization, time, dim) amplitudes, which
:mod:`drivenchain.observables` reads.  Results are a pure function of
(model, disorder spec), and the ``dynamics`` command is realization 0 of
this same path.  A failed numerical check aborts the whole ensemble with a
:class:`~drivenchain.errors.NumericalError` whose ``realization_index``
names the first realization that failed.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import fock_state
from .errors import ConfigError
from .hamiltonian import SectorModel
from .model import DisorderSpec, sample_disorders
from .propagate import (DEFAULT_STEPS_PER_PERIOD, S6_DRIFTS, S6_SUBSTEPS,
                        StateTrajectory, evolve_states, floquet_operators,
                        floquet_steps, state_grid)
from .spectrum import (DEGENERACY_RELATIVE_TOL, RatioSample, gap_ratios,
                       quasienergies)

#: most entries of the realizations x dim x dim block a runner propagates
MAX_BLOCK = 2_000_000
#: most S6 steps one propagation may take (a state's side steps not counted)
MAX_STEPS = 1_000_000
#: most complex amplitudes of a dynamics ensemble's output (realizations x
#: samples x dim, 800 MB), held whole, and of one realization's prefix table
MAX_AMPLITUDES = 50_000_000


def _admit(model: SectorModel, disorder: DisorderSpec, steps: float,
           step: float) -> None:
    """Refuse a block, or a step count (a float, so inf too), over budget,
    and an S6 ``step`` whose largest H0 phase is not finite."""
    block = disorder.realization_count * model.basis.dim ** 2
    if block > MAX_BLOCK:
        raise ConfigError(f"realizations x sector dimension^2 = {block:.3g} "
                          f"exceeds {MAX_BLOCK}: lower realizations, n_sites, "
                          f"sector or boson_cutoff")
    if not steps <= MAX_STEPS:
        raise ConfigError(f"the run needs {steps:.3g} propagator steps, more "
                          f"than {MAX_STEPS}: lower the drive frequency, "
                          f"t_max_ns or steps_per_period")
    # Gershgorin: |H0| <= sector (max|offset| + W) + |U|/2 sector (cutoff - 1)
    # on the diagonal plus 2 cutoff sum|J| off it; one S6 step applies at
    # most max(S6_DRIFTS) step |H0|, and the draw computes 2W.  In Python
    # floats, so an overflow reads inf and warns nothing
    basis, chain = model.basis, model.chain
    bound = (basis.total_excitations * (
        float(np.abs(model.potential.static_offsets).max()) + disorder.strength
        + 0.5 * abs(chain.onsite_nonlinearity) * (basis.boson_cutoff - 1))
        + 2 * basis.boson_cutoff * sum(map(abs, chain.bond_couplings.tolist())))
    phase = max(S6_DRIFTS) * float(step) * bound
    if not (math.isfinite(phase) and math.isfinite(2 * disorder.strength)):
        raise ConfigError(f"the largest H0 phase of one S6 step, {phase:.3g}, "
                          f"or the disorder draw's span 2 x "
                          f"{disorder.strength:.3g} rad/ns is not finite: "
                          f"lower flat_level_fraction, dc_amplitude_over_j, "
                          f"disorder_w_over_j, coupling_mhz or "
                          f"nonlinearity_mhz, or raise drive_frequency_mhz or "
                          f"steps_per_period")


def _static_hamiltonians(model: SectorModel, disorder: DisorderSpec):
    """H0 of every realization: the model's potential plus its disorder draw."""
    return model.static_hamiltonians(model.potential.static_offsets
                                     + sample_disorders(disorder))


def run_dynamics_ensemble(model: SectorModel, disorder: DisorderSpec,
                          initial_site: int, t_samples, step: float
                          ) -> StateTrajectory:
    """(realization, time, dim) amplitudes of one initial state over R
    disorder realizations."""
    psi0 = fock_state(model.basis, initial_site)
    t_last, dim = float(t_samples[-1]), model.basis.dim
    _, grid_step, count = (state_grid(model.drive, step, t_last) if step > 0
                           else (1, 0.0, 0))
    _admit(model, disorder, t_last / grid_step if grid_step else float("inf"),
           grid_step)
    amplitudes = disorder.realization_count * len(t_samples) * dim
    if amplitudes > MAX_AMPLITUDES:
        raise ConfigError(f"realizations x samples x sector dimension = "
                          f"{amplitudes:.3g} exceeds {MAX_AMPLITUDES}: lower "
                          f"realizations, t_max_ns or n_sites, or raise sample_dt_ns")
    if (count + 1) * dim ** 2 > MAX_AMPLITUDES:
        raise ConfigError(f"one realization's prefix table, {count + 1} "
                          f"matrices of sector dimension^2, exceeds "
                          f"{MAX_AMPLITUDES}: lower steps_per_period")
    fine = grid_step / S6_SUBSTEPS
    if np.any(np.diff(np.rint(np.asarray(t_samples) / fine)) < 1):
        raise ConfigError(f"the sample spacing is below the propagator step "
                          f"of {fine:.3g} ns, so two samples fall on one "
                          f"step: raise steps_per_period or sample_dt_ns")
    return evolve_states(model, _static_hamiltonians(model, disorder), psi0,
                         t_samples, step)


def run_spectrum_ensemble(model: SectorModel, disorder: DisorderSpec,
                          steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                          ) -> RatioSample:
    """Pooled quasienergy gap ratios over R disorder realizations; a sample
    whose every ratio touches a degenerate gap is refused."""
    _admit(model, disorder, floquet_steps(model.drive, steps_per_period),
           model.drive.period / max(1, steps_per_period // S6_SUBSTEPS))
    operators = floquet_operators(model, _static_hamiltonians(model, disorder),
                                  steps_per_period)
    sample = gap_ratios(quasienergies(operators))
    if sample.count == 0:
        raise ConfigError(f"all {sample.discarded_degenerate} gap ratios touch "
                          f"a degenerate quasienergy gap (below "
                          f"{DEGENERACY_RELATIVE_TOL:g} x the drive frequency), "
                          f"e.g. every coupling is 0: no level statistics")
    return sample
