"""Disorder-ensemble runners: site populations and pooled gap ratios.

Both runners take the R realizations in batches, as many as fit BATCH_BYTES.
Each batch draws its offsets (:func:`sample_disorder` of its indices),
builds its H0 stack, propagates it (:func:`evolve_state` or
:func:`floquet_operator` of that stack) and reduces it: to populations (and
ZZ correlations) written into one (realization, time, site) array, or to
quasienergy spectra, pooled in realization order by one gap_ratios call.  A
realization's arithmetic does not depend on its batch, so results are a pure
function of (model, disorder spec), and ``dynamics`` is realization 0 of
this same path.  A failed check aborts the ensemble with a
:class:`~drivenchain.errors.NumericalError` whose ``realization_index``
names the first realization that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import fock_state
from .errors import ConfigError, NumericalError
from .hamiltonian import SectorModel
from .model import DisorderSpec, sample_disorder
from .observables import observable_series
from .propagate import (DEFAULT_STEPS_PER_PERIOD, S6_DRIFTS, evolve_state,
                        floquet_operator, floquet_steps, state_grid)
from .spectrum import (DEGENERACY_RELATIVE_TOL, RatioSample, gap_ratios,
                       quasienergies, spectra_health)

#: most S6 steps one propagation may take (a state's side steps not counted)
MAX_STEPS = 1_000_000
#: most values of a dynamics ensemble's populations (realizations x samples
#: x sites, 400 MB of floats), held whole, and most complex entries of one
#: realization's prefix table
MAX_AMPLITUDES = 50_000_000
#: most bytes one batch of realizations holds while it propagates
BATCH_BYTES = 32_000_000
#: most realizations x Floquet steps x dim^3 of one spectrum run: it admits
#: sector 3 at R=200 (6.8e10) and, at the default step count, every R x
#: dim^2 <= 2e6 (at most 9.1e10)
MAX_WORK = 1e11


def _admit(model: SectorModel, disorder: DisorderSpec, steps: float,
           step: float) -> None:
    """Refuse a step count (a float, so inf too) over budget and an S6
    ``step`` whose largest H0 phase is not finite."""
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


def _batches(model: SectorModel, disorder: DisorderSpec, matrices: int,
             samples: int, propagate) -> tuple:
    """The batch size, as many realizations as fit BATCH_BYTES and at least
    one, and an iterator over the batches in order: (slice of the ensemble,
    ``propagate`` of its H0 stack).  A failed check names the realization's
    index in the ensemble."""
    count, dim = disorder.realization_count, model.basis.dim
    # one realization: H0 and its eigenvectors, the stepped block and three
    # S6 exponentials, the dim x dim ``matrices`` it emits (U(T), or the
    # prefix table), and per sample its state, weights and side-step column
    size = max(1, min(count, BATCH_BYTES // (
        16 * ((6 + matrices) * dim ** 2 + 3 * samples * dim))))

    def each():
        for first in range(0, count, size):
            batch = slice(first, min(first + size, count))
            offsets = sample_disorder(disorder, np.arange(first, batch.stop))
            try:
                yield batch, propagate(model.static_hamiltonians(
                    model.potential.static_offsets + offsets))
            except NumericalError as exc:       # a check names one row
                raise NumericalError(exc.reason, first
                                     + exc.realization_index, size) from None
    return size, each()


@dataclass(frozen=True)
class EnsembleDynamics:
    """Site populations along R trajectories of one initial state."""

    times: np.ndarray           # actual (step-aligned) sample times
    populations: np.ndarray     # (R, len(times), site)
    correlations: dict          # {(i, j): ZZ of shape (R, len(times))}
    steps: int                  # S6 grid steps spanned, plus the side steps
    step: float                 # the S6 grid step of state_grid
    batch_size: int             # realizations propagated at once


@dataclass(frozen=True)
class EnsembleRatios(RatioSample):
    """Gap ratios pooled over R realizations, their batch size and the
    quasienergies' health (:func:`~drivenchain.spectrum.spectra_health`)."""

    batch_size: int = 1
    steps: int = 0              # S6 steps each Floquet product integrated
    health: dict = field(default_factory=dict)


def run_dynamics_ensemble(model: SectorModel, disorder: DisorderSpec,
                          initial_site: int, t_samples, step: float,
                          pairs=()) -> EnsembleDynamics:
    """(realization, time, site) populations of one initial state over R
    disorder realizations, and the ZZ correlations of the site ``pairs``."""
    psi0 = fock_state(model.basis, initial_site)
    t_last, dim = float(t_samples[-1]), model.basis.dim
    # the grid step alone: no sample time is snapped before _admit
    grid_step = state_grid(model.drive, step, ())[1] if step > 0 else 0.0
    _admit(model, disorder, t_last / grid_step if grid_step else float("inf"),
           grid_step)
    shape = (disorder.realization_count, len(t_samples), model.basis.n_sites)
    if math.prod(shape) > MAX_AMPLITUDES:
        raise ConfigError(f"realizations x samples x sites = "
                          f"{math.prod(shape):.3g} exceeds {MAX_AMPLITUDES}: "
                          f"lower realizations, t_max_ns or n_sites, or raise "
                          f"sample_dt_ns")
    _, _, count, fine, snapped = state_grid(model.drive, step, t_samples)
    table = (count + 1) * dim ** 2
    if table > MAX_AMPLITUDES:
        raise ConfigError(f"one realization's prefix table, {count + 1} "
                          f"matrices of sector dimension^2, exceeds "
                          f"{MAX_AMPLITUDES}: lower steps_per_period")
    if np.any(np.diff(snapped) < 1):
        raise ConfigError(f"the sample spacing is below the propagator step "
                          f"of {fine:.3g} ns, so two samples fall on one "
                          f"step: raise steps_per_period or sample_dt_ns")
    size, batches = _batches(
        model, disorder, count + 1, len(t_samples),
        lambda h0: evolve_state(model, psi0, t_samples, step, h0))
    populations = np.empty(shape)
    correlations = {pair: np.empty(shape[:2]) for pair in pairs}
    for batch, trajectory in batches:
        populations[batch], czz = observable_series(trajectory.amplitudes,
                                                    model.basis, pairs)
        for pair in pairs:
            correlations[pair][batch] = czz[pair]
    return EnsembleDynamics(trajectory.times, populations, correlations,
                            trajectory.steps, trajectory.step, size)


def run_spectrum_ensemble(model: SectorModel, disorder: DisorderSpec,
                          steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                          ) -> EnsembleRatios:
    """Pooled quasienergy gap ratios over R disorder realizations; a sample
    whose every ratio touches a degenerate gap is refused."""
    per_period, steps = floquet_steps(model.drive, steps_per_period)
    _admit(model, disorder, steps, model.drive.period / per_period)
    work = disorder.realization_count * steps * model.basis.dim ** 3
    if work > MAX_WORK:
        raise ConfigError(f"realizations x Floquet steps x sector dimension^3 "
                          f"= {work:.3g} exceeds the work budget {MAX_WORK:g}: "
                          f"lower realizations, steps_per_period, n_sites, "
                          f"sector or boson_cutoff")
    size, batches = _batches(
        model, disorder, 1, 0,
        lambda h0: quasienergies(floquet_operator(model, steps_per_period,
                                                  h0)))
    spectra = [spectrum for _, batch in batches for spectrum in batch]
    sample = gap_ratios(spectra)
    if sample.count == 0:
        raise ConfigError(f"all {sample.discarded_degenerate} gap ratios touch "
                          f"a degenerate quasienergy gap (below "
                          f"{DEGENERACY_RELATIVE_TOL:g} x the drive frequency), "
                          f"e.g. every coupling is 0: no level statistics")
    return EnsembleRatios(sample.ratios, sample.discarded_degenerate, size,
                          steps, spectra_health(spectra))
