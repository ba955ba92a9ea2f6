"""Disorder-ensemble runners: site populations and pooled gap ratios.

Both runners take the R realizations in batches, as many as fit BATCH_BYTES.
Each batch draws its offsets (:func:`sample_disorder` of its indices),
builds its H0 stack, propagates it (:func:`evolve_state` or
:func:`floquet_operator` of that stack) and is reduced before the next: its
populations (and ZZ correlations) go to the caller's per-batch consumer, its
quasienergy spectra to one gap_ratios call in realization order.  No array
spans the realizations, so memory stays per batch while time grows with R.
A realization's arithmetic does not depend on its batch, so results are a
pure function of (model, disorder spec), and ``dynamics`` is realization 0
of this same path.  A runner writes its facts into the caller's run record
as it learns them (batch size, steps, health, or the ensemble index of a
failed check, whose NumericalError aborts it), for the CLI's manifest.
"""

from __future__ import annotations

import math

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
#: most bytes one realization may hold while it propagates (see _batches)
MAX_REALIZATION_BYTES = 800_000_000
#: most S6 steps P per period of a Floquet product, for the absolute
#: UNITARITY_TOL: the worst defect of a right operator grows with P (of
#: 200 flat W=3J realizations, 2.4e-11 here and 9.6e-11 at 4 x this P)
MAX_FLOQUET_STEPS = 32_768
#: most bytes one batch of realizations holds while it propagates
BATCH_BYTES = 32_000_000
#: most work R x (K dim + 10 samples) dim^2 of one ensemble (_admit): it
#: admits spectrum sector 3 at R=200 (6.8e10) and the default ensemble of
#: R=10,000 at 1000 ns (1.55e10).  Per unit, spectrum sector 3 took 1.1e-9 s
#: and the dim-12 ensemble 1.07e-8 s per R samples dim^2 (flat W=3J, 2-core
#: OpenBLAS host), hence the 10: either runner's largest run takes ~100 s
MAX_WORK = 1e11


def _admit(model: SectorModel, disorder: DisorderSpec, steps: float,
           step: float, samples: int = 0) -> None:
    """Refuse a step count (a float, so inf too) over budget, an S6
    ``step`` whose largest H0 phase is not finite, and a run of ``samples``
    states (none for a spectrum) over the work budget."""
    if not steps <= MAX_STEPS:      # rounded up: it never reads as in bound
        raise ConfigError(f"the run needs {np.ceil(steps):.9g} propagator "
                          f"steps, more than {MAX_STEPS}: lower the drive "
                          f"frequency, t_max_ns or steps_per_period")
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
    # K steps of a dim x dim block (a Floquet product, or a state's prefix
    # table of at most a period) and a few dim^2 products per sample
    work = disorder.realization_count * basis.dim ** 2 * (min(
        steps, round(model.drive.period / step)) * basis.dim + 10 * samples)
    if work > MAX_WORK:
        raise ConfigError(f"R x (S6 steps x dim + 10 x samples) x dim^2 = "
                          f"{work:.3g} exceeds the work budget {MAX_WORK:g}: "
                          f"lower realizations, t_max_ns, steps_per_period, "
                          f"n_sites, sector or boson_cutoff, or raise "
                          f"sample_dt_ns")


def _batches(model: SectorModel, disorder: DisorderSpec, matrices: int,
             samples: int, propagate, record: dict):
    """The batches in order, as many realizations as fit BATCH_BYTES and at
    least one: (slice of the ensemble, ``propagate`` of its H0 stack).
    ``record`` gets the ``batch_size`` and, from a failed check, the
    ``realization_index`` in the ensemble that its message names."""
    count, dim = disorder.realization_count, model.basis.dim
    # one realization: H0 and its eigenvectors, the stepped block and three
    # S6 exponentials, the dim x dim ``matrices`` it emits (U(T), or the
    # prefix table), and per sample its state, weights and side-step column
    per = 16 * ((6 + matrices) * dim ** 2 + 3 * samples * dim)
    if per > MAX_REALIZATION_BYTES:
        raise ConfigError(f"one realization holds {per:.3g} bytes, more than "
                          f"{MAX_REALIZATION_BYTES}, in {matrices} matrices "
                          f"(its prefix table, or U(T)) and {samples} samples: "
                          f"lower steps_per_period or t_max_ns")
    size = record["batch_size"] = max(1, min(count, BATCH_BYTES // per))
    for first in range(0, count, size):
        batch = slice(first, min(first + size, count))
        offsets = sample_disorder(disorder, np.arange(first, batch.stop))
        try:
            yield batch, propagate(model.static_hamiltonians(
                model.potential.static_offsets + offsets))
        except NumericalError as exc:       # a check names one row
            index = record["realization_index"] = (first
                                                   + exc.realization_index)
            raise NumericalError(exc.reason, index) from None


def run_dynamics_ensemble(model: SectorModel, disorder: DisorderSpec,
                          initial_site: int, t_samples, step: float, each,
                          pairs=(), record: dict | None = None) -> np.ndarray:
    """Populations of one initial state over R disorder realizations and
    the ZZ correlations of the site ``pairs``, handed on as each batch is
    propagated, in order: ``each(slice of the ensemble, sample times,
    (realization, time, site) populations, {(i, j): (realization, time)})``.
    Returns the step-aligned sample times; ``record`` gets _batches' facts,
    then the grid's S6 steps (side steps included) and step."""
    record = {} if record is None else record
    psi0 = fock_state(model.basis, initial_site)
    # the grid step alone: no sample time is snapped before _admit
    grid_step = state_grid(model.drive, step, ())[1] if step > 0 else 0.0
    _admit(model, disorder, float(t_samples[-1]) / grid_step if grid_step
           else float("inf"), grid_step, len(t_samples))
    _, _, count, fine, snapped = state_grid(model.drive, step, t_samples)
    if np.any(np.diff(snapped) < 1):
        raise ConfigError(f"the sample spacing is below the propagator step "
                          f"of {fine:.3g} ns, so two samples fall on one "
                          f"step: raise steps_per_period or sample_dt_ns")
    for batch, trajectory in _batches(
            model, disorder, count + 1, len(t_samples),
            lambda h0: evolve_state(model, psi0, t_samples, step, h0), record):
        each(batch, trajectory.times, *observable_series(
            trajectory.amplitudes, model.basis, pairs))
    record.update(state_steps_integrated=trajectory.steps,
                  state_step_ns=trajectory.step)
    return trajectory.times


def run_spectrum_ensemble(model: SectorModel, disorder: DisorderSpec,
                          steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
                          record: dict | None = None) -> RatioSample:
    """Pooled quasienergy gap ratios over R disorder realizations; a sample
    whose every ratio touches a degenerate gap is refused.  ``record`` gets
    _batches' facts, then each product's S6 steps and the spectra_health."""
    record = {} if record is None else record
    per_period, steps = floquet_steps(model.drive, steps_per_period)
    # P <= MAX_FLOQUET_STEPS keeps K below MAX_STEPS
    if per_period > MAX_FLOQUET_STEPS:
        raise ConfigError(f"the Floquet product would take {per_period} S6 "
                          f"steps per period, more than {MAX_FLOQUET_STEPS}: "
                          f"its roundoff nears the unitarity tolerance; lower "
                          f"steps_per_period ({steps_per_period})")
    _admit(model, disorder, steps, model.drive.period / per_period)
    spectra = [spectrum for _, batch in _batches(
        model, disorder, 1, 0, lambda h0: quasienergies(
            floquet_operator(model, steps_per_period, h0)), record)
        for spectrum in batch]
    sample = gap_ratios(spectra)
    if sample.count == 0:
        raise ConfigError(f"all {sample.discarded_degenerate} gap ratios touch "
                          f"a degenerate quasienergy gap (below "
                          f"{DEGENERACY_RELATIVE_TOL:g} x the drive frequency), "
                          f"e.g. every coupling is 0: no level statistics")
    record.update(floquet_steps_integrated=steps,
                  health=spectra_health(spectra))
    return sample
