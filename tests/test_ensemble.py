import numpy as np
import pytest

from drivenchain.basis import build_sector_basis, fock_state
from drivenchain.ensemble import run_dynamics_ensemble, run_spectrum_ensemble
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import (ChainSpec, DisorderSpec, DriveSpec,
                               build_potential, sample_disorder)
from drivenchain.propagate import (evolve_state, evolve_states,
                                   floquet_operator, floquet_operators)
from drivenchain.spectrum import gap_ratios, quasienergies
from drivenchain.units import rad_ns_from_mhz

J = rad_ns_from_mhz(11.5)
OMEGA = rad_ns_from_mhz(19.665764062481905)
N = 12


def make_model():
    chain = ChainSpec.uniform(N, J)
    drive = DriveSpec.cosine(N, 3 * J, 3 * J, OMEGA)
    potential = build_potential("flat", N, 3 * J)
    basis = build_sector_basis(N, 1, 1)
    return SectorModel(chain, drive, potential, basis)


def disorder(w_over_j, seed=99, count=4):
    return DisorderSpec(N, w_over_j * J, master_seed=seed,
                        realization_count=count)


T_SAMPLES = np.arange(0.0, 61.0, 5.0)
STEP = 0.2


def test_zero_disorder_average_equals_single_run():
    model = make_model()
    spec = disorder(0.0, count=2)
    result = run_dynamics_ensemble(model, spec, 3, T_SAMPLES, STEP)
    traj = evolve_state(model, fock_state(model.basis, 3), T_SAMPLES, STEP)
    single = np.abs(traj.amplitudes) ** 2 @ model.basis.states
    assert np.array_equal(result.mean_populations, single)


def test_mean_is_arithmetic_mean_of_kept_realizations():
    model = make_model()
    result = run_dynamics_ensemble(model, disorder(3.0), 3, T_SAMPLES, STEP,
                                   keep_realizations=True)
    stacked = np.stack(result.per_realization)
    assert np.abs(stacked.mean(axis=0) - result.mean_populations).max() < 1e-12
    assert len(result.per_realization) == 4


def test_population_bounds_and_conservation():
    model = make_model()
    result = run_dynamics_ensemble(model, disorder(5.0), 3, T_SAMPLES, STEP)
    assert result.mean_populations.min() >= 0.0
    assert result.mean_populations.max() <= 1.0
    assert np.abs(result.mean_populations.sum(axis=1) - 1.0).max() < 1e-9


def realization_models(model, spec):
    return [model.with_potential(
        model.potential.with_overlay(sample_disorder(spec, i)))
        for i in range(spec.realization_count)]


def test_batch_equals_single_realizations_bitwise():
    # one batch of R realizations against R batches of one
    model = make_model()
    spec = disorder(3.0, count=6)
    models = realization_models(model, spec)
    psi0 = fock_state(model.basis, 3)
    batch = evolve_states(models, psi0, T_SAMPLES, STEP)
    singles = [evolve_state(m, psi0, T_SAMPLES, STEP) for m in models]
    for b, s in zip(batch, singles):
        assert np.array_equal(b.amplitudes, s.amplitudes)
        assert np.array_equal(b.times, s.times)
    result = run_dynamics_ensemble(model, spec, 3, T_SAMPLES, STEP,
                                   keep_realizations=True)
    for pops, s in zip(result.per_realization, singles):
        assert np.array_equal(pops, np.abs(s.amplitudes) ** 2 @ model.basis.states)

    operators = floquet_operators(models, 64)
    single_ops = [floquet_operator(m, 64) for m in models]
    for b, s in zip(operators, single_ops):
        assert np.array_equal(b.matrix, s.matrix)
    pooled = run_spectrum_ensemble(model, spec, 64)
    direct = gap_ratios([quasienergies(s) for s in single_ops])
    assert np.array_equal(pooled.ratios, direct.ratios)


def test_ensemble_reruns_bitwise():
    model = make_model()
    spec = disorder(3.0, count=5)
    first = run_dynamics_ensemble(model, spec, 3, T_SAMPLES, STEP)
    again = run_dynamics_ensemble(model, spec, 3, T_SAMPLES, STEP)
    assert np.array_equal(first.mean_populations, again.mean_populations)
    assert np.array_equal(run_spectrum_ensemble(model, spec, 64).ratios,
                          run_spectrum_ensemble(model, spec, 64).ratios)


def test_disorder_suppresses_penetration():
    # fixed seeds: stronger disorder pins the excitation in the driven half
    model = make_model()
    t_samples = np.arange(0.0, 151.0, 2.0)
    clean = run_dynamics_ensemble(model, disorder(0.0, count=2), 3,
                                  t_samples, STEP)
    dirty = run_dynamics_ensemble(model, disorder(5.0, seed=7, count=4), 3,
                                  t_samples, STEP)
    deep_clean = clean.mean_populations[:, 8:].sum(axis=1).mean()
    deep_dirty = dirty.mean_populations[:, 8:].sum(axis=1).mean()
    assert deep_dirty < deep_clean


def test_spectrum_ensemble_single_realization_reduces_to_gap_ratios():
    model = make_model()
    spec = disorder(3.0, count=1)
    pooled = run_spectrum_ensemble(model, spec, 64)
    from drivenchain.propagate import floquet_operator
    shifted = model.with_potential(
        model.potential.with_overlay(sample_disorder(spec, 0)))
    direct = gap_ratios(quasienergies(floquet_operator(shifted, 64)))
    assert np.array_equal(pooled.ratios, direct.ratios)


def test_pooled_count_bookkeeping():
    model = make_model()
    spec = disorder(3.0, count=5)
    pooled = run_spectrum_ensemble(model, spec, 64)
    assert pooled.count + pooled.discarded_degenerate == 5 * 10


def test_failure_names_realization():
    model = make_model()
    # an input every realization rejects is not pinned on one realization
    with pytest.raises(ValueError, match="sample times must be >= 0"):
        run_dynamics_ensemble(model, disorder(3.0), 3, [-1.0], STEP)
