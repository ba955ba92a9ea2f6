import json

import numpy as np
import pytest

from drivenchain import ensemble, propagate
from drivenchain.basis import build_sector_basis, fock_state
from drivenchain.cli import main
from drivenchain.config import RunConfig, resolve
from drivenchain.ensemble import (MAX_AMPLITUDES, MAX_BLOCK, MAX_STEPS,
                                  run_dynamics_ensemble, run_spectrum_ensemble)
from drivenchain.errors import ConfigError
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import (DisorderSpec, DriveSpec, build_potential,
                               sample_disorder)
from drivenchain.observables import observable_series
from drivenchain.propagate import (S6_SUBSTEPS, evolve_state, evolve_states,
                                   floquet_operator, floquet_operators,
                                   state_grid)
from drivenchain.spectrum import gap_ratios, quasienergies
from drivenchain.units import rad_ns_from_mhz
from oracles import uniform_chain

J = rad_ns_from_mhz(11.5)
OMEGA = rad_ns_from_mhz(19.665764062481905)
N = 12


def make_model(sector=1):
    chain = uniform_chain(N, J)
    drive = DriveSpec.cosine(N, 3 * J, 3 * J, OMEGA)
    potential = build_potential("flat", N, 3 * J)
    basis = build_sector_basis(N, sector, 1)
    return SectorModel(chain, drive, potential, basis)


def disorder(w_over_j, seed=99, count=4):
    return DisorderSpec(N, w_over_j * J, master_seed=seed,
                        realization_count=count)


T_SAMPLES = np.arange(0.0, 61.0, 5.0)
STEP = 0.2


def mean_populations(model, spec, site, t_samples=T_SAMPLES):
    """(time, site) realization mean, formed as ``cmd_ensemble`` forms it."""
    trajectory = run_dynamics_ensemble(model, spec, site, t_samples, STEP)
    return observable_series(trajectory.amplitudes, model.basis)[0].mean(axis=0)


def test_zero_disorder_average_equals_single_run():
    model = make_model()
    mean = mean_populations(model, disorder(0.0, count=2), 3)
    traj = evolve_state(model, fock_state(model.basis, 3), T_SAMPLES, STEP)
    single = np.abs(traj.amplitudes) ** 2 @ model.basis.states
    assert np.array_equal(mean, single)


def test_mean_is_arithmetic_mean_of_kept_realizations():
    model = make_model()
    result = run_dynamics_ensemble(model, disorder(3.0), 3, T_SAMPLES, STEP)
    assert result.amplitudes.shape == (4, len(T_SAMPLES), model.basis.dim)
    singles = [observable_series(a, model.basis)[0] for a in result.amplitudes]
    mean = observable_series(result.amplitudes, model.basis)[0].mean(axis=0)
    assert np.abs(sum(singles) / 4 - mean).max() < 1e-12


def test_population_bounds_and_conservation():
    mean = mean_populations(make_model(), disorder(5.0), 3)
    assert mean.min() >= 0.0
    assert mean.max() <= 1.0
    assert np.abs(mean.sum(axis=1) - 1.0).max() < 1e-9


def realization_models(model, spec):
    return [model.with_potential(
        model.potential.with_overlay(sample_disorder(spec, i)))
        for i in range(spec.realization_count)]


def test_batch_equals_single_realizations_bitwise(monkeypatch):
    # one block of R realizations against R runs of one; the states'
    # prefix tables (33 x 144 entries per realization here) also run in
    # batches of 1, 7 and R
    model = make_model()
    spec = disorder(3.0, count=9)
    models = realization_models(model, spec)
    h0 = model.static_hamiltonians(
        np.stack([m.potential.static_offsets for m in models]))
    for stacked, m in zip(h0, models):
        assert np.array_equal(stacked, m.static_hamiltonians()[0])
    psi0 = fock_state(model.basis, 3)
    singles = [evolve_state(m, psi0, T_SAMPLES, STEP) for m in models]
    assert state_grid(model.drive, STEP, T_SAMPLES[-1])[2] == 32
    for batch_size in (1, 7, len(models)):
        monkeypatch.setattr(propagate, "TABLE_BATCH", batch_size * 33 * 144)
        batch = evolve_states(model, h0, psi0, T_SAMPLES, STEP)
        for amplitudes, s in zip(batch.amplitudes, singles):
            assert np.array_equal(amplitudes, s.amplitudes)
            assert np.array_equal(batch.times, s.times)
        result = run_dynamics_ensemble(model, spec, 3, T_SAMPLES, STEP)
        for amplitudes, s in zip(result.amplitudes, singles):
            assert np.array_equal(amplitudes, s.amplitudes)

    operators = floquet_operators(model, h0, 64)
    single_ops = [floquet_operator(m, 64) for m in models]
    for matrix, s in zip(operators.matrix, single_ops):
        assert np.array_equal(matrix, s.matrix)
    pooled = run_spectrum_ensemble(model, spec, 64)
    direct = gap_ratios([quasienergies(s) for s in single_ops])
    assert np.array_equal(pooled.ratios, direct.ratios)

    # the V^T V stack product at a second size: sector 2, dim 66
    model = make_model(sector=2)
    spec = disorder(3.0, count=3)
    models = realization_models(model, spec)
    h0 = model.static_hamiltonians(
        np.stack([m.potential.static_offsets for m in models]))
    operators = floquet_operators(model, h0, 64)
    single_ops = [floquet_operator(m, 64) for m in models]
    assert operators.matrix.shape == (3, 66, 66)
    for matrix, s in zip(operators.matrix, single_ops):
        assert np.array_equal(matrix, s.matrix)
    pooled = run_spectrum_ensemble(model, spec, 64)
    direct = gap_ratios([quasienergies(s) for s in single_ops])
    assert np.array_equal(pooled.ratios, direct.ratios)


def test_batch_equals_single_off_the_grid_bitwise():
    # samples after t = 0 that end 0 to 3 fine steps past the S6 grid: each
    # side step takes the samples that share its length as the columns of
    # one block, here of R = 5 realizations
    model = make_model()
    spec = disorder(3.0, count=5)
    models = realization_models(model, spec)
    h0 = model.static_hamiltonians(
        np.stack([m.potential.static_offsets for m in models]))
    t_samples = STEP * np.array([3, 5, 10, 12, 19, 40, 41])
    fine = state_grid(model.drive, STEP, 0.0)[1] / S6_SUBSTEPS
    rests = np.rint(t_samples / fine).astype(int) % S6_SUBSTEPS
    assert set(rests.tolist()) == {0, 1, 2, 3}
    psi0 = fock_state(model.basis, 3)
    batch = evolve_states(model, h0, psi0, t_samples, STEP)
    assert batch.amplitudes.shape == (5, len(t_samples), model.basis.dim)
    for amplitudes, m in zip(batch.amplitudes, models):
        single = evolve_state(m, psi0, t_samples, STEP)
        assert np.array_equal(amplitudes, single.amplitudes)
        assert np.array_equal(batch.times, single.times)


def test_spectrum_ensemble_integrates_half_a_period(monkeypatch):
    # S6 at 64 steps per period, half of them; a refactor that brings
    # back the full-period product or the dynamics step count fails here
    real_advance, calls = propagate._advance, []

    def recording_advance(model, eigh, block, step, n_steps, emit_steps,
                          origin=0.0):
        calls.append(n_steps)
        return real_advance(model, eigh, block, step, n_steps, emit_steps,
                            origin)

    monkeypatch.setattr(propagate, "_advance", recording_advance)
    run = resolve(RunConfig())
    run_spectrum_ensemble(run.model, run.disorder, run.config.steps_per_period)
    assert run.config.steps_per_period == 256
    assert calls == [32]


def test_ensemble_reruns_bitwise():
    model = make_model()
    spec = disorder(3.0, count=5)
    first = run_dynamics_ensemble(model, spec, 3, T_SAMPLES, STEP)
    again = run_dynamics_ensemble(model, spec, 3, T_SAMPLES, STEP)
    assert np.array_equal(first.amplitudes, again.amplitudes)
    assert np.array_equal(run_spectrum_ensemble(model, spec, 64).ratios,
                          run_spectrum_ensemble(model, spec, 64).ratios)


def test_disorder_suppresses_penetration():
    # fixed seeds: stronger disorder pins the excitation in the driven half
    model = make_model()
    t_samples = np.arange(0.0, 151.0, 2.0)
    clean = mean_populations(model, disorder(0.0, count=2), 3, t_samples)
    dirty = mean_populations(model, disorder(5.0, seed=7, count=4), 3,
                             t_samples)
    deep_clean = clean[:, 8:].sum(axis=1).mean()
    deep_dirty = dirty[:, 8:].sum(axis=1).mean()
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


def no_h0_stack(model, disorder):
    raise AssertionError("the H0 stack was built")


@pytest.fixture
def no_h0(monkeypatch):
    """A sentinel in place of the H0 stack: a runner that gets this far
    raises AssertionError instead of allocating."""
    monkeypatch.setattr(ensemble, "_static_hamiltonians", no_h0_stack)


def test_spectrum_block_over_budget_refused_before_h0(no_h0):
    model = make_model(sector=2)                        # dim 66
    over = disorder(3.0, count=MAX_BLOCK // 66 ** 2 + 1)
    with pytest.raises(ConfigError, match="realizations x sector dimension"):
        run_spectrum_ensemble(model, over, 64)
    with pytest.raises(AssertionError, match="H0"):     # one fewer fits
        run_spectrum_ensemble(model, disorder(3.0, count=MAX_BLOCK // 66 ** 2),
                              64)


def test_spectrum_counts_the_steps_its_product_takes(no_h0):
    # 8M + 16 steps per period: S6 at a quarter, then half a period, M + 2
    with pytest.raises(ConfigError, match="propagator steps"):
        run_spectrum_ensemble(make_model(), disorder(3.0), 8 * MAX_STEPS + 16)
    with pytest.raises(AssertionError, match="H0"):     # M steps fit
        run_spectrum_ensemble(make_model(), disorder(3.0), 8 * MAX_STEPS)


def test_state_budget_counts_the_s6_steps_it_integrates(tmp_path,
                                                        monkeypatch):
    # the default 150 ns at T/256 is 755 fine steps but 188 grid steps of
    # 4 and 3 side steps, so it fits a budget of 200; 160 ns needs 201.4
    # grid steps and is refused before the H0 stack is built
    monkeypatch.setattr(ensemble, "MAX_STEPS", 200)
    out = tmp_path / "fits"
    assert main(["dynamics", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["state_steps_integrated"] == 191
    monkeypatch.setattr(ensemble, "_static_hamiltonians", no_h0_stack)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_max_ns = 160\n")
    out = tmp_path / "refused"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error_type"] == "ConfigError"
    assert "201 propagator steps, more than 200" in manifest["error"]


def test_state_prefix_table_over_budget_refused_before_h0(no_h0,
                                                         monkeypatch):
    # one realization's table holds K + 1 = 33 matrices of 12 x 12 past
    # half a period, and K + 1 = 7 for a last sample at 5 ns (grid step 6)
    model = make_model()
    monkeypatch.setattr(ensemble, "MAX_AMPLITUDES", 33 * 144 - 1)
    with pytest.raises(ConfigError, match="prefix table"):
        run_dynamics_ensemble(model, disorder(3.0), 3, T_SAMPLES, STEP)
    with pytest.raises(AssertionError, match="H0"):     # 7 matrices fit
        run_dynamics_ensemble(model, disorder(3.0), 3, [0.0, 5.0], STEP)
    monkeypatch.setattr(ensemble, "MAX_AMPLITUDES", 33 * 144)
    with pytest.raises(AssertionError, match="H0"):     # 33 fit
        run_dynamics_ensemble(model, disorder(3.0), 3, T_SAMPLES, STEP)


def test_dynamics_budgets_refused_before_h0(no_h0):
    model = make_model()
    with pytest.raises(ConfigError, match="realizations x sector dimension"):
        run_dynamics_ensemble(model, disorder(3.0, count=MAX_BLOCK // 144 + 1),
                              3, T_SAMPLES, STEP)
    # the budget counts S6 grid steps, the period cut into whole S6 steps
    # of about S6_SUBSTEPS STEP
    grid_step = state_grid(model.drive, STEP, 0.0)[1]
    with pytest.raises(ConfigError, match="propagator steps"):
        run_dynamics_ensemble(model, disorder(3.0), 3,
                              [0.0, (MAX_STEPS + 1) * grid_step], STEP)
    with pytest.raises(AssertionError, match="H0"):     # MAX_STEPS fit
        run_dynamics_ensemble(model, disorder(3.0), 3,
                              [0.0, MAX_STEPS * grid_step], STEP)
    with pytest.raises(ConfigError, match="inf propagator steps"):
        run_dynamics_ensemble(model, disorder(3.0), 3, T_SAMPLES, 0.0)
    # 13,888 x 301 samples x 12 amplitudes just over MAX_AMPLITUDES
    many = disorder(3.0, count=MAX_BLOCK // 144)
    assert many.realization_count * 301 * 12 > MAX_AMPLITUDES
    with pytest.raises(ConfigError, match="realizations x samples"):
        run_dynamics_ensemble(model, many, 3, np.arange(301) * STEP, STEP)
    with pytest.raises(ConfigError, match="sample_dt_ns"):
        run_dynamics_ensemble(model, disorder(3.0), 3, [0.0, 0.1, 0.2], STEP)
    with pytest.raises(AssertionError, match="H0"):     # one step apart fits
        run_dynamics_ensemble(model, disorder(3.0), 3, np.arange(11) * STEP,
                              STEP)

