import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from drivenchain.basis import build_sector_basis, fock_state
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import (DisorderSpec, DriveSpec, build_potential,
                               sample_disorder)
from drivenchain.propagate import (DEFAULT_STEPS_PER_PERIOD, S6_DRIFTS,
                                   S6_KICKS, _advance, evolve_state,
                                   floquet_operator, floquet_steps,
                                   state_grid, unitarity_defect)
from drivenchain.spectrum import quasienergies
from drivenchain.units import rad_ns_from_mhz
from oracles import (convergence_probe, full_period_floquet, sector_hamiltonian,
                     serial_grid_states, uniform_chain,
                     yoshida_full_period_floquet)

J = rad_ns_from_mhz(11.5)
OMEGA = rad_ns_from_mhz(19.665764062481905)


def make_model(n_sites, profile="cosine", dc=3 * J, ac=3 * J, coupling=J,
               n=1, n_max=1, flat_fraction=1.0):
    chain = uniform_chain(n_sites, coupling)
    drive = DriveSpec.cosine(n_sites, dc, ac, OMEGA)
    potential = build_potential(profile, n_sites, dc,
                                flat_level_fraction=flat_fraction)
    basis = build_sector_basis(n_sites, n, n_max)
    return SectorModel(chain, drive, potential, basis)


def flat_model_with_disorder(seed=12345, w=3 * J, realization=0):
    from drivenchain.model import DisorderSpec, sample_disorder
    model = make_model(12, "flat")
    disorder = DisorderSpec(12, w, master_seed=seed, realization_count=50)
    return model.with_potential(
        model.potential.with_overlay(sample_disorder(disorder, realization)))


def test_two_site_rabi():
    # two resonant sites: <n_2(t)> = sin^2(J t)
    model = make_model(2, dc=0.0, ac=0.0)
    psi0 = fock_state(model.basis, 1)
    t_samples = np.linspace(0.0, 3 * np.pi / J, 97)
    traj = evolve_state(model, psi0, t_samples, step=0.05)
    pops = np.abs(traj.amplitudes) ** 2 @ model.basis.states
    expected = np.sin(J * traj.times) ** 2
    assert np.abs(pops[:, 1] - expected).max() < 1e-8


def test_diagonal_evolution_keeps_populations():
    model = make_model(4, dc=2 * J, ac=0.0, coupling=0.0)
    psi0 = fock_state(model.basis, 2)
    traj = evolve_state(model, psi0, [0.0, 40.0, 80.0], step=0.5)
    pops = np.abs(traj.amplitudes) ** 2
    assert np.allclose(pops, pops[0])


def test_three_site_chain_matches_diagonalization_oracle():
    # static uniform chain: exact answer by direct eigendecomposition
    model = make_model(3, dc=0.0, ac=0.0)
    psi0 = fock_state(model.basis, 1)
    t_end = np.pi / (np.sqrt(2) * J)
    traj = evolve_state(model, psi0, [t_end], step=t_end / 1024)
    h = sector_hamiltonian(model, 0.0)
    evals, evecs = np.linalg.eigh(h)
    exact = (evecs * np.exp(-1j * evals * traj.times[0])) @ \
        (evecs.conj().T @ psi0)
    assert np.abs(np.abs(exact) ** 2 - np.abs(traj.amplitudes[0]) ** 2).max() < 1e-8


def test_sample_snapping_reports_actual_times():
    # step 0.3 is rounded so that whole S6 steps tile the period: the fine
    # step is T / (4 P), P = round(T / 1.2) = 42, about 0.3027 ns
    model = make_model(2, dc=0.0, ac=0.0)
    psi0 = fock_state(model.basis, 1)
    traj = evolve_state(model, psi0, [0.0, 1.0, 2.0], step=0.3)
    fine = model.drive.period / (4 * 42)
    assert np.allclose(traj.times, [0.0, 3 * fine, 7 * fine])


def test_evolve_state_validation():
    model = make_model(2)
    psi0 = fock_state(model.basis, 1)
    with pytest.raises(ValueError):
        evolve_state(model, psi0, [0.0, 1.0], step=0.0)
    with pytest.raises(ValueError):
        evolve_state(model, psi0, [1.0, 0.5], step=0.1)
    with pytest.raises(ValueError):
        evolve_state(model, psi0, [], step=0.1)


@pytest.mark.parametrize("profile", ["cosine", "flat", "table"])
@pytest.mark.parametrize("w_over_j", [0.0, 3.0])
def test_state_population_error_at_default_steps(profile, w_over_j):
    # the default run against the same evolution at step/16, at the run's
    # own sample times: 3.2e-8 to 5.2e-8 over these six configs, where the
    # Yoshida steps at T/256 read 6.0e-8 to 9.4e-8; 16x less per halving
    from drivenchain.config import RunConfig, resolve
    from drivenchain.model import sample_disorder
    run = resolve(RunConfig(profile=profile, disorder_w_over_j=w_over_j,
                            realizations=1))
    h0 = run.model.static_hamiltonians(run.potential.static_offsets
                                       + sample_disorder(run.disorder))
    psi0 = fock_state(run.basis, run.config.init_site)

    def populations(step, times):
        traj = evolve_state(run.model, psi0, times, step, h0)
        return traj.times, np.abs(traj.amplitudes[0]) ** 2 @ run.basis.states

    step = run.step_ns
    times, coarse = populations(step, run.sample_times())
    reference = populations(step / 16, times)[1]
    err = np.abs(coarse - reference).max()
    err_half = np.abs(populations(step / 2, times)[1] - reference).max()
    assert err <= 5.5e-8
    assert 14.0 <= err / err_half <= 18.0


def test_norm_conservation_along_driven_trajectory():
    model = flat_model_with_disorder()
    psi0 = fock_state(model.basis, 3)
    traj = evolve_state(model, psi0, np.arange(0.0, 151.0, 5.0), step=0.2)
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-10
    total = (np.abs(traj.amplitudes) ** 2 @ model.basis.states).sum(axis=1)
    assert np.abs(total - 1.0).max() < 1e-9


def test_floquet_unitary_to_roundoff_at_fine_steps():
    # each H0 exponential takes one Newton-Schulz step, so its roundoff no
    # longer adds up coherently over the steps: flat W=3J, R=4 at 32768
    # steps per period (4096 integrated S6 steps) reads 5.2e-12, against
    # 1.79e-10 without the step
    from drivenchain.config import RunConfig, resolve
    from drivenchain.model import sample_disorder
    run = resolve(RunConfig(profile="flat", disorder_w_over_j=3.0,
                            realizations=4))
    h0 = run.model.static_hamiltonians(run.model.potential.static_offsets
                                       + sample_disorder(run.disorder))
    op = floquet_operator(run.model, 32768, h0)
    assert unitarity_defect(op.matrix).max() <= 1e-11


def test_floquet_period_value():
    model = make_model(12)
    op = floquet_operator(model, 64)
    assert op.period == pytest.approx(50.84, abs=0.01)
    assert unitarity_defect(op.matrix) < 1e-10


def test_floquet_static_limit_is_matrix_exponential():
    model = make_model(12, ac=0.0)
    op = floquet_operator(model, 32)
    h = sector_hamiltonian(model, 0.0)
    evals, evecs = np.linalg.eigh(h)
    exact = (evecs * np.exp(-1j * evals * op.period)) @ evecs.conj().T
    assert np.abs(op.matrix - exact).max() < 1e-10


def test_floquet_step_halving_converged_at_default():
    # measured step-halving error of the fourth-order split-operator scheme
    # on the driven junction: 8.1e-8 at 256 steps/period, shrinking 16x per
    # doubling
    model = flat_model_with_disorder()
    f256 = floquet_operator(model, 256).matrix
    f512 = floquet_operator(model, 512).matrix
    f1024 = floquet_operator(model, 1024).matrix
    err_256 = np.abs(f256 - f512).max()
    err_512 = np.abs(f512 - f1024).max()
    assert err_256 < 1e-4
    assert 12.0 < err_256 / err_512 < 20.0


def test_floquet_default_steps_match_fine_reference():
    # measured on this model: 4.71e-8 at the default, 16x less per doubling
    model = flat_model_with_disorder()
    f4096 = floquet_operator(model, 4096).matrix
    err128, err256 = (np.abs(floquet_operator(model, steps).matrix
                             - f4096).max() for steps in (128, 256))
    assert err256 <= 1.5 * 4.71e-8
    assert 12.0 <= err128 / err256 <= 20.0


def _exp_i(hermitian, t):
    lam, vec = np.linalg.eigh(hermitian)
    return (vec * np.exp(-1j * t * lam)) @ vec.conj().T


def test_s6_coefficients_are_fourth_order():
    # the weights alone, on exp(-i(A + B)) for a static A real symmetric and
    # B diagonal: each doubling of the step count cuts the error 16x
    drifts, kicks = np.array(S6_DRIFTS), np.array(S6_KICKS)
    assert math.isclose(drifts.sum(), 1.0, abs_tol=1e-15)
    assert math.isclose(kicks.sum(), 1.0, abs_tol=1e-15)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / np.linalg.norm(a + a.T, 2)
    b = rng.uniform(-1.0, 1.0, 6)
    exact = _exp_i(a + np.diag(b), 1.0)

    def split(n):
        step = np.exp(-1j * kicks[0] / n * b)[:, None] * np.eye(6)
        for drift, kick in zip(drifts, kicks[1:]):
            step = np.exp(-1j * kick / n * b)[:, None] * (_exp_i(a, drift / n)
                                                          @ step)
        return np.linalg.matrix_power(step, n)

    errors = [np.abs(split(n) - exact).max() for n in (4, 8, 16)]
    assert 14.0 <= errors[0] / errors[1] <= 18.0
    assert 14.0 <= errors[1] / errors[2] <= 18.0


def test_evolve_state_matches_floquet_powers():
    # whole periods fall on the S6 grid, T/64 at 256 steps per period:
    # each period of the evolution uses its own phase table; F, the same
    # S6 steps over one period, uses one
    model = flat_model_with_disorder()
    period = model.drive.period
    psi = fock_state(model.basis, 3)
    traj = evolve_state(model, fock_state(model.basis, 3),
                        [period, 2 * period, 3 * period], period / 256)
    f = full_period_floquet(model, model.static_hamiltonians(), 64).matrix[0]
    for amps in traj.amplitudes:
        psi = f @ psi
        assert np.abs(psi - amps).max() < 1e-12


#: steps_per_period 255 and 63 round down to whole S6 steps (P = 63, 15),
#: 6, 2 and 1 to one step per period, 8 to the smallest halved table (P =
#: 2); phase 0.3 and a time origin take the whole-period table, 20 ns ends
#: before half a period, and 1020 ns spans 20 periods
GRID_CASES = {
    **{f"steps{steps}": {"steps_per_period": steps}
       for steps in (256, 64, 255, 63, 8, 6, 2, 1)},
    "phase0.3": {"drive_phase_rad": 0.3},
    "origin1.7": {"time_origin_ns": 1.7},
    "tmax20": {"t_max_ns": 20.0},
    "periods20": {"t_max_ns": 1020.0, "sample_dt_ns": 5.0},
}


@pytest.mark.parametrize("profile", ["cosine", "flat", "table"])
@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_states_match_the_serial_scan(profile, case):
    # prefixes A_r and powers of U(T) against the scan through every S6
    # step, on the Floquet product's grid T / max(1, steps_per_period // 4)
    from drivenchain.config import RunConfig, resolve
    from drivenchain.model import sample_disorder
    run = resolve(RunConfig(profile=profile, disorder_w_over_j=3.0,
                            realizations=3, **GRID_CASES[case]))
    h0 = run.model.static_hamiltonians(run.potential.static_offsets
                                       + sample_disorder(run.disorder))
    psi0 = fock_state(run.basis, run.config.init_site)
    traj = evolve_state(run.model, psi0, run.sample_times(), run.step_ns, h0)
    times, amplitudes = serial_grid_states(run.model, h0, psi0,
                                           run.sample_times(), run.step_ns)
    per_period = max(1, run.config.steps_per_period // 4)
    assert traj.step == run.drive.period / per_period
    assert np.array_equal(traj.times, times)
    assert np.abs(traj.amplitudes - amplitudes).max() <= 1e-12


@pytest.mark.parametrize("phase,holds", [(0.0, True), (0.3, False)])
def test_prefixes_past_half_a_period_are_time_reversed(phase, holds):
    # A_{P/2+j} = conj(A_{P/2-j}) V^T V with V = A_{P/2}, for the discrete
    # palindrome of a drive even about T/2 (3.1e-14 at P = 256); a drive
    # that is not even misses it by order 1
    model = with_drive(make_model(12, "flat"), phase=phase)
    h0 = disordered_stack(model)
    half = 32
    identity = np.broadcast_to(np.eye(model.basis.dim, dtype=complex),
                               h0.shape)
    prefixes = _advance(model, np.linalg.eigh(h0), identity,
                        model.drive.period / (2 * half), 2 * half,
                        range(2 * half + 1))
    v = prefixes[:, half]
    u = v.swapaxes(-1, -2) @ v
    defect = max(np.abs(prefixes[:, half + j]
                        - prefixes[:, half - j].conj() @ u).max()
                 for j in range(1, half + 1))
    assert (defect <= 1e-13) if holds else (defect > 0.1)


def test_states_hold_the_output_and_one_table_not_every_power():
    # P = 1 (steps_per_period 4) and 3 samples over 20,000 periods: the walk
    # up the powers of U(T) keeps the current one, where storing every U^m
    # psi0 of 8 realizations would take 30 MB; the output and the table take
    # 41 kB, and a warm call first leaves numpy's lazy imports out
    model = make_model(12, "flat")
    h0, psi0 = disordered_stack(model, count=8), fock_state(model.basis, 3)
    step, period = model.drive.period / 4, model.drive.period
    times = [0.0, 10_000 * period, 20_000 * period]
    evolve_state(model, psi0, times[:2], step, h0)
    tracemalloc.start()
    try:
        traj = evolve_state(model, psi0, times, step, h0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = state_grid(model.drive, step, times[-1])[2]
    table = len(h0) * (count + 1) * model.basis.dim ** 2 * 16
    assert traj.amplitudes.shape == (8, 3, 12)
    assert peak < 8 * (traj.amplitudes.nbytes + table)


def test_time_reversal_returns_initial_state():
    model = flat_model_with_disorder()
    psi0 = fock_state(model.basis, 3)
    u = floquet_operator(model, 256).matrix
    roundtrip = u.conj().T @ (u @ psi0)
    assert np.abs(roundtrip - psi0).max() < 1e-8


def test_convergence_probe_driven_model():
    model = flat_model_with_disorder()
    report = convergence_probe(model, tol=1e-8)
    assert report.steps_per_period >= 256
    assert 3.6 <= report.observed_order <= 4.4


def test_convergence_probe_static_model():
    model = make_model(12, ac=0.0)
    report = convergence_probe(model, tol=1e-9, start=1)
    assert report.steps_per_period == 1     # scheme exact for static H


def test_convergence_probe_rejects_bad_tolerance():
    model = make_model(2)
    with pytest.raises(ValueError):
        convergence_probe(model, tol=0.0)


def disordered_stack(model, count=3, seed=12345):
    disorder = DisorderSpec(model.chain.n_sites, 3 * J, master_seed=seed,
                            realization_count=count)
    return model.static_hamiltonians(model.potential.static_offsets + np.stack(
        [sample_disorder(disorder, i) for i in range(count)]))


def with_drive(model, **changes):
    return replace(model, drive=replace(model.drive, **changes))


@pytest.mark.parametrize("phase", [0.0, math.pi])
def test_floquet_operator_is_symmetric_for_even_drive(phase):
    # time-reversal symmetry of a drive even about T/2: U = U^T
    model = with_drive(make_model(12, "flat"), phase=phase)
    assert floquet_steps(model.drive, 256)[1] == 32
    matrices = floquet_operator(model, h0=disordered_stack(model)).matrix
    assert len(matrices) == 3
    asymmetry = np.linalg.norm(matrices - matrices.swapaxes(-1, -2),
                               axis=(-2, -1))
    assert asymmetry.max() <= 1e-13


@pytest.mark.parametrize("steps", [2, 16, 256])
def test_half_period_product_matches_full_period_oracle(steps):
    # steps S6 steps per period: steps_per_period = 4 * steps
    model = make_model(12, "flat")
    h0 = disordered_stack(model)
    assert floquet_steps(model.drive, 4 * steps)[1] == steps // 2
    half = floquet_operator(model, 4 * steps, h0).matrix
    full = full_period_floquet(model, h0, steps).matrix
    assert np.abs(half - full).max() <= 1e-12


@pytest.mark.parametrize("steps,changes", [
    (255, {}),
    (260, {}),
    (256, {"phase": 0.3}),
    (256, {"time_origin": 1.7}),
    (1, {}),
])
def test_asymmetric_cases_take_the_full_period_product(steps, changes):
    # an odd S6 step count max(1, steps // 4), or a drive not even
    # about T/2, integrates the whole period
    model = with_drive(make_model(12, "flat"), **changes)
    h0 = disordered_stack(model)
    per_period = max(1, steps // 4)
    assert floquet_steps(model.drive, steps) == (per_period, per_period)
    assert np.array_equal(floquet_operator(model, steps, h0).matrix,
                          full_period_floquet(model, h0, per_period).matrix)


def test_floquet_halving_error_not_above_yoshida_at_default_steps():
    # S6 at 64 steps per period against the Yoshida product at 256
    model = make_model(12, "flat")
    h0 = disordered_stack(model)
    default = DEFAULT_STEPS_PER_PERIOD
    s6 = np.abs(floquet_operator(model, default, h0).matrix
                - floquet_operator(model, default // 2, h0).matrix).max()
    yoshida = np.abs(yoshida_full_period_floquet(model, h0, default)
                     - yoshida_full_period_floquet(model, h0, default // 2)
                     ).max()
    assert s6 <= yoshida


@pytest.mark.parametrize("changes", [{"phase": 0.3}, {"time_origin": 1.7}])
def test_quasienergies_do_not_depend_on_the_time_origin(changes):
    # the full-period product at a shifted origin against U = V^T V at 0
    model = flat_model_with_disorder()
    shifted = with_drive(model, **changes)
    reference = quasienergies(floquet_operator(model)).values
    moved = quasienergies(floquet_operator(shifted)).values
    omega = model.drive.angular_frequency
    assert np.abs(moved - reference).max() <= 1e-9 * omega
