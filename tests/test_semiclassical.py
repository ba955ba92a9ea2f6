import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivenchain import semiclassical
from drivenchain.config import RunConfig, resolve
from drivenchain.errors import ConfigError, NumericalError
from drivenchain.semiclassical import (BLOCK_COLUMNS, CHUNK_STEPS,
                                       MAX_MONODROMY_STEPS,
                                       MIN_STEPS_PER_OSCILLATION,
                                       STABILITY_TOLERANCE,
                                       SemiclassicalParams,
                                       _check_determinants, _integrate_group,
                                       _monodromy_batch, _monodromy_steps,
                                       default_grid_axes, energy,
                                       potential_contours, stability_grid)
from drivenchain.units import TWO_PI, rad_ns_from_mhz
from oracles import (SRKN6B_DRIFTS, SRKN6B_KICKS, classical_rhs,
                     full_period_monodromy, integrate_trajectory,
                     mathieu_stable, monodromy_matrix, monodromy_resolution,
                     monodromy_trace, scaled_cells,
                     serial_half_period_monodromy, serial_recurrence_monodromy,
                     yoshida_full_period_monodromy)

J = rad_ns_from_mhz(11.5)
D0 = 3 * J


def make_params():
    return SemiclassicalParams(12, D0, J)


#: the operating drive: the order-3 resonance at full amplitude d1 = d0
OMEGA_OP = 2 * make_params().small_oscillation_frequency / 3


def flat_grid(omega_values, delta1_values):
    """The cells of a rectangular (omega, delta1) grid as two flat arrays."""
    return [a.ravel() for a in np.meshgrid(omega_values, delta1_values,
                                           indexing="ij")]


def test_small_oscillation_frequency_formula():
    params = make_params()
    expected = (4 * np.pi / 12) * np.sqrt(2 * D0 * J)
    assert params.small_oscillation_frequency == pytest.approx(expected)
    # the operating drive of the nominal config is two thirds of twice Omega
    assert resolve(RunConfig()).drive.angular_frequency == \
        pytest.approx(2 * expected / 3)


@pytest.mark.parametrize("n_sites", [80, 100])
@pytest.mark.parametrize("d0_over_j", [2.0, 3.0, 5.0])
@pytest.mark.parametrize("coupling_mhz", [11.5, -11.5])
def test_small_oscillation_frequency_is_the_quantum_ladder_spacing(
        n_sites, d0_over_j, coupling_mhz):
    # the clean, undriven sector-1 H0 of the cosine profile: its eigenstates
    # with >= 90% weight within N/8 of zero-based site N/2 (the potential's
    # extremum, the semiclassical fixed point), from the top of the spectrum
    # (the bottom when J < 0), quantize the small oscillations.  Anharmonic
    # theory to first order gives gaps Omega - 2 alpha (k + 1), so a line
    # through the first four meets k = -1 at Omega (0.9984 to 1.0004 here)
    run = resolve(RunConfig(
        n_sites=n_sites, profile="cosine", disorder_w_over_j=0.0,
        ac_amplitude_over_j=0.0, dc_amplitude_over_j=d0_over_j,
        coupling_mhz=(coupling_mhz,), drive_frequency_mhz=19.67))
    values, vectors = np.linalg.eigh(run.model.static_hamiltonians()[0])
    populations = (np.abs(vectors) ** 2).T @ run.basis.states
    near = np.abs(np.arange(n_sites) - n_sites // 2) <= n_sites / 8
    ladder = values[populations[:, near].sum(axis=1) >= 0.9]
    ladder = (ladder[::-1] if coupling_mhz > 0 else ladder)[:5]
    assert len(ladder) == 5
    slope, intercept = np.polyfit(np.arange(4), np.abs(np.diff(ladder)), 1)
    omega = run.semiclassical_params().small_oscillation_frequency
    assert abs((intercept - slope) / omega - 1) < 5e-3


def test_fixed_point_has_zero_velocity():
    params = make_params()
    dq, dp = classical_rhs(TWO_PI, 0.0, 1.3, params, ac=D0, omega=OMEGA_OP)
    assert dq == pytest.approx(0.0, abs=1e-15)
    assert dp == pytest.approx(0.0, abs=1e-12)


def test_energy_conservation_without_drive():
    params = make_params()
    period = TWO_PI / params.small_oscillation_frequency
    traj = integrate_trajectory(TWO_PI + 0.8, 0.3, 100 * period, period / 256,
                                params)
    e = energy(traj.q, traj.p, params)
    scale = abs(params.dc_amplitude) + 2 * abs(params.hopping)
    assert np.abs(e - e[0]).max() / scale < 1e-6


def test_stationary_fixed_point_trajectory():
    params = make_params()
    traj = integrate_trajectory(TWO_PI, 0.0, 200.0, 0.05, params, ac=D0,
                                omega=OMEGA_OP)
    assert np.abs(traj.q - TWO_PI).max() < 1e-12
    assert np.abs(traj.p).max() < 1e-12


def test_measured_small_oscillation_frequency():
    # zero crossings of a tiny-amplitude orbit against the formula
    params = make_params()
    omega_formula = params.small_oscillation_frequency
    period = TWO_PI / omega_formula
    traj = integrate_trajectory(TWO_PI + 1e-5, 0.0, 40 * period, period / 512,
                                params)
    x = traj.q - TWO_PI
    flips = np.where(np.sign(x[:-1]) != np.sign(x[1:]))[0]
    crossing_times = (traj.times[flips]
                      - x[flips] * (traj.times[flips + 1] - traj.times[flips])
                      / (x[flips + 1] - x[flips]))
    measured = TWO_PI / (2 * np.mean(np.diff(crossing_times)))
    assert abs(measured - omega_formula) / omega_formula < 1e-3


def test_trajectory_step_halving_convergence():
    params = make_params()
    period = TWO_PI / params.small_oscillation_frequency
    coarse = integrate_trajectory(TWO_PI + 0.5, 0.0, 10 * period, period / 256,
                                  params)
    fine = integrate_trajectory(TWO_PI + 0.5, 0.0, 10 * period, period / 512,
                                params)
    assert abs(coarse.q[-1] - fine.q[-1]) < 1e-6
    assert abs(coarse.p[-1] - fine.p[-1]) < 1e-6


def test_static_monodromy_closed_form():
    # constant frequency: tr M = 2 cos(Omega T), always stable
    for factor in (0.6, 1.0, 1.7):
        params = make_params()
        omega_small = params.small_oscillation_frequency
        omega_drive = factor * omega_small
        m = _integrate_group(*scaled_cells(omega_drive, 0.0, params), 4096,
                             4096 // CHUNK_STEPS)[0]
        expected = 2 * np.cos(omega_small * TWO_PI / omega_drive)
        assert np.trace(m) == pytest.approx(expected, abs=1e-8)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)
        assert monodromy_trace(omega_drive, 0.0, params) <= 2.0 + 1e-7


def test_primary_parametric_instability():
    # drive at 2*Omega with small amplitude: inside the widest tongue
    params = make_params()
    omega_drive = 2 * params.small_oscillation_frequency
    assert monodromy_trace(omega_drive, 0.15 * D0, params) > 2.0


def test_determinant_exact_where_representable():
    # shear-composition stepping keeps det M = 1 to roundoff wherever the
    # solutions stay O(1); exponentially grown cells are classified
    # unstable and their determinant is preserved structurally instead
    params = make_params()
    omega_small = params.small_oscillation_frequency
    for omega in (0.02 * omega_small, 0.4 * omega_small, 2.9 * omega_small):
        for delta1 in (0.0, D0, 2 * D0):
            m = monodromy_matrix(omega, delta1, params)
            if np.abs(m).max() <= 8.0:
                assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)
            else:
                assert abs(np.trace(m)) > 2.0


def test_stability_grid_zero_drive_row_stable():
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 40)
    with monodromy_resolution(512):
        grid = stability_grid(omega_values, delta1_values, params)
    assert np.all(grid.stable[:, 0])           # delta1 = 0 column
    assert grid.abs_trace.shape == (40, 40)


def test_instability_tongues_at_resonant_frequencies():
    # tongues touch the small-amplitude axis at omega = 2*Omega/m; detect
    # unstable cells within one default-grid cell of each location (higher
    # resonances need a bigger amplitude before exceeding the cushion:
    # tongue width shrinks like the m-th power of the modulation)
    params = make_params()
    omega_small = params.small_oscillation_frequency
    cell = 3 * omega_small / 200
    for m, delta1_frac in ((1, 0.1), (2, 0.4), (3, 0.5)):
        center = 2 * omega_small / m
        local = np.linspace(center - cell, center + cell, 41)
        with monodromy_resolution(2048):
            grid = stability_grid(local, [delta1_frac * D0], params)
        assert np.any(~grid.stable), f"no instability near m={m}"


def test_classification_invariant_under_step_halving():
    # doubling the steps per period or oscillation doubles every cell's count
    params = make_params()
    omega_small = params.small_oscillation_frequency
    omega_values = np.linspace(0.3, 2.8, 31) * omega_small
    delta1_values = np.linspace(0.0, 2 * D0, 11)
    grids = []
    for min_steps in (1024, 2048):
        with monodromy_resolution(min_steps):
            grids.append(stability_grid(omega_values, delta1_values, params))
    coarse, fine = grids
    assert [2 * g["steps"] for g in coarse.monodromy_groups] \
        == [g["steps"] for g in fine.monodromy_groups]
    assert np.array_equal(coarse.stable, fine.stable)


def test_grid_refinement_subsampling_exact():
    params = make_params()
    omega_values = np.linspace(0.5, 2.5, 9) * params.small_oscillation_frequency
    delta1_values = np.linspace(0.0, 2 * D0, 7)
    with monodromy_resolution(256):
        fine = stability_grid(omega_values, delta1_values, params)
        coarse = stability_grid(omega_values[::2], delta1_values[::3], params)
    assert np.array_equal(coarse.abs_trace, fine.abs_trace[::2, ::3])


def test_single_cell_matches_grid_cell():
    params = make_params()
    omega = 1.3 * params.small_oscillation_frequency
    delta1 = 0.7 * D0
    with monodromy_resolution(512):
        grid = stability_grid([omega], [delta1], params)
        single = monodromy_trace(omega, delta1, params)
    assert grid.abs_trace[0, 0] == single


def test_operating_point_adjacent_to_tongue():
    # the resonance choice m=3 with full drive amplitude sits inside or
    # within one default-grid cell of the third instability tongue
    params = make_params()
    cell = 3 * params.small_oscillation_frequency / 200
    omegas = [OMEGA_OP - cell, OMEGA_OP, OMEGA_OP + cell]
    with monodromy_resolution(2048):
        grid = stability_grid(omegas, [D0], params)
    assert np.any(~grid.stable)


def oracle_monodromy(omega, delta1, params):
    """Full-period matrices with the package's per-cell step counts."""
    omega, delta1 = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                        np.asarray(delta1, dtype=float))
    omega_flat, delta1_flat = omega.ravel(), delta1.ravel()
    steps = _monodromy_steps(*scaled_cells(omega_flat, delta1_flat, params))
    out = np.empty(steps.shape + (2, 2))
    for count in np.unique(steps):
        mask = steps == count
        out[mask] = full_period_monodromy(omega_flat[mask], delta1_flat[mask],
                                          params, int(count))
    return out.reshape(omega.shape + (2, 2))


def assert_trace_matches(abs_trace, reference):
    # roundoff in cells whose entries reach ~1e2 is ~1e-8 under either scheme
    reference = np.abs(reference)
    checked = reference <= 10.0
    error = np.abs(np.asarray(abs_trace) - reference)
    assert np.all(error[checked] <= 1e-7 * np.maximum(1.0, reference[checked]))


@pytest.mark.parametrize("min_steps", [128, 256, 512])
def test_half_period_matches_full_period_oracle(min_steps):
    # the resolution-8 omegas, scaled with min_steps to keep every count at
    # or below 2048, span three to five step-count groups
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 8)
    omega_values = omega_values * (min_steps / 256)
    om, d1 = np.meshgrid(omega_values, delta1_values, indexing="ij")
    with monodromy_resolution(min_steps):
        steps = _monodromy_steps(*scaled_cells(om, d1, params))
        assert len(np.unique(steps)) >= 3
        reference = oracle_monodromy(om, d1, params)
        grid = stability_grid(omega_values, delta1_values, params)
        probes = {(i, j): monodromy_matrix(omega_values[i], delta1_values[j],
                                           params)
                  for i, j in ((0, 0), (0, 7), (4, 3), (7, 0), (7, 7))}
    ref_trace = np.abs(reference[..., 0, 0] + reference[..., 1, 1])
    ref_stable = ref_trace <= 2.0 + STABILITY_TOLERANCE
    assert np.array_equal(grid.stable, ref_stable)
    assert_trace_matches(grid.abs_trace, ref_trace)
    for (i, j), m in probes.items():
        assert_trace_matches(abs(np.trace(m)), ref_trace[i, j])
        if np.abs(m).max() <= 8.0:
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("steps", [2, 4, 8, 16])
def test_half_period_identity_at_few_steps(steps):
    # the identity is exact for any power-of-two step count, not only
    # converged ones.  The package's M is in units of Omega, with momentum
    # (a / Omega) dP, a = 8 pi J / N; the oracle's is in dQ and dP
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 6)
    om, d1 = (a.ravel() for a in np.meshgrid(omega_values, delta1_values))
    half = _integrate_group(*scaled_cells(om, d1, params), steps)
    full = full_period_monodromy(om, d1, params, steps)
    ratio = (8 * np.pi * J / 12) / params.small_oscillation_frequency
    full[:, 0, 1] /= ratio
    full[:, 1, 0] *= ratio
    scale = np.maximum(1.0, np.abs(full).max(axis=(-2, -1)))
    assert np.all(np.abs(half - full).max(axis=(-2, -1)) <= 1e-12 * scale**2)


DEFAULT_OMEGAS = default_grid_axes(make_params())[0]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(omega=DEFAULT_OMEGAS[-1], delta1=D0, min_steps=2)  # 2 steps
@given(omega=st.sampled_from(list(DEFAULT_OMEGAS)),
       delta1=st.floats(0.0, 2 * D0),
       min_steps=st.sampled_from([2, 16, 64, 128]))
def test_monodromy_trace_matches_full_period_oracle(omega, delta1, min_steps):
    params = make_params()
    with monodromy_resolution(min_steps):
        trace = monodromy_trace(omega, delta1, params)
        reference = abs(np.trace(oracle_monodromy(omega, delta1, params)))
    if reference <= 10.0:
        assert_trace_matches(trace, reference)
    else:
        assert trace > 2.0 + STABILITY_TOLERANCE


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(omega=3.0, delta1=0.0, min_steps=MIN_STEPS_PER_OSCILLATION)
@example(omega=1e-3, delta1=2.0, min_steps=MIN_STEPS_PER_OSCILLATION)
@given(omega=st.floats(1e-3, 1e3), delta1=st.floats(-10.0, 10.0),
       min_steps=st.sampled_from([2, 16, MIN_STEPS_PER_OSCILLATION, 2048]))
def test_monodromy_steps_smallest_power_of_two(omega, delta1, min_steps):
    # omega and delta1 in units of Omega and d0: a cell spans from far
    # below one to over a thousand oscillations per period
    params = make_params()
    omega *= params.small_oscillation_frequency
    delta1 *= D0
    # oscillations of the linearized motion per period, T * Omega_eff / 2pi
    stiffness = (8 * np.pi * J / 12) * (4 * np.pi / 12) * (D0 + abs(delta1))
    oscillations = math.sqrt(stiffness) / omega
    needed = min_steps * max(1.0, oscillations)
    with monodromy_resolution(min_steps):
        if needed > MAX_MONODROMY_STEPS * (1 + 1e-12):
            with pytest.raises(ValueError, match="omega"):
                _monodromy_steps(*scaled_cells(omega, delta1, params))
            return
        steps = _monodromy_steps(*scaled_cells(omega, delta1, params))
    assert steps.shape == (1,)
    steps = int(steps[0])
    # a power of two >= 2, so T/2 falls on a step boundary
    assert steps >= 2 and steps & (steps - 1) == 0
    # min_steps per period and per oscillation, and no power of two less
    # (to the rounding of log2)
    assert steps >= min_steps
    assert steps >= needed * (1 - 1e-12)
    assert steps < 2 * needed * (1 + 1e-12)
    assert steps <= MAX_MONODROMY_STEPS


@pytest.mark.parametrize("factor", [1e-300, 1e-6])
def test_cell_over_the_step_bound_raises_before_integrating(monkeypatch,
                                                            factor):
    # omega = 1e-300 once overflowed the count's cast to a negative group
    # read as stable; omega = 1e-6 Omega needs about 1.6e7 steps per period.
    # The message gives omega in units of Omega
    def no_integration(*args):
        raise AssertionError("integrated a cell over the bound")

    monkeypatch.setattr(semiclassical, "_integrate_group", no_integration)
    params = make_params()
    omega = factor * params.small_oscillation_frequency
    with pytest.raises(ValueError, match=f"omega = {factor:.6g} Omega needs"):
        stability_grid([omega, OMEGA_OP], [0.0, D0], params)


def test_largest_cli_grid_stays_under_the_step_bound():
    # stability_resolution 1000, the largest the config accepts: its row 0
    # (the lowest omega) needs the most steps, 16384, at the top delta1
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 1000)
    picked = delta1_values[::111]
    assert picked[-1] == delta1_values[-1]
    steps = _monodromy_steps(*scaled_cells(omega_values[0], picked, params))
    assert steps.max() == 16384 <= MAX_MONODROMY_STEPS
    grid = stability_grid(omega_values[:1], picked, params)
    assert np.isfinite(grid.abs_trace).all()
    assert grid.monodromy_groups[-1]["steps"] == 16384


@pytest.mark.parametrize("omega,delta1", [
    pytest.param(0.1, np.nan, id="delta1-nan"),
    pytest.param(0.1, np.inf, id="delta1-inf"),
    pytest.param(np.nan, 0.0, id="omega-nan"),
    pytest.param(np.inf, 0.0, id="omega-inf"),
])
def test_stability_grid_rejects_non_finite_axes(omega, delta1):
    # a NaN or infinite cell has no step count, and omega = inf would read
    # as a drive-free |tr M| = 2
    with pytest.raises(ValueError, match="finite"):
        stability_grid([OMEGA_OP, omega], [0.0, delta1], make_params())


def test_trace_error_falls_64x_per_step_doubling():
    # the lowest-omega row converges slowest; measured step-halving
    # differences of tr M shrink 64.9x from 512 -> 1024 to 1024 -> 2048
    # steps (its default count), and 64.2x one doubling further: a
    # sixth-order scheme
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params)
    nu, eps = scaled_cells(omega_values[0], delta1_values, params)
    assert set(_monodromy_steps(nu, eps)) == {2048}
    trace = {}
    for steps in (512, 1024, 2048):
        m = _integrate_group(nu, eps, steps, steps // CHUNK_STEPS)
        trace[steps] = m[:, 0, 0] + m[:, 1, 1]
    checked = np.abs(trace[2048]) <= 10.0
    scale = np.maximum(1.0, np.abs(trace[2048][checked]))
    err_512, err_1024 = (np.abs(trace[s] - trace[2 * s])[checked] / scale
                         for s in (512, 1024))
    assert 48.0 < err_512.max() / err_1024.max() < 80.0
    # Richardson estimate of the default count's error, well inside the
    # classification cushion
    assert err_1024.max() / 63.0 < 0.1 * STABILITY_TOLERANCE


def test_default_steps_match_yoshida_reference():
    # the first former scheme, the triple jump, at 32x each cell's default
    # step count: 512 steps per period or oscillation (measured agreement
    # over these 170 cells: 1.1e-8 in the 16-step group, 9.2e-9 in the
    # 32-step one and 3.2e-8 overall, in the 64-step one; at 8x the triple
    # jump's own error reads 8.8e-6)
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params)
    omega_values, delta1_values = omega_values[7::12], delta1_values[::20]
    grid = stability_grid(omega_values, delta1_values, params)
    om, d1 = (a.ravel() for a in np.meshgrid(omega_values, delta1_values,
                                             indexing="ij"))
    steps = _monodromy_steps(*scaled_cells(om, d1, params))
    assert set(steps) == {16, 32, 64, 128, 256}
    reference = np.empty(om.size)
    for count in np.unique(steps):
        mask = steps == count
        m = yoshida_full_period_monodromy(om[mask], d1[mask], params,
                                          32 * int(count))
        reference[mask] = np.abs(m[..., 0, 0] + m[..., 1, 1])
    reference = reference.reshape(grid.abs_trace.shape)
    assert np.array_equal(grid.stable,
                          reference <= 2.0 + STABILITY_TOLERANCE)
    assert_trace_matches(grid.abs_trace, reference)


def test_srkn11b_at_16_matches_srkn6b_at_64_steps():
    # SRKN11b at 16 steps per period or oscillation against the former
    # SRKN6b at 64, on the default grid, every cell at its own count: no
    # flag flips, relative |tr M| changes <= 1e-5 (measured 3.8e-6, in
    # row 0, where SRKN6b's own error reads 4.2e-6 against DOP853)
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params)
    grid = stability_grid(omega_values, delta1_values, params)
    assert grid.monodromy_groups[0]["steps"] == MIN_STEPS_PER_OSCILLATION == 16
    nu, eps = scaled_cells(*flat_grid(omega_values, delta1_values), params)
    with monodromy_resolution(64):
        former_steps = _monodromy_steps(nu, eps)
    assert np.array_equal(former_steps, 4 * _monodromy_steps(nu, eps))
    former = np.empty(nu.size)
    for count in np.unique(former_steps).tolist():
        mask = former_steps == count
        m = serial_half_period_monodromy(nu[mask], eps[mask], count,
                                         SRKN6B_KICKS, SRKN6B_DRIFTS)
        former[mask] = np.abs(m[:, 0, 0] + m[:, 1, 1])
    former = former.reshape(grid.abs_trace.shape)
    assert np.array_equal(grid.stable, former <= 2.0 + STABILITY_TOLERANCE)
    checked = former <= 10.0
    change = (np.abs(grid.abs_trace - former)[checked]
              / np.maximum(1.0, former[checked]))
    assert change.max() <= 1e-5


#: steps per period or oscillation at which the chunked groups are checked
CHUNKED_MIN_STEPS = [16, 64, 256, 128, 512, 1024, 2048]
#: the chunked step counts the oracle integrates, each once
CHUNKED_COUNTS = [128, 256, 512, 1024, 2048, 4096, 8192]


@pytest.fixture(scope="module")
def chunked_group_cells():
    """Three cells of every default-grid group of 128 to 8192 steps, at
    each of CHUNKED_MIN_STEPS, and the full-period oracle traces of each
    at the CHUNKED_COUNTS it takes at one of those resolutions."""
    params = make_params()
    om, d1 = flat_grid(*default_grid_axes(params))
    picked = set()
    for min_steps in CHUNKED_MIN_STEPS:
        with monodromy_resolution(min_steps):
            steps = _monodromy_steps(*scaled_cells(om, d1, params))
        for count in CHUNKED_COUNTS:
            where = np.flatnonzero(steps == count)
            if where.size:
                picked.update([where[0], where[where.size // 2], where[-1]])
    picked = sorted(picked)
    assert picked[0] == 0                    # the lowest-omega row's end
    om, d1 = om[picked], d1[picked]
    counts = []
    for min_steps in CHUNKED_MIN_STEPS:
        with monodromy_resolution(min_steps):
            counts.append(_monodromy_steps(*scaled_cells(om, d1, params)))
    traces = {}
    for count in CHUNKED_COUNTS:
        # NaN where no resolution gives the cell this count
        need = np.any(np.array(counts) == count, axis=0)
        m = full_period_monodromy(om[need], d1[need], params, count)
        traces[count] = np.full(om.shape, np.nan)
        traces[count][need] = np.abs(m[..., 0, 0] + m[..., 1, 1])
    return om, d1, traces


@pytest.mark.parametrize("min_steps", CHUNKED_MIN_STEPS)
def test_chunked_groups_match_full_period_oracle(chunked_group_cells,
                                                 min_steps):
    # every group above CHUNK_STEPS is chunked; from 128 steps per period
    # up, the per-period group is among them
    om, d1, traces = chunked_group_cells
    params = make_params()
    with monodromy_resolution(min_steps):
        counts = _monodromy_steps(*scaled_cells(om, d1, params))
        keep = np.isin(counts, CHUNKED_COUNTS)
        m, groups = _monodromy_batch(*scaled_cells(om[keep], d1[keep], params))
    assert len(groups) >= 3
    assert all(g["chunks"] == g["steps"] // CHUNK_STEPS > 1 for g in groups)
    ref_trace = np.array([traces[c][i] for i, c in
                          zip(np.flatnonzero(keep), counts[keep].tolist())])
    trace = np.abs(m[..., 0, 0] + m[..., 1, 1])
    ref_stable = ref_trace <= 2.0 + STABILITY_TOLERANCE
    assert np.array_equal(trace <= 2.0 + STABILITY_TOLERANCE, ref_stable)
    assert_trace_matches(trace, ref_trace)


def test_chunked_group_independent_of_cell_count():
    params = make_params()
    omega = default_grid_axes(params)[0][0]
    nu, eps = scaled_cells(omega, np.linspace(0.0, 2 * D0, 200), params)
    chunks = 2048 // CHUNK_STEPS                 # row 0's default count
    many = _integrate_group(nu, eps, 2048, chunks)
    for j in (0, 117, 199):
        one = _integrate_group(nu[j:j + 1], eps[j:j + 1], 2048, chunks)
        assert np.array_equal(one[0], many[j])


@pytest.mark.parametrize("steps", [64, 256, 1024, 128])
def test_floor_group_bitwise_equal_to_serial_loop(steps):
    # the cells of at most one oscillation per period, the default grid's
    # largest group, in one chunk at several step counts
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 50)
    nu, eps = scaled_cells(*np.meshgrid(omega_values, delta1_values), params)
    floor = _monodromy_steps(nu, eps) == MIN_STEPS_PER_OSCILLATION
    nu, eps = nu[floor], eps[floor]
    assert MIN_STEPS_PER_OSCILLATION <= CHUNK_STEPS and nu.size > 200
    assert np.array_equal(_integrate_group(nu, eps, steps),
                          serial_recurrence_monodromy(nu, eps, steps))


@pytest.mark.parametrize("steps", [2, 4, 128, 1024, 256])
def test_batched_kicks_bitwise_equal_to_serial_loop(steps):
    # one (11, C, n) buffer of a step's recurrence coefficients, from a
    # single step up
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 12)
    nu, eps = scaled_cells(*np.meshgrid(omega_values, delta1_values), params)
    assert np.array_equal(_integrate_group(nu, eps, steps),
                          serial_recurrence_monodromy(nu, eps, steps))


@pytest.mark.parametrize("steps,chunks", [
    (2, 1), (4, 1), (16, 1), (128, 1), (1024, 1),
    (2048, 2048 // CHUNK_STEPS)])
def test_recurrence_matches_shear_form(steps, chunks):
    # the recurrence on positions against the same scheme stepped shear by
    # shear; up to 128 steps on the resolution-12 grid (its own counts are
    # 16 to 128), from 1024 on the default grid's lowest-omega row (its own
    # count is 2048), chunked as the package runs it.  Measured worst
    # entry differences: 4.5e-14 (2 steps), 3.3e-13 (16), 1.7e-11 (128),
    # 1.6e-11 (1024) and 5.1e-11 (2048, chunked)
    params = make_params()
    if steps <= 128:
        nu, eps = scaled_cells(*flat_grid(*default_grid_axes(params, 12)),
                               params)
    else:
        omega_values, delta1_values = default_grid_axes(params)
        nu, eps = scaled_cells(omega_values[0], delta1_values, params)
    m = _integrate_group(nu, eps, steps, chunks)
    reference = serial_half_period_monodromy(nu, eps, steps)
    small = np.abs(reference).max(axis=(-2, -1)) <= 8.0
    assert small.sum() > 100
    assert np.abs(m - reference)[small].max() <= 1e-9
    assert_trace_matches(np.abs(m[:, 0, 0] + m[:, 1, 1]),
                         reference[:, 0, 0] + reference[:, 1, 1])


def test_recurrence_roundoff_grows_with_steps_per_oscillation():
    # the recurrence holds each drift's coefficient as alpha = O(1) plus an
    # O(h^2) force, so its roundoff acts like a spurious stiffness of
    # order eps per drift and grows as the square of the steps per
    # oscillation.  At 1024 steps the resolution-12 grid's fastest cells
    # take 64 times the step rule's count; there entries move by up to
    # 1.3e-9 from the shear form (1.7e-11 at 128 steps), which stays far
    # inside assert_trace_matches
    params = make_params()
    nu, eps = scaled_cells(*flat_grid(*default_grid_axes(params, 12)), params)
    m = _integrate_group(nu, eps, 1024)
    reference = serial_half_period_monodromy(nu, eps, 1024)
    small = np.abs(reference).max(axis=(-2, -1)) <= 8.0
    assert np.abs(m - reference)[small].max() <= 1e-8
    assert_trace_matches(np.abs(m[:, 0, 0] + m[:, 1, 1]),
                         reference[:, 0, 0] + reference[:, 1, 1])


@pytest.mark.parametrize("factor", [1e-310, 1e-300, 1e300, 1e307])
def test_stability_grid_invariant_under_scaled_dc_amplitude(factor):
    # scaling d0 by s scales Omega and the default omega axis by sqrt(s),
    # so each cell's omega/Omega and delta1/d0, and tr M, change only by
    # the rounding of the axes (s = 1e-310 makes d0 subnormal; measured
    # worst change 1.1e-10 there, 1.0e-12 elsewhere)
    nominal = make_params()
    scaled = SemiclassicalParams(12, D0 * factor, J)
    reference = stability_grid(*default_grid_axes(nominal, 40), nominal)
    grid = stability_grid(*default_grid_axes(scaled, 40), scaled)
    assert np.array_equal(grid.stable, reference.stable)
    checked = reference.abs_trace <= 10.0
    change = np.abs(grid.abs_trace - reference.abs_trace)[checked]
    assert np.all(change <= 1e-9 * np.maximum(1.0,
                                              reference.abs_trace[checked]))


@pytest.mark.parametrize("d0_factor,j_factor", [
    pytest.param(-1.0, -1.0, id="sign-flip"),
    pytest.param(2.0**-40, 2.0**40, id="d0-2^-40"),
    pytest.param(2.0**30, 2.0**-30, id="d0-2^30"),
    pytest.param(-2.0**-1000, -2.0**1000, id="sign-flip-d0-2^-1000"),
])
def test_stability_grid_bitwise_invariant_under_sign_and_scale(d0_factor,
                                                               j_factor):
    # M depends on omega/Omega and delta1/d0 alone; these models keep Omega
    # and each default-axis cell's ratios exactly, so the map is bitwise
    # the same.  Negative couplings once clamped the step rule's stiffness
    # to 0 and gave 20 of the 3,600 flags wrong
    nominal = make_params()
    model = SemiclassicalParams(12, D0 * d0_factor, J * j_factor)
    reference = stability_grid(*default_grid_axes(nominal, 60), nominal)
    grid = stability_grid(*default_grid_axes(model, 60), model)
    assert np.array_equal(grid.abs_trace, reference.abs_trace)
    assert np.array_equal(grid.stable, reference.stable)
    assert grid.monodromy_groups == reference.monodromy_groups
    assert grid.health == reference.health
    assert grid.health["monodromy_determinant"]["worst"] > 0.0


@pytest.mark.parametrize("min_steps", [64, 256, 1024, 128, 2048])
def test_grid_bitwise_independent_of_blocks(monkeypatch, min_steps):
    # from half the lowest default omega (raised with min_steps, which
    # keeps every count at or below 8192) to the highest: every group has
    # >= 3 cells, so a budget of a third of the smallest group's columns
    # splits all of them
    monkeypatch.setattr(semiclassical, "MIN_STEPS_PER_OSCILLATION", min_steps)
    params = make_params()
    low, high = default_grid_axes(params)[0][[0, -1]]
    om = np.geomspace(low / 2 * min_steps / 64, high, 16)
    d1 = np.linspace(0.0, 2 * D0, 4)
    groups = _monodromy_batch(*scaled_cells(*flat_grid(om, d1), params))[1]
    assert len(groups) >= 4 and min(g["cells"] for g in groups) >= 3
    split = min(g["cells"] * g["chunks"] for g in groups) // 3
    matrices, batch = [], semiclassical._monodromy_batch

    def recording_batch(*args):                    # keep what each grid ran
        result = batch(*args)
        matrices.append(result[0])
        return result

    monkeypatch.setattr(semiclassical, "_monodromy_batch", recording_batch)
    runs = []
    for budget in (BLOCK_COLUMNS, split, 10**18):
        monkeypatch.setattr(semiclassical, "BLOCK_COLUMNS", budget)
        grid = stability_grid(om, d1, params)
        blocks = [g["blocks"] for g in grid.monodromy_groups]
        if budget == split:
            assert min(blocks) >= 3
        if budget == 10**18:
            assert set(blocks) == {1}
        runs.append((matrices[-1], grid))
    ref_m, ref = runs[0]
    for m, grid in runs[1:]:
        assert np.array_equal(m, ref_m)
        assert np.array_equal(grid.abs_trace, ref.abs_trace)
        assert np.array_equal(grid.stable, ref.stable)


def test_block_error_reaches_the_caller(monkeypatch):
    params = make_params()
    nu, eps = scaled_cells(*flat_grid(*default_grid_axes(params, 10)), params)
    calls, integrate = itertools.count(), semiclassical._integrate_group

    def failing(*args):
        if next(calls) == 2:
            raise FloatingPointError("injected block error")
        return integrate(*args)

    monkeypatch.setattr(semiclassical, "_integrate_group", failing)
    monkeypatch.setattr(semiclassical, "BLOCK_COLUMNS", 4)
    with pytest.raises(FloatingPointError, match="injected block error"):
        _monodromy_batch(nu, eps)


def test_determinant_check_skips_overflowing_cells():
    # det M of cells with 1e200 entries would overflow; they are exempt
    # and must not reach the product under the error::RuntimeWarning filter
    unit = np.array([[2.0, 3.0], [1.0, 2.0]])
    m = np.stack([unit, np.full((2, 2), 1e200), np.eye(2)])
    _check_determinants(m)
    bad = m.copy()
    bad[2, 0, 0] = 1.0 + 1e-6
    with pytest.raises(NumericalError, match="determinant"):
        _check_determinants(bad)


def test_potential_contour_extrema():
    params = make_params()
    q = np.linspace(0.0, TWO_PI, 65)
    p = np.linspace(-np.pi, np.pi, 65)
    field = potential_contours(q, p, params)
    assert field.max() == pytest.approx(D0 + 2 * J, rel=1e-12)
    # maximum at Q = 0 mod 2*pi, P = 0
    i, j = np.unravel_index(field.argmax(), field.shape)
    assert q[i] in (0.0, TWO_PI) or q[i] == pytest.approx(TWO_PI)
    assert p[j] == pytest.approx(0.0, abs=1e-12)
    # saddle value at (pi, 0)
    iq = np.argmin(np.abs(q - np.pi))
    jp = np.argmin(np.abs(p))
    assert field[iq, jp] == pytest.approx(-D0 + 2 * J, rel=1e-12)


def test_potential_contour_symmetry():
    params = make_params()
    q = np.linspace(-np.pi, np.pi, 33)
    p = np.linspace(-np.pi, np.pi, 33)
    field = potential_contours(q, p, params)
    assert np.allclose(field, field[::-1, ::-1])


def test_params_validation():
    with pytest.raises(ValueError):
        SemiclassicalParams(11, D0, J)      # odd N
    with pytest.raises(ValueError):
        SemiclassicalParams(12, -D0, J)     # negative product


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["dc_amplitude", "hopping"])
def test_params_reject_non_finite(field, value):
    # nan * J <= 0 is False, so NaN once constructed, and inf gave an
    # infinite small-oscillation frequency
    values = {"dc_amplitude": D0, "hopping": J, field: value}
    with pytest.raises(ConfigError, match="finite"):
        SemiclassicalParams(12, **values)


def test_params_read_the_signs_not_the_product():
    # d0 * J underflows to 0 here, yet both are positive (or both negative)
    for d0, hopping in ((1e-200, 1e-200), (-1e-200, -1e-200)):
        assert SemiclassicalParams(12, d0, hopping).dc_amplitude == d0
    for d0, hopping in ((1e-200, -1e-200), (0.0, J), (D0, 0.0)):
        with pytest.raises(ConfigError, match="positive product"):
            SemiclassicalParams(12, d0, hopping)


#: (omega, delta1) indices of the default map's cells that the cushion
#: 2 < |tr M| <= 2 + STABILITY_TOLERANCE flags stable, though Mathieu's
#: characteristic values call them unstable
CUSHION_CELLS = {
    40: [(26, 1)],
    200: [(32, 36), (32, 40), (65, 22), (66, 35), (130, 7), (131, 4),
          (132, 1), (133, 2), (134, 5), (146, 42)],
}


@pytest.mark.parametrize("resolution", sorted(CUSHION_CELLS))
def test_every_stability_flag_matches_mathieu(resolution):
    # an independent classification of every cell, by Sturm counts of the
    # characteristic values below a = 4/nu^2: only the cushion differs
    params = make_params()
    omega, delta1 = default_grid_axes(params, resolution)
    grid = stability_grid(omega, delta1, params)
    nu, eps = scaled_cells(omega[:, None], delta1[None, :], params)
    oracle = mathieu_stable(nu, eps).reshape(grid.stable.shape)
    cells = CUSHION_CELLS[resolution]
    assert np.argwhere(oracle != grid.stable).tolist() == [list(c) for c in cells]
    for cell in cells:
        assert grid.stable[cell] and not oracle[cell]
        assert 2.0 < grid.abs_trace[cell] <= 2.0 + STABILITY_TOLERANCE
