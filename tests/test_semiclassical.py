import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivenchain import semiclassical
from drivenchain.config import RunConfig, resolve
from drivenchain.errors import NumericalError
from drivenchain.semiclassical import (BLOCK_COLUMNS, CHUNK_STEPS,
                                       DEFAULT_MONODROMY_STEPS,
                                       STABILITY_TOLERANCE,
                                       SemiclassicalParams,
                                       _check_determinants, _chunk_count,
                                       _integrate_group, _monodromy_batch,
                                       _monodromy_steps,
                                       default_grid_axes, energy,
                                       potential_contours, stability_grid)
from drivenchain.units import TWO_PI, rad_ns_from_mhz
from oracles import (classical_rhs, full_period_monodromy, integrate_trajectory,
                     monodromy_matrix, monodromy_trace,
                     serial_half_period_monodromy,
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
        m = monodromy_matrix(omega_drive, 0.0, params, steps_per_period=4096)
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
    grid = stability_grid(omega_values, delta1_values, params,
                          steps_per_period=512)
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
        grid = stability_grid(local, [delta1_frac * D0], params,
                              steps_per_period=2048)
        assert np.any(~grid.stable), f"no instability near m={m}"


def test_classification_invariant_under_step_halving():
    params = make_params()
    omega_small = params.small_oscillation_frequency
    omega_values = np.linspace(0.3, 2.8, 31) * omega_small
    delta1_values = np.linspace(0.0, 2 * D0, 11)
    coarse = stability_grid(omega_values, delta1_values, params, 1024)
    fine = stability_grid(omega_values, delta1_values, params, 2048)
    assert np.array_equal(coarse.stable, fine.stable)


def test_grid_refinement_subsampling_exact():
    params = make_params()
    omega_values = np.linspace(0.5, 2.5, 9) * params.small_oscillation_frequency
    delta1_values = np.linspace(0.0, 2 * D0, 7)
    fine = stability_grid(omega_values, delta1_values, params, 256)
    coarse = stability_grid(omega_values[::2], delta1_values[::3], params, 256)
    assert np.array_equal(coarse.abs_trace, fine.abs_trace[::2, ::3])


def test_single_cell_matches_grid_cell():
    params = make_params()
    omega = 1.3 * params.small_oscillation_frequency
    delta1 = 0.7 * D0
    grid = stability_grid([omega], [delta1], params, 512)
    single = monodromy_trace(omega, delta1, params, 512)
    assert grid.abs_trace[0, 0] == single


def test_operating_point_adjacent_to_tongue():
    # the resonance choice m=3 with full drive amplitude sits inside or
    # within one default-grid cell of the third instability tongue
    params = make_params()
    cell = 3 * params.small_oscillation_frequency / 200
    omegas = [OMEGA_OP - cell, OMEGA_OP, OMEGA_OP + cell]
    grid = stability_grid(omegas, [D0], params, 2048)
    assert np.any(~grid.stable)


def oracle_monodromy(omega, delta1, params, steps_per_period):
    """Full-period matrices with the package's per-cell step counts."""
    omega, delta1 = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                        np.asarray(delta1, dtype=float))
    omega_flat, delta1_flat = omega.ravel(), delta1.ravel()
    steps = _monodromy_steps(omega_flat, delta1_flat, params, steps_per_period)
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


@pytest.mark.parametrize("steps_per_period", [128, 256, 512])
def test_half_period_matches_full_period_oracle(steps_per_period):
    # a quarter of the resolution-8 omegas spans three to five step-count
    # groups
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 8)
    omega_values = omega_values / 4
    om, d1 = np.meshgrid(omega_values, delta1_values, indexing="ij")
    steps = _monodromy_steps(om.ravel(), d1.ravel(), params, steps_per_period)
    assert len(np.unique(steps)) >= 3
    reference = oracle_monodromy(om, d1, params, steps_per_period)
    ref_trace = np.abs(reference[..., 0, 0] + reference[..., 1, 1])
    grid = stability_grid(omega_values, delta1_values, params, steps_per_period)
    ref_stable = ref_trace <= 2.0 + STABILITY_TOLERANCE
    assert np.array_equal(grid.stable, ref_stable)
    assert_trace_matches(grid.abs_trace, ref_trace)
    for i, j in ((0, 0), (0, 7), (4, 3), (7, 0), (7, 7)):
        m = monodromy_matrix(omega_values[i], delta1_values[j], params,
                             steps_per_period)
        assert_trace_matches(abs(np.trace(m)), ref_trace[i, j])
        if np.abs(m).max() <= 8.0:
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("steps", [2, 4, 8, 16])
def test_half_period_identity_at_few_steps(steps):
    # the identity is exact for any power-of-two step count, not only
    # converged ones
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 6)
    om, d1 = (a.ravel() for a in np.meshgrid(omega_values, delta1_values))
    half = _integrate_group(om, d1, params, steps)
    full = full_period_monodromy(om, d1, params, steps)
    scale = np.maximum(1.0, np.abs(full).max(axis=(-2, -1)))
    assert np.all(np.abs(half - full).max(axis=(-2, -1)) <= 1e-12 * scale**2)


DEFAULT_OMEGAS = default_grid_axes(make_params())[0]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(omega=DEFAULT_OMEGAS[-1], delta1=D0, steps_floor=2)  # 32 steps
@given(omega=st.sampled_from(list(DEFAULT_OMEGAS)),
       delta1=st.floats(0.0, 2 * D0),
       steps_floor=st.sampled_from([2, 128, 512, 1024]))
def test_monodromy_trace_matches_full_period_oracle(omega, delta1,
                                                    steps_floor):
    params = make_params()
    trace = monodromy_trace(omega, delta1, params, steps_floor)
    reference = abs(np.trace(oracle_monodromy(omega, delta1, params,
                                              steps_floor)))
    if reference <= 10.0:
        assert_trace_matches(trace, reference)
    else:
        assert trace > 2.0 + STABILITY_TOLERANCE


def test_trace_error_falls_16x_per_step_doubling():
    # the lowest-omega row converges slowest; measured step-halving
    # differences of tr M shrink 16.2x from 2048 -> 4096 to 4096 -> 8192
    # steps (its default count), a fourth-order scheme
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params)
    om = np.full(200, omega_values[0])
    assert set(_monodromy_steps(om, delta1_values, params,
                                DEFAULT_MONODROMY_STEPS)) == {8192}
    trace = {}
    for steps in (2048, 4096, 8192):
        m = _integrate_group(om, delta1_values, params, steps,
                             _chunk_count(steps, DEFAULT_MONODROMY_STEPS))
        trace[steps] = m[:, 0, 0] + m[:, 1, 1]
    checked = np.abs(trace[8192]) <= 10.0
    scale = np.maximum(1.0, np.abs(trace[8192][checked]))
    err_2048, err_4096 = (np.abs(trace[s] - trace[2 * s])[checked] / scale
                          for s in (2048, 4096))
    assert 12.0 < err_2048.max() / err_4096.max() < 20.0
    # Richardson estimate of the default count's error, well inside the
    # classification cushion
    assert err_4096.max() / 15.0 < 0.1 * STABILITY_TOLERANCE


def test_default_steps_match_yoshida_reference():
    # the former triple-jump scheme at 8x each cell's default step count
    # (measured agreement over these 170 cells: 2.2e-9 in the 64-step group,
    # 2.3e-9 in the 128-step one and 4.3e-9 overall, in the 256-step one)
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params)
    omega_values, delta1_values = omega_values[7::12], delta1_values[::20]
    grid = stability_grid(omega_values, delta1_values, params)
    om, d1 = (a.ravel() for a in np.meshgrid(omega_values, delta1_values,
                                             indexing="ij"))
    steps = _monodromy_steps(om, d1, params, DEFAULT_MONODROMY_STEPS)
    assert set(steps) == {64, 128, 256, 512, 1024}
    reference = np.empty(om.size)
    for count in np.unique(steps):
        mask = steps == count
        m = yoshida_full_period_monodromy(om[mask], d1[mask], params,
                                          8 * int(count))
        reference[mask] = np.abs(m[..., 0, 0] + m[..., 1, 1])
    reference = reference.reshape(grid.abs_trace.shape)
    assert np.array_equal(grid.stable,
                          reference <= 2.0 + STABILITY_TOLERANCE)
    assert_trace_matches(grid.abs_trace, reference)


def test_default_floor_matches_former_256_step_floor():
    # the 64-step floor against the former 256-step one on the default
    # grid: no flag flips, relative |tr M| changes <= 1e-7 (measured
    # 1.94e-8), and every cell with >= 256 steps, row 0 among them, is
    # integrated bit for bit as before
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params)
    grid = stability_grid(omega_values, delta1_values, params)
    former = stability_grid(omega_values, delta1_values, params, 256)
    assert grid.monodromy_groups[0]["steps"] == DEFAULT_MONODROMY_STEPS == 64
    assert np.array_equal(grid.stable, former.stable)
    steps = _monodromy_steps(*flat_grid(omega_values, delta1_values), params,
                             DEFAULT_MONODROMY_STEPS)
    same = steps.reshape(grid.stable.shape) >= 256
    assert same[0].all() and 0.2 < same.mean() < 0.3
    assert np.array_equal(grid.abs_trace[same], former.abs_trace[same])
    checked = former.abs_trace <= 10.0
    change = (np.abs(grid.abs_trace - former.abs_trace)[checked]
              / np.maximum(1.0, former.abs_trace[checked]))
    assert change.max() <= 1e-7


@pytest.fixture(scope="module")
def high_group_cells():
    """Three cells of every chunked default-grid group, with the
    lowest-omega row's ends, and their full-period oracle traces at a
    given floor (each step count integrated once)."""
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params)
    om, d1 = (a.ravel() for a in np.meshgrid(omega_values, delta1_values,
                                             indexing="ij"))
    steps = _monodromy_steps(om, d1, params, DEFAULT_MONODROMY_STEPS)
    assert om[0] == om[199] == omega_values[0]
    picked = [0, 199]
    for count in np.unique(steps[steps > CHUNK_STEPS]):
        where = np.flatnonzero(steps == count)
        picked += [where[0], where[len(where) // 2], where[-1]]
    om, d1 = om[picked], d1[picked]
    assert set(steps[picked]) == {512, 1024, 2048, 4096, 8192}
    traces = {}

    def reference(steps_floor):
        counts = _monodromy_steps(om, d1, params, steps_floor)
        for count in set(counts.tolist()) - set(traces):
            m = full_period_monodromy(om, d1, params, count)
            traces[count] = np.abs(m[..., 0, 0] + m[..., 1, 1])
        return np.array([traces[c][i] for i, c in enumerate(counts.tolist())])

    return om, d1, reference


@pytest.mark.parametrize("steps_floor",
                         [DEFAULT_MONODROMY_STEPS, 256, 1024, 512, 2048])
def test_chunked_groups_match_full_period_oracle(high_group_cells, steps_floor):
    # every picked cell needs >= 512 steps; a higher floor raises some of
    # them to the floor group, and every group above max(floor, CHUNK_STEPS)
    # is chunked
    om, d1, reference = high_group_cells
    ref_trace = reference(steps_floor)
    params = make_params()
    m, groups = _monodromy_batch(om, d1, params, steps_floor)
    assert len(groups) >= 3
    assert all(g["chunks"] > 1 for g in groups
               if g["steps"] > max(steps_floor, CHUNK_STEPS))
    trace = np.abs(m[..., 0, 0] + m[..., 1, 1])
    ref_stable = ref_trace <= 2.0 + STABILITY_TOLERANCE
    assert np.array_equal(trace <= 2.0 + STABILITY_TOLERANCE, ref_stable)
    assert_trace_matches(trace, ref_trace)


def test_chunk_count_depends_on_steps_and_floor_only():
    assert [_chunk_count(s, 1024) for s in (1024, 2048, 4096, 32768)] \
        == [1, 2, 4, 32]
    assert [_chunk_count(s, 256) for s in (256, 512, 1024, 8192)] \
        == [1, 2, 4, 32]
    assert [_chunk_count(s, 128) for s in (128, 256, 1024, 2048)] == [1, 1, 4, 8]
    assert [_chunk_count(s, 2048) for s in (2048, 4096, 32768)] == [1, 2, 16]
    assert [_chunk_count(s, 2) for s in (2, 32, 512)] == [1, 1, 2]


def test_chunked_group_independent_of_cell_count():
    params = make_params()
    omega = default_grid_axes(params)[0][0]
    delta1 = np.linspace(0.0, 2 * D0, 200)
    chunks = _chunk_count(8192, DEFAULT_MONODROMY_STEPS)
    many = _integrate_group(np.full(200, omega), delta1, params, 8192, chunks)
    for j in (0, 117, 199):
        one = _integrate_group(np.array([omega]), delta1[j:j + 1], params,
                               8192, chunks)
        assert np.array_equal(one[0], many[j])


@pytest.mark.parametrize("steps_floor",
                         [DEFAULT_MONODROMY_STEPS, 256, 1024, 128])
def test_floor_group_bitwise_equal_to_serial_loop(steps_floor):
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 50)
    om, d1 = (a.ravel() for a in np.meshgrid(omega_values, delta1_values))
    floor = _monodromy_steps(om, d1, params, steps_floor) == steps_floor
    om, d1 = om[floor], d1[floor]
    assert _chunk_count(steps_floor, steps_floor) == 1 and om.size > 200
    assert np.array_equal(_integrate_group(om, d1, params, steps_floor),
                          serial_half_period_monodromy(om, d1, params,
                                                       steps_floor))


@pytest.mark.parametrize("steps", [2, 4, 128, 1024, 256])
def test_batched_kicks_bitwise_equal_to_serial_loop(steps):
    # one (6, C, n) kick-strength buffer per step, from a single step up
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 12)
    om, d1 = (a.ravel() for a in np.meshgrid(omega_values, delta1_values))
    assert np.array_equal(_integrate_group(om, d1, params, steps),
                          serial_half_period_monodromy(om, d1, params, steps))


@pytest.mark.parametrize("steps_floor",
                         [DEFAULT_MONODROMY_STEPS, 256, 1024, 128, 2048])
def test_grid_bitwise_independent_of_blocks(monkeypatch, steps_floor):
    # half the lowest to the highest default omega: every group has >= 3
    # cells, so a budget of a third of the smallest group's columns splits
    # all of them
    params = make_params()
    low, high = default_grid_axes(params)[0][[0, -1]]
    om = np.geomspace(low / 2, high, 16)
    d1 = np.linspace(0.0, 2 * D0, 4)
    groups = _monodromy_batch(*flat_grid(om, d1), params, steps_floor)[1]
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
        grid = stability_grid(om, d1, params, steps_floor)
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
    om, d1 = flat_grid(*default_grid_axes(params, 10))
    calls, integrate = itertools.count(), semiclassical._integrate_group

    def failing(*args):
        if next(calls) == 2:
            raise FloatingPointError("injected block error")
        return integrate(*args)

    monkeypatch.setattr(semiclassical, "_integrate_group", failing)
    monkeypatch.setattr(semiclassical, "BLOCK_COLUMNS", 4)
    with pytest.raises(FloatingPointError, match="injected block error"):
        _monodromy_batch(om, d1, params, 64)


def test_stability_grid_rejects_floor_not_power_of_two():
    # 384 is even, but it would cut a 2048-step cell's 1024 half steps
    # into 2048 // 384 = 5 chunks
    params = make_params()
    omega_values, delta1_values = default_grid_axes(params, 4)
    for floor in (0, 1, 3, 255, 384):
        with pytest.raises(ValueError, match="power of two"):
            stability_grid(omega_values, delta1_values, params, floor)


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
