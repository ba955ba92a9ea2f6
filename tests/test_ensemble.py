import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drivenchain import ensemble, propagate
from drivenchain.basis import build_sector_basis, fock_state
from drivenchain.cli import main
from drivenchain.config import RunConfig, load_config, resolve
from drivenchain.ensemble import (MAX_FLOQUET_STEPS, MAX_STEPS,
                                  run_dynamics_ensemble, run_spectrum_ensemble)
from drivenchain.errors import ConfigError
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import (DisorderSpec, DriveSpec, build_potential,
                               sample_disorder)
from drivenchain.observables import observable_series
from drivenchain.propagate import (S6_SUBSTEPS, evolve_state,
                                   floquet_operator, state_grid)
from drivenchain.spectrum import gap_ratios, quasienergies
from drivenchain.units import rad_ns_from_mhz
from oracles import cos_degenerate_unitary, uniform_chain

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


def ensemble_rows(model, spec, site, t_samples=T_SAMPLES, step=STEP):
    """The runner's sample times, its run record and its (realization,
    time, site) populations, collected batch by batch with a list-appending
    consumer."""
    batches, record = [], {}
    times = run_dynamics_ensemble(model, spec, site, t_samples, step,
                                  lambda *batch: batches.append(batch),
                                  record=record)
    assert [b[0].start for b in batches] == list(range(
        0, spec.realization_count, record["batch_size"]))
    return times, record, np.concatenate([b[2] for b in batches])


def mean_populations(model, spec, site, t_samples=T_SAMPLES):
    """(time, site) realization mean: ``cmd_ensemble``'s row-by-row sum is
    bitwise this mean."""
    return ensemble_rows(model, spec, site, t_samples)[2].mean(axis=0)


def batch_budget(size, dim, table, vectors):
    """A BATCH_BYTES that makes batches of ``size`` realizations, one
    realization counted as the runners count it: six dim x dim matrices,
    ``table`` more entries and ``vectors`` dim-vectors (a spectrum's table
    is its U(T), dim^2, and it holds no vectors)."""
    return size * 16 * (6 * dim ** 2 + table + vectors * dim)


def realization_models(model, spec):
    return [model.with_potential(
        model.potential.with_overlay(sample_disorder(spec, i)))
        for i in range(spec.realization_count)]


def test_zero_disorder_average_equals_single_run():
    model = make_model()
    mean = mean_populations(model, disorder(0.0, count=2), 3)
    traj = evolve_state(model, fock_state(model.basis, 3), T_SAMPLES, STEP)
    single = np.abs(traj.amplitudes) ** 2 @ model.basis.states
    assert np.array_equal(mean, single)


def test_mean_is_arithmetic_mean_of_kept_realizations():
    model = make_model()
    spec = disorder(3.0)
    rows = ensemble_rows(model, spec, 3)[2]
    assert rows.shape == (4, len(T_SAMPLES), N)
    singles = [observable_series(evolve_state(m, fock_state(model.basis, 3),
                                              T_SAMPLES, STEP).amplitudes,
                                 model.basis)[0]
               for m in realization_models(model, spec)]
    for populations, single in zip(rows, singles):
        assert np.array_equal(populations, single)
    mean = rows.mean(axis=0)
    assert np.abs(sum(singles) / 4 - mean).max() < 1e-12


def test_population_bounds_and_conservation():
    mean = mean_populations(make_model(), disorder(5.0), 3)
    assert mean.min() >= 0.0
    assert mean.max() <= 1.0
    assert np.abs(mean.sum(axis=1) - 1.0).max() < 1e-9


def test_batch_equals_single_realizations_bitwise(monkeypatch):
    # one block of R realizations against R runs of one; the runners also
    # take the ensemble in batches of 1, 7 and R, one realization holding
    # a prefix table of 33 x 144 entries and 13 samples here
    model = make_model()
    spec = disorder(3.0, count=9)
    models = realization_models(model, spec)
    h0 = model.static_hamiltonians(
        np.stack([m.potential.static_offsets for m in models]))
    for stacked, m in zip(h0, models):
        assert np.array_equal(stacked, m.static_hamiltonians()[0])
    psi0 = fock_state(model.basis, 3)
    singles = [evolve_state(m, psi0, T_SAMPLES, STEP) for m in models]
    batch = evolve_state(model, psi0, T_SAMPLES, STEP, h0)
    for amplitudes, s in zip(batch.amplitudes, singles):
        assert np.array_equal(amplitudes, s.amplitudes)
        assert np.array_equal(batch.times, s.times)
    populations = [observable_series(s.amplitudes, model.basis)[0]
                   for s in singles]
    single_ops = [floquet_operator(m, 64) for m in models]
    direct = gap_ratios([quasienergies(s) for s in single_ops])
    assert state_grid(model.drive, STEP, T_SAMPLES[-1])[2] == 32
    for size in (1, 7, len(models)):
        monkeypatch.setattr(ensemble, "BATCH_BYTES",
                            batch_budget(size, 12, 33 * 144, 3 * 13))
        times, record, rows = ensemble_rows(model, spec, 3)
        assert record["batch_size"] == size
        assert np.array_equal(times, singles[0].times)
        for row, single in zip(rows, populations):
            assert np.array_equal(row, single)
        monkeypatch.setattr(ensemble, "BATCH_BYTES",
                            batch_budget(size, 12, 144, 0))
        record = {}
        pooled = run_spectrum_ensemble(model, spec, 64, record)
        assert record["batch_size"] == size
        assert np.array_equal(pooled.ratios, direct.ratios)

    operators = floquet_operator(model, 64, h0)
    for matrix, s in zip(operators.matrix, single_ops):
        assert np.array_equal(matrix, s.matrix)

    # quasienergies of a stack whose row 4 takes eigvals (Re U has a
    # degenerate pair) against each matrix alone
    matrices = operators.matrix.copy()
    matrices[4] = cos_degenerate_unitary(12, 0.7, np.random.default_rng(11))
    stacked = quasienergies(replace(operators, matrix=matrices))
    assert [spec.fallback for spec in stacked] == [i == 4 for i in range(9)]
    for spec, matrix in zip(stacked, matrices):
        single = quasienergies(replace(operators, matrix=matrix))
        assert np.array_equal(spec.values, single.values)
        assert spec.fallback == single.fallback
        assert spec.modulus_deviation == single.modulus_deviation

    # the V^T V stack product at a second size: sector 2, dim 66
    model = make_model(sector=2)
    spec = disorder(3.0, count=3)
    models = realization_models(model, spec)
    h0 = model.static_hamiltonians(
        np.stack([m.potential.static_offsets for m in models]))
    operators = floquet_operator(model, 64, h0)
    single_ops = [floquet_operator(m, 64) for m in models]
    assert operators.matrix.shape == (3, 66, 66)
    for matrix, s in zip(operators.matrix, single_ops):
        assert np.array_equal(matrix, s.matrix)
    direct = gap_ratios([quasienergies(s) for s in single_ops])
    for size in (1, 2, 3):
        monkeypatch.setattr(ensemble, "BATCH_BYTES",
                            batch_budget(size, 66, 66 ** 2, 0))
        record = {}
        pooled = run_spectrum_ensemble(model, spec, 64, record)
        assert record["batch_size"] == size
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
    batch = evolve_state(model, psi0, t_samples, STEP, h0)
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
    assert np.array_equal(ensemble_rows(model, spec, 3)[2],
                          ensemble_rows(model, spec, 3)[2])
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
        ensemble_rows(model, disorder(3.0), 3, [-1.0])


def no_h0_stack(spec, indices):
    raise AssertionError("the H0 stack was built")


@pytest.fixture
def no_h0(monkeypatch):
    """A sentinel in place of the disorder draw that opens each batch's H0
    stack: a runner that gets this far raises AssertionError instead of
    allocating."""
    monkeypatch.setattr(ensemble, "sample_disorder", no_h0_stack)


def test_spectrum_ensemble_of_any_size_runs_in_batches(monkeypatch):
    # R x dim^2 is not refused: 1,000 realizations of sector 3 (dim 220)
    # reach the H0 stack of a first batch that fits BATCH_BYTES
    drawn = []

    def first_batch(spec, indices):
        drawn.append(indices.tolist())
        raise AssertionError("the H0 stack was built")

    monkeypatch.setattr(ensemble, "sample_disorder", first_batch)
    with pytest.raises(AssertionError, match="H0"):
        run_spectrum_ensemble(make_model(sector=3),
                              disorder(3.0, count=1_000), 64)
    size = ensemble.BATCH_BYTES // batch_budget(1, 220, 220 ** 2, 0)
    assert drawn == [list(range(size))]
    assert 1 <= size < 10


def test_spectrum_work_budget_refuses_before_the_h0_stack(no_h0):
    # R x Floquet steps x dim^3 at 64 steps per period (8 halved steps) in
    # sector 3: 1,100 realizations are 9.4e10 and fit MAX_WORK, 1,200 are
    # 1.02e11 and are refused by name
    assert ensemble.MAX_WORK == 1e11
    with pytest.raises(AssertionError, match="H0"):
        run_spectrum_ensemble(make_model(sector=3),
                              disorder(3.0, count=1_100), 64)
    with pytest.raises(ConfigError, match="work budget 1e\\+11"):
        run_spectrum_ensemble(make_model(sector=3),
                              disorder(3.0, count=1_200), 64)
    # 200 realizations at the default 256 steps per period (K = 32): 6.8e10
    with pytest.raises(AssertionError, match="H0"):
        run_spectrum_ensemble(make_model(sector=3), disorder(3.0, count=200))


def test_spectrum_counts_the_steps_its_product_takes(no_h0):
    # 8M + 16 steps per period is P = 2M + 4 S6 steps, half of them M + 2:
    # the product's own bound refuses P first, so K <= P <= MAX_FLOQUET_STEPS
    # never meets the step budget, whose hints would not change K
    with pytest.raises(ConfigError, match=(
            f"take {2 * MAX_STEPS + 4} S6 steps per period, more than "
            f"{MAX_FLOQUET_STEPS}")):
        run_spectrum_ensemble(make_model(), disorder(3.0), 8 * MAX_STEPS + 16)
    assert MAX_FLOQUET_STEPS < MAX_STEPS
    # the product's own bound counts the S6 steps P of the period, whether
    # V^T V halves them or not: 4P steps per period fit, and 4 (P + 1) and
    # 4 (P + 2) are refused, the latter halved to P/2 + 1 by the default drive
    phased = DriveSpec.cosine(N, 3 * J, 3 * J, OMEGA, phase=0.3)
    for model in (make_model(), replace(make_model(), drive=phased)):
        with pytest.raises(AssertionError, match="H0"):     # P steps fit
            run_spectrum_ensemble(model, disorder(3.0), 4 * MAX_FLOQUET_STEPS)
        for extra in (1, 2):
            with pytest.raises(ConfigError, match=(
                    f"take {MAX_FLOQUET_STEPS + extra} S6 steps per period, "
                    f"more than {MAX_FLOQUET_STEPS}")):
                run_spectrum_ensemble(model, disorder(3.0),
                                      4 * (MAX_FLOQUET_STEPS + extra))


def test_floquet_step_bound_exits_2_naming_steps_per_period(tmp_path, no_h0):
    # the first refused count, 32,769 S6 steps per period, through the
    # command line: exit 2 and a manifest that names the key, before H0
    out = tmp_path / "out"
    assert main(["spectrum", "--steps-per-period", "131076", "--out",
                 str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == (
        "the Floquet product would take 32769 S6 steps per period, more than "
        "32768: its roundoff nears the unitarity tolerance; lower "
        "steps_per_period (131076)")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_state_budget_counts_the_s6_steps_it_integrates(tmp_path,
                                                        monkeypatch):
    # the default 150 ns at T/256 is 755 fine steps but 188 grid steps of
    # 4 and 3 side steps, so it fits a budget of 200; 160 ns needs 201.4
    # grid steps, 202 whole ones, and is refused before the H0 stack is built
    monkeypatch.setattr(ensemble, "MAX_STEPS", 200)
    out = tmp_path / "fits"
    assert main(["dynamics", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["state_steps_integrated"] == 191
    monkeypatch.setattr(ensemble, "sample_disorder", no_h0_stack)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_max_ns = 160\n")
    out = tmp_path / "refused"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error_type"] == "ConfigError"
    assert "needs 202 propagator steps, more than 200" in manifest["error"]


def test_state_prefix_table_over_budget_refused_before_h0(no_h0,
                                                         monkeypatch):
    # one realization's table holds K + 1 = 33 matrices of 12 x 12 past
    # half a period, and K + 1 = 7 for a last sample at 5 ns (grid step 6);
    # it is counted in bytes with its workspace and its 13 or 2 samples
    model = make_model()
    monkeypatch.setattr(ensemble, "MAX_REALIZATION_BYTES",
                        batch_budget(1, 12, 33 * 144, 3 * 13) - 1)
    with pytest.raises(ConfigError, match="33 matrices .* prefix table"):
        ensemble_rows(model, disorder(3.0), 3)
    with pytest.raises(AssertionError, match="H0"):     # 7 matrices fit
        ensemble_rows(model, disorder(3.0), 3, [0.0, 5.0])
    monkeypatch.setattr(ensemble, "MAX_REALIZATION_BYTES",
                        batch_budget(1, 12, 33 * 144, 3 * 13))
    with pytest.raises(AssertionError, match="H0"):     # 33 fit
        ensemble_rows(model, disorder(3.0), 3)


def test_dynamics_budgets_refused_before_h0(no_h0):
    model = make_model()
    # the budget counts S6 grid steps, the period cut into whole S6 steps
    # of about S6_SUBSTEPS STEP
    grid_step = state_grid(model.drive, STEP, 0.0)[1]
    with pytest.raises(ConfigError, match="propagator steps"):
        ensemble_rows(model, disorder(3.0), 3,
                      [0.0, (MAX_STEPS + 1) * grid_step])
    with pytest.raises(AssertionError, match="H0"):     # MAX_STEPS fit
        ensemble_rows(model, disorder(3.0), 3, [0.0, MAX_STEPS * grid_step])
    with pytest.raises(ConfigError, match="inf propagator steps"):
        ensemble_rows(model, disorder(3.0), 3, T_SAMPLES, 0.0)
    # no population budget: the rows of 10,000 realizations x 301 samples
    # x 12 sites are reduced batch by batch, so the first batch is drawn
    with pytest.raises(AssertionError, match="H0"):
        ensemble_rows(model, disorder(3.0, count=10_000), 3,
                      np.arange(301) * STEP)
    # the work budget spectrum also spends, R x (K dim + 10 samples) dim^2
    # with K at most a period of S6 steps (64 here): 10,000 realizations of
    # 6,867 samples 1 ns apart are 9.9997e10 and fit, of 6,868 1.00005e11
    for samples, fits in ((6_867, True), (6_868, False)):
        with pytest.raises(AssertionError if fits else ConfigError,
                           match="H0" if fits else "work budget 1e\\+11"):
            ensemble_rows(model, disorder(3.0, count=10_000), 3,
                          np.arange(float(samples)))
    with pytest.raises(ConfigError, match="sample_dt_ns"):
        ensemble_rows(model, disorder(3.0), 3, [0.0, 0.1, 0.2])
    with pytest.raises(AssertionError, match="H0"):     # one step apart fits
        ensemble_rows(model, disorder(3.0), 3, np.arange(11) * STEP)


def write_config(path, **settings):
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return path


def data_files(out):
    """SHA-256 of every file a run wrote but its manifest."""
    return {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*"))
            if f.is_file() and f.name != "manifest.json"}


@pytest.mark.parametrize("command,settings_", [
    ("ensemble", dict(realizations=9, keep_realizations="true")),
    ("spectrum", dict(realizations=9)),
    ("spectrum", dict(realizations=3, sector=2)),
])
def test_data_files_identical_at_any_batch_size(tmp_path, monkeypatch,
                                                command, settings_):
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, t_max_ns=20, sample_dt_ns=2.0,
                       steps_per_period=64, **settings_)
    run = resolve(load_config(cfg))
    dim, times = run.basis.dim, run.sample_times()
    if command == "ensemble":
        count = state_grid(run.drive, run.step_ns, times[-1])[2]
        table, vectors = (count + 1) * dim ** 2, 3 * len(times)
    else:
        table, vectors = dim ** 2, 0
    written = []
    for size in (1, 7, run.config.realizations):
        monkeypatch.setattr(ensemble, "BATCH_BYTES",
                            batch_budget(size, dim, table, vectors))
        out = tmp_path / f"out_{size}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"]["batch_size"] == min(
            size, run.config.realizations)
        written.append(data_files(out))
    assert len(written[0]) == (10 if command == "ensemble" else 2)
    assert written[0] == written[1] == written[2]


def test_failed_run_lists_every_realization_file_it_wrote(tmp_path,
                                                         monkeypatch):
    # batches of one, realization 2 failing its norm check: the files of
    # realizations 0 and 1, written as their batches came, are all that is
    # on disk, and the manifest lists both
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, t_max_ns=20, sample_dt_ns=2.0,
                       steps_per_period=64, realizations=4,
                       keep_realizations="true")
    real_draw = ensemble.sample_disorder

    def draw_then_fail(spec, indices):
        if indices[0] == 2:
            monkeypatch.setattr(propagate, "NORM_TOL", -1.0)
        return real_draw(spec, indices)

    monkeypatch.setattr(ensemble, "BATCH_BYTES", 1)
    monkeypatch.setattr(ensemble, "sample_disorder", draw_then_fail)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["realization_index"] == 2
    written = data_files(out)
    assert sorted(written) == [f"realizations/realization_000{i}.csv"
                               for i in (0, 1)]
    assert manifest["outputs"] == [{"path": Path(name).name, "sha256": sha}
                                   for name, sha in written.items()]


@pytest.mark.parametrize("command,settings_", [
    ("dynamics", {}),
    ("ensemble", {}),
    ("spectrum", dict(profile="flat", flat_level_fraction=0.5,
                      disorder_w_over_j=3.0, realizations=200)),
])
def test_manifest_records_the_batch_size(tmp_path, command, settings_):
    # the default configs propagate their whole ensemble as one batch
    cfg = write_config(tmp_path / "run.cfg", **settings_)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"]["batch_size"] == manifest["config"][
        "realizations"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_large_ensemble_peak_rss_through_the_cli(tmp_path):
    # flat W=3J, R = 1000 at 1000 ns, in a child that reports its own
    # peak: with the whole ensemble's amplitudes and their observables held
    # at once it peaked at 417 MB, and with its 96 MB of populations held
    # whole at 159 MB; reduced batch by batch, nothing spans the ensemble.
    # VmHWM is the child's own high-water mark: its ru_maxrss also counts
    # the spawning process's, which a long suite can push past the bound
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, realizations=1000, t_max_ns=1000)
    code = ("from pathlib import Path\nfrom drivenchain.cli import main\n"
            f"assert main(['ensemble', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(Path('/proc/self/status').read_text())\n")
    src = Path(ensemble.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    peak_kb = next(line.split()[1] for line in done.stdout.splitlines()
                   if line.startswith("VmHWM:"))
    peak_mb = int(peak_kb) / 1024
    assert peak_mb <= 120, f"peak RSS {peak_mb:.0f} MB"
