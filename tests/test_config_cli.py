import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivenchain import cli, semiclassical
from drivenchain.cli import main, write_csv
from drivenchain.config import RunConfig, load_config, parse_site_range, resolve
from drivenchain.device import bundled_table_path, load_device_table
from drivenchain.errors import ConfigError
from drivenchain.propagate import floquet_steps, state_grid


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path: Path, **overrides) -> Path:
    lines = [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


FAST = dict(t_max_ns=20, sample_dt_ns=2.0, steps_per_period=64, realizations=2)


def test_write_csv_formats_floats_integers_and_flags(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    # (x, k, flag) columns given as arrays or a list, cut into blocks of 2
    monkeypatch.setattr(cli, "BLOCK_ROWS", 2)
    write_csv(path, ["x", "k", "flag"], "%.12g,%d,%d",
              np.array([0.1, 1.0 / 3.0, 1e-300]), [3, -2, 0],
              np.array([True, False, True]))
    assert path.read_text() == ("x,k,flag\n0.1,3,1\n0.333333333333,-2,0\n"
                                "1e-300,0,1\n")


def row_at_a_time_csv(header, fmt, rows) -> str:
    """A CSV formatted the former way: one % operation per row tuple."""
    return ",".join(header) + "\n" + "".join((fmt + "\n") % row
                                             for row in rows)


def test_block_writer_matches_row_at_a_time_formatting(tmp_path, monkeypatch):
    # a population table of several blocks, czz, a stability grid and a
    # contour grid of several blocks, each byte for byte the rows of the
    # same results formatted one at a time
    results, arguments = {}, {}
    for name in ("run_dynamics_ensemble", "stability_grid",
                 "potential_contours"):
        def recording(*args, _name=name, _func=getattr(cli, name), **kwargs):
            arguments[_name] = args
            results[_name] = _func(*args, **kwargs)
            return results[_name]
        monkeypatch.setattr(cli, name, recording)
    cfg = write_config(tmp_path / "run.cfg", t_max_ns=1500, sample_dt_ns=1.0,
                       stability_resolution=12, contour_resolution=101)
    out = tmp_path / "out"
    for command in ("dynamics", "stability", "contours"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

    dynamics = results["run_dynamics_ensemble"]
    times = dynamics.times.tolist()
    populations = dynamics.populations[0]
    correlations = {pair: values[0]
                    for pair, values in dynamics.correlations.items()}
    assert len(times) > cli.BLOCK_ROWS
    n_sites = populations.shape[1]
    expected = row_at_a_time_csv(
        ["time_ns"] + [f"n_{l}" for l in range(1, n_sites + 1)],
        ",".join(["%.12g"] * (n_sites + 1)),
        zip(times, *populations.T.tolist()))
    assert (out / "populations.csv").read_text() == expected
    expected = row_at_a_time_csv(
        ["time_ns", "i", "j", "value"], "%.12g,%d,%d,%.12g",
        [(t, i, j, v) for (i, j), values in sorted(correlations.items())
         for t, v in zip(times, values.tolist())])
    assert (out / "czz.csv").read_text() == expected
    grid = results["stability_grid"]
    expected = row_at_a_time_csv(
        ["omega", "delta1", "abs_trace", "stable"], "%.12g,%.12g,%.12g,%d",
        [(x, y, grid.abs_trace[i, j], grid.stable[i, j])
         for i, x in enumerate(grid.omega_values.tolist())
         for j, y in enumerate(grid.delta1_values.tolist())])
    assert (out / "stability_grid.csv").read_text() == expected
    q_values, p_values = (axis.tolist()
                          for axis in arguments["potential_contours"][:2])
    field = results["potential_contours"]
    assert len(q_values) * len(p_values) > cli.BLOCK_ROWS
    expected = row_at_a_time_csv(
        ["q", "p", "value"], "%.12g,%.12g,%.12g",
        [(q, p, field[i, j]) for i, q in enumerate(q_values)
         for j, p in enumerate(p_values)])
    assert (out / "contours.csv").read_text() == expected


def test_cli_runtime_never_imports_scipy(tmp_path):
    # scipy is a test dependency only; the command line runs on numpy
    code = ("import sys\n"
            "from drivenchain.cli import main\n"
            f"status = main(['spectrum', '--realizations', '2', "
            f"'--out', {str(tmp_path)!r}])\n"
            "assert status == 0, status\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
            # the COE mean is a constant, not a Gauss-Legendre rule
            "assert 'numpy.polynomial' not in sys.modules\n"
            # no command runs a thread pool
            "assert 'concurrent.futures' not in sys.modules\n")
    src = Path(importlib.import_module("drivenchain").__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert (tmp_path / "ratio_histogram.csv").is_file()


def test_sector_2_spectrum_bytes_hold_across_blas_thread_counts(tmp_path):
    # dim 66: every realization takes the real symmetric route, which is
    # bitwise under 1 and 2 BLAS threads where eigvals is not
    src = Path(importlib.import_module("drivenchain").__file__).parents[1]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "drivenchain.cli", "spectrum",
                        "--sector", "2", "--profile", "flat", "--disorder-w",
                        "3", "--realizations", "20", "--out", str(out)],
                       env=env, check=True)
        manifest = strict_manifest(out)
        assert manifest["environment"]["OPENBLAS_NUM_THREADS"] == threads
        assert manifest["health"]["quasienergy_fallbacks"] == 0
        outs.append(out)
    for name in ("ratio_histogram.csv", "spectrum_summary.json"):
        assert sha(outs[0] / name) == sha(outs[1] / name)


def test_parse_site_range():
    assert parse_site_range("7-12", 12, "x") == (7, 8, 9, 10, 11, 12)
    assert parse_site_range("1,3,5", 12, "x") == (1, 3, 5)
    assert parse_site_range("", 12, "x") == ()
    # a single site is a one-site range
    assert parse_site_range("7-7", 12, "x") == parse_site_range("7", 12, "x")
    assert parse_site_range("7-7", 12, "x") == (7,)
    assert parse_site_range("1-3,7", 12, "x") == (1, 2, 3, 7)
    assert parse_site_range(" 7 - 9 ", 12, "x") == (7, 8, 9)
    for bad in ("-3", "3-", "9-7", "1,,3", "7-8-9", "3.0"):
        with pytest.raises(ConfigError, match="x: "):
            parse_site_range(bad, 12, "x")
    with pytest.raises(ConfigError):
        parse_site_range("0-3", 12, "x")
    with pytest.raises(ConfigError):
        parse_site_range("abc", 12, "x")
    with pytest.raises(ConfigError):
        parse_site_range("None", 12, "x")      # no alias for the empty list


def test_load_config_roundtrip(tmp_path):
    path = write_config(tmp_path / "run.cfg", profile="flat",
                        disorder_w_over_j=3.0, master_seed=7,
                        coupling_mhz="11.5", keep_realizations="true")
    config = load_config(path)
    assert config.profile == "flat"
    assert config.disorder_w_over_j == 3.0
    assert config.master_seed == 7
    assert config.keep_realizations is True


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path / "run.cfg", bogus=1)
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


DUPLICATE_KEY = "realizations = 50\n# comment\nprofile = flat\nrealizations = 5000\n"


def test_load_config_rejects_a_key_set_twice(tmp_path):
    # the later line used to win silently
    path = tmp_path / "run.cfg"
    path.write_text(DUPLICATE_KEY)
    with pytest.raises(ConfigError, match=r"run.cfg:4: realizations is set "
                                          r"again \(first on line 1\)"):
        load_config(path)


def test_duplicate_key_exits_2_with_failed_manifest(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DUPLICATE_KEY)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = strict_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error_type"] == "ConfigError"
    assert "realizations" in manifest["error"]
    assert "line 1" in manifest["error"]
    assert manifest["config"] is None
    assert manifest["outputs"] == []


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(profile="sawtooth").validate()
    with pytest.raises(ConfigError):
        RunConfig(n_sites=11).validate()                 # odd formula chain
    with pytest.raises(ConfigError):
        RunConfig(n_sites=10, profile="table").validate()
    with pytest.raises(ConfigError):
        RunConfig(init_site=13).validate()
    RunConfig(n_sites=10).validate()                     # even N fine


@pytest.mark.parametrize("key,value", [("coupling_mhz", "5"),
                                       ("nonlinearity_mhz", "-100")])
def test_table_mode_refuses_the_chain_keys_it_reads_from_the_table(
        tmp_path, key, value):
    # the device table sets the couplings and the nonlinearity, so a value
    # given here would be recorded in the manifest but never used
    cfg = write_config(tmp_path / "run.cfg", profile="table", **{key: value})
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = strict_manifest(out)
    assert manifest["error_type"] == "ConfigError"
    assert key in manifest["error"]
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    # the default values, given explicitly, are accepted
    RunConfig(profile="table", coupling_mhz=(11.5,),
              nonlinearity_mhz=-250.0).validate()


def test_resolution_defaults_reproduce_operating_point():
    run = resolve(RunConfig())
    assert run.drive_frequency_mhz == pytest.approx(19.67, abs=0.01)
    assert run.drive.period == pytest.approx(50.84, abs=0.01)
    assert run.basis.dim == 12
    # resonance needs a defined dc * J product
    with pytest.raises(ConfigError):
        resolve(RunConfig(coupling_mhz=(0.0,)))


@pytest.mark.parametrize("overrides", [
    {}, {"profile": "flat"}, {"resonance_order": 1}, {"resonance_order": 6},
    {"coupling_mhz": (-11.5,)},
    {"coupling_mhz": (9.0,), "dc_amplitude_over_j": 2.0},
])
def test_default_drive_and_potential_share_one_d0_and_omega(overrides):
    # the resonance is m * omega = 2 * Omega with the Omega of the stability
    # map, and the drive's d0 is the potential's (cos 0 = 1 on site 1)
    run = resolve(RunConfig(**overrides))
    m = run.config.resonance_order
    assert run.drive.angular_frequency == (
        (2 / m) * run.semiclassical_params().small_oscillation_frequency)
    assert run.drive.dc_amplitude == run.potential.static_offsets[0]


def test_disorder_width_scales_by_the_coupling_magnitude():
    runs = [resolve(RunConfig(coupling_mhz=(coupling,), disorder_w_over_j=3.0))
            for coupling in (11.5, -11.5)]
    assert runs[0].disorder.strength == runs[1].disorder.strength > 0
    assert runs[1].drive.ac_amplitude == -runs[0].drive.ac_amplitude


def test_resolution_device_mode():
    run = resolve(RunConfig(profile="table"))
    assert run.chain.bond_couplings[0] == pytest.approx(
        run.chain.bond_couplings[0])
    table = load_device_table(bundled_table_path())
    assert np.array_equal(run.potential.static_offsets,
                          table.potential_spec("cosine").static_offsets)


def test_cmd_dynamics_outputs(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", **FAST)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    pops = (out / "populations.csv").read_text().splitlines()
    assert pops[0] == "time_ns," + ",".join(f"n_{l}" for l in range(1, 13))
    assert len(pops) == 12                      # 11 samples + header
    czz = (out / "czz.csv").read_text().splitlines()
    assert czz[0] == "time_ns,i,j,value"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "success"
    assert {o["path"] for o in manifest["outputs"]} == {"populations.csv",
                                                        "czz.csv"}


@pytest.mark.parametrize("command", ["dynamics", "ensemble"])
def test_state_manifest_names_the_s6_steps(tmp_path, command):
    # 0, 2, ..., 20 ns at T/64 snap to 0, 3, 5, ..., 25 fine steps: 6 S6
    # steps of 4 fine steps reach the last, and the leftovers 1, 2 and 3
    # take one side step each
    cfg = write_config(tmp_path / "run.cfg", **FAST)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    manifest = strict_manifest(out)
    assert manifest["state_steps_integrated"] == 6 + 3
    assert manifest["state_step_ns"] == 4 * resolve(load_config(cfg)).step_ns


def test_cmd_dynamics_zero_coupling_constant_columns(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", coupling_mhz="0.0",
                       drive_frequency_mhz=19.67, ac_amplitude_over_j=0.0,
                       **FAST)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "populations.csv", delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 1:], rows[0, 1:])


def test_cmd_dynamics_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=5.0, **FAST)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["dynamics", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("populations.csv", "czz.csv"):
        assert sha(out1 / name) == sha(out2 / name)


def test_cmd_ensemble_single_realization_matches_dynamics(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, **{**FAST, "realizations": 1})
    out_d, out_e = tmp_path / "dyn", tmp_path / "ens"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out_d)]) == 0
    assert main(["ensemble", "--config", str(cfg), "--out", str(out_e)]) == 0
    single = np.loadtxt(out_d / "populations.csv", delimiter=",", skiprows=1)
    mean = np.loadtxt(out_e / "ensemble_populations.csv", delimiter=",",
                      skiprows=1)
    assert np.array_equal(single, mean)
    manifest = json.loads((out_e / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == RunConfig().master_seed
    assert "master_seed" not in manifest        # stated once, in the config
    assert "realization_seeds" not in manifest


def test_cmd_ensemble_keep_realizations(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, **FAST)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out),
                 "--keep-realizations"]) == 0
    raws = sorted((out / "realizations").glob("*.csv"))
    assert len(raws) == 2
    stacked = np.stack([np.loadtxt(p, delimiter=",", skiprows=1)[:, 1:]
                        for p in raws])
    mean = np.loadtxt(out / "ensemble_populations.csv", delimiter=",",
                      skiprows=1)[:, 1:]
    assert np.abs(stacked.mean(axis=0) - mean).max() < 1e-12


def test_cmd_spectrum_outputs_and_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0,
                       **{**FAST, "realizations": 4})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("ratio_histogram.csv", "spectrum_summary.json"):
        assert sha(out1 / name) == sha(out2 / name)
    summary = json.loads((out1 / "spectrum_summary.json").read_text())
    assert summary["pooled_ratio_count"] == 40
    header = (out1 / "ratio_histogram.csv").read_text().splitlines()[0]
    assert header == ("r_bin_lo,r_bin_hi,empirical_density,"
                      "poisson_density,coe_density")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(steps=st.integers(1, 4096), mhz=st.floats(1.0, 1000.0))
def test_step_ns_rounds_back_to_the_floquet_grid(steps, mhz):
    # floquet_steps floors P from the config, state_grid rounds it back from
    # the fine step that step_ns hands the state path
    run = resolve(RunConfig(steps_per_period=steps, drive_frequency_mhz=mhz))
    assert (state_grid(run.drive, run.step_ns, ())[0]
            == floquet_steps(run.drive, steps)[0])


#: columns that scale with the run, by file: times halve, frequencies double
SCALED_COLUMNS = {"populations.csv": {0: 0.5}, "czz.csv": {0: 0.5},
                  "stability_grid.csv": {0: 2.0, 1: 2.0}}


@pytest.mark.parametrize("command,settings_", [
    ("dynamics", {}),
    ("spectrum", {"realizations": 40}),
    ("spectrum", {"realizations": 20, "sector": 2, "boson_cutoff": 2}),
    ("stability", {"stability_resolution": 40}),
])
def test_twice_every_frequency_and_half_every_time(tmp_path, command,
                                                   settings_):
    # the resonance drive follows J, and every dimensionless number of the
    # run is unchanged by a power-of-two scale, which is exact in binary: so
    # every other column and summary value is bitwise the same
    outs = []
    for scale in (1, 2):
        cfg = write_config(
            tmp_path / f"x{scale}.cfg", profile="flat", disorder_w_over_j=3,
            coupling_mhz=11.5 * scale, nonlinearity_mhz=-250 * scale,
            t_max_ns=150 / scale, sample_dt_ns=1.0 / scale, **settings_)
        outs.append(tmp_path / f"x{scale}")
        assert main([command, "--config", str(cfg), "--out",
                     str(outs[-1])]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        if name == "manifest.json":
            continue
        one, two = ((out / name).read_text() for out in outs)
        if name == "spectrum_summary.json":
            one, two = json.loads(one), json.loads(two)
            assert (two.pop("drive_frequency_mhz")
                    == 2 * one.pop("drive_frequency_mhz"))
            assert one == two
            continue
        rows_one, rows_two = one.splitlines(), two.splitlines()
        assert rows_one[0] == rows_two[0] and len(rows_one) == len(rows_two)
        scaled = SCALED_COLUMNS.get(name, {})
        for row_one, row_two in zip(rows_one[1:], rows_two[1:]):
            cells_one, cells_two = row_one.split(","), row_two.split(",")
            for column, factor in sorted(scaled.items(), reverse=True):
                # each side rounded to %.12g
                assert math.isclose(float(cells_two.pop(column)), factor
                                    * float(cells_one.pop(column)),
                                    rel_tol=1e-11), (name, row_one)
            assert cells_one == cells_two, (name, row_one)


@pytest.mark.parametrize("settings_,steps,integrated", [
    ({}, 64, 8),            # 16 S6 steps, f even about T/2: half of them
    ({"drive_phase_rad": "0.3"}, 64, 16),
    ({"steps_per_period": 63}, 63, 15),     # 15 S6 steps: odd, all of them
])
def test_cmd_spectrum_manifest_names_the_floquet_product(tmp_path, settings_,
                                                          steps, integrated):
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       **{**FAST, **settings_})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = strict_manifest(out)
    assert manifest["config"]["steps_per_period"] == steps
    assert "steps_per_period" not in manifest   # stated once, in the config
    assert manifest["floquet_steps_integrated"] == integrated


def test_cmd_spectrum_clean_single_realization(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       **{**FAST, "realizations": 1})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["pooled_ratio_count"] == 10


def test_cmd_stability_and_contours(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", stability_resolution=12,
                       contour_resolution=9, **FAST)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "stability_grid.csv", delimiter=",", skiprows=1)
    assert rows.shape == (144, 4)
    stable_at_zero_drive = rows[rows[:, 1] == 0.0][:, 3]
    assert np.all(stable_at_zero_drive == 1)
    assert main(["contours", "--config", str(cfg), "--out", str(out)]) == 0
    contour_rows = np.loadtxt(out / "contours.csv", delimiter=",", skiprows=1)
    assert contour_rows.shape == (81, 3)


def test_cmd_stability_manifest_records_monodromy_groups(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", stability_resolution=12, **FAST)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    groups = strict_manifest(out)["monodromy_groups"]
    assert all(sorted(g) == ["blocks", "cells", "chunks", "steps"]
               for g in groups)
    steps = [g["steps"] for g in groups]
    assert steps == sorted(set(steps)) and steps[0] == 16 and len(steps) > 1
    assert sum(g["cells"] for g in groups) == 144
    assert [g["chunks"] for g in groups] == [
        max(1, s // semiclassical.CHUNK_STEPS) for s in steps]
    header = (out / "stability_grid.csv").read_text().splitlines()[0]
    assert header == "omega,delta1,abs_trace,stable"


def test_default_stability_groups_loop_at_most_128_steps(tmp_path):
    # the parallel-in-time chunks bound the Python loop of every group, so
    # the slow high-step groups cost no more numpy calls than the floor
    out = tmp_path / "out"
    assert main(["stability", "--out", str(out)]) == 0
    groups = strict_manifest(out)["monodromy_groups"]
    assert sum(g["cells"] for g in groups) == 200 * 200
    assert max(g["steps"] for g in groups) == 2048
    assert all(g["steps"] // (2 * g["chunks"]) <= 128 for g in groups)


def test_default_stability_records_determinant_margin(tmp_path):
    # the worst checkable |det M - 1|, its tolerance and their ratio
    out = tmp_path / "out"
    assert main(["stability", "--out", str(out)]) == 0
    health = strict_manifest(out)["health"]
    assert list(health) == ["monodromy_determinant"]
    margin = health["monodromy_determinant"]
    assert margin["tolerance"] == semiclassical.DETERMINANT_TOL == 1e-8
    assert 0.0 < margin["worst"] < margin["tolerance"]
    assert margin["ratio"] == margin["worst"] / margin["tolerance"] < 1.0


def test_default_spectrum_records_modulus_margin_and_fallbacks(tmp_path):
    # the worst eigenvalue-modulus deviation, its tolerance and their ratio,
    # and no realization of the default run takes np.linalg.eigvals
    from drivenchain import spectrum
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out)]) == 0
    health = strict_manifest(out)["health"]
    assert sorted(health) == ["floquet_eigenvalue_modulus",
                              "quasienergy_fallbacks"]
    margin = health["floquet_eigenvalue_modulus"]
    assert margin["tolerance"] == spectrum.EIGENVALUE_MODULUS_TOL == 1e-9
    assert 0.0 < margin["worst"] < 1e-12
    assert margin["ratio"] == margin["worst"] / margin["tolerance"]
    assert health["quasienergy_fallbacks"] == 0


def test_stability_manifest_records_environment_and_step_rule(tmp_path):
    # --steps-per-period sets the quantum propagator; the floor stays 16
    cfg = write_config(tmp_path / "run.cfg", stability_resolution=12, **FAST)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out),
                 "--steps-per-period", "64"]) == 0
    manifest = strict_manifest(out)
    env = manifest["environment"]
    assert sorted(env) == ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "blas",
                           "cpu_count", "numpy", "python", "usable_cpus"]
    assert env["numpy"] == np.__version__
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        assert env[name] == os.environ.get(name)
    assert 1 <= env["usable_cpus"] <= env["cpu_count"]
    assert manifest["monodromy_steps_floor"] == 16
    assert manifest["monodromy_groups"][0]["steps"] == 16
    assert "monodromy_workers" not in manifest


def test_stability_starts_no_thread_on_four_cpus(tmp_path, monkeypatch):
    # the grid's blocks run on the calling thread however many CPUs are usable
    def no_thread(self):
        raise AssertionError("stability started a thread")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    cfg = write_config(tmp_path / "run.cfg", stability_resolution=12, **FAST)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = strict_manifest(out)
    assert manifest["environment"]["usable_cpus"] == 4
    assert sum(g["blocks"] for g in manifest["monodromy_groups"]) > 1


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    # platforms without an affinity call report the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._environment()["usable_cpus"] == (os.cpu_count() or 1)


def test_consecutive_main_calls_share_no_parser_state(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", **FAST)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["ensemble", "--config", str(cfg), "--out", str(first),
                 "--keep-realizations", "--seed", "7"]) == 0
    assert main(["ensemble", "--config", str(cfg), "--out", str(second)]) == 0
    assert strict_manifest(first)["config"]["keep_realizations"] is True
    config = strict_manifest(second)["config"]
    assert config["keep_realizations"] is False
    assert config["master_seed"] == RunConfig().master_seed
    assert not (second / "realizations").exists()


def test_cmd_device_check_bundled(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["device-check", "--out", str(out)]) == 0
    report = json.loads((out / "device_report.json").read_text())
    assert len(report["warnings"]) == 2
    printed = capsys.readouterr().out
    assert "warning:" in printed


def test_cmd_device_check_report_independent_of_table_directory(tmp_path):
    # the report names the table by file name and content hash, not its path
    reports = []
    for name in ("a", "b"):
        table = tmp_path / name / bundled_table_path().name
        table.parent.mkdir()
        table.write_bytes(bundled_table_path().read_bytes())
        out = tmp_path / name / "out"
        assert main(["device-check", "--table", str(table), "--out",
                     str(out)]) == 0
        reports.append((out / "device_report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["table"] == bundled_table_path().name
    assert report["table_sha256"] == sha(bundled_table_path())


def test_cmd_device_check_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["device-check", "--table", str(bad), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_non_utf8_config_or_device_table_exits_2(tmp_path):
    # byte 0xff is not UTF-8: a config error, not an internal one
    bad = tmp_path / "bad"
    bad.write_bytes(b"profile = flat\n\xff\n")
    for command, option in (("dynamics", "--config"),
                            ("device-check", "--table")):
        out = tmp_path / command
        assert main([command, option, str(bad), "--out", str(out)]) == 2
        manifest = strict_manifest(out)
        assert manifest["status"] == "failed"
        assert manifest["error_type"] == "ConfigError"
        assert "utf-8" in manifest["error"]


def bundled_row_with(name: str, entry: str) -> str:
    """Row ``name`` of the bundled device table as JSON text, its fourth
    entry replaced by ``entry``."""
    row = [json.dumps(x) for x in
           json.loads(bundled_table_path().read_text())[name]]
    row[3] = entry
    return "[" + ", ".join(row) + "]"


@pytest.mark.parametrize("name,row", [
    pytest.param("t1_us", bundled_row_with("t1_us", '"abc"'), id="text"),
    pytest.param("eta_mhz", bundled_row_with("eta_mhz", '"-200"'),
                 id="number-as-text"),
    pytest.param("flat_ghz", bundled_row_with("flat_ghz", "true"), id="bool"),
    pytest.param("cosine_ghz", "5", id="row-is-number"),
    pytest.param("couplings_mhz", "null", id="row-is-null"),
    pytest.param("f00", '"123456789012"', id="row-is-text"),
    pytest.param("cosine_ghz", bundled_row_with("cosine_ghz", "NaN"), id="nan"),
    pytest.param("readout_ghz", bundled_row_with("readout_ghz", "1e999"),
                 id="inf"),
    pytest.param("couplings_mhz",
                 bundled_row_with("couplings_mhz", "1" + "0" * 400),
                 id="integer-beyond-float"),
])
def test_malformed_device_table_row_exits_2(tmp_path, name, row):
    # every row is a list of finite numbers; anything else names the row,
    # both in device-check and where a run reads the table
    data = json.loads(bundled_table_path().read_text())
    data[name] = "ROW"
    table = tmp_path / "table.json"
    table.write_text(json.dumps(data).replace('"ROW"', row))
    cfg = write_config(tmp_path / "run.cfg", profile="table",
                       device_table=table, **FAST)
    for args in (["device-check", "--table", str(table)],
                 ["dynamics", "--config", str(cfg)]):
        out = tmp_path / args[0]
        assert main(args + ["--out", str(out)]) == 2
        manifest = strict_manifest(out)
        assert manifest["status"] == "failed"
        assert manifest["error_type"] == "ConfigError"
        assert repr(name) in manifest["error"]
        assert manifest["outputs"] == []


def test_deeply_nested_device_table_exits_2(tmp_path):
    # nesting beyond json's recursion limit is a config error, not an
    # internal one, both in device-check and where a run reads the table
    table = tmp_path / "table.json"
    table.write_text("[" * 200_000 + "]" * 200_000)
    cfg = write_config(tmp_path / "run.cfg", profile="table",
                       device_table=table, **FAST)
    for args in (["device-check", "--table", str(table)],
                 ["dynamics", "--config", str(cfg)]):
        out = tmp_path / args[0]
        assert main(args + ["--out", str(out)]) == 2
        manifest = strict_manifest(out)
        assert manifest["status"] == "failed"
        assert manifest["error_type"] == "ConfigError"
        assert "not valid JSON" in manifest["error"]
        assert manifest["outputs"] == []


def test_config_error_exit_code_and_manifest(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", n_sites=11)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def spoil_realization_2(real, spoil, batches):
    """``real`` with ``spoil`` applied to realization 2's row of its result,
    counting the rows of the batches it is called on, in order; each call
    appends its batch size to ``batches``."""
    def fake(matrices):
        values, local = np.array(real(matrices)), 2 - sum(batches)
        if 0 <= local < len(values):
            values[local] = spoil(values[local])
        batches.append(len(values))
        return values
    return fake


def counting_rows(real, rows):
    """``real``, appending the number of matrices of each call to ``rows``."""
    def counted(matrices):
        rows.append(len(matrices))
        return real(matrices)
    return counted


def test_realization_failure_exit_code_and_manifest(tmp_path, monkeypatch):
    # a check that fails in realization 2 alone names realization 2, in one
    # batch of 4 and in batches of 1, where it is the third batch's first;
    # the failed manifest records the batch size
    from drivenchain import ensemble, propagate, spectrum
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, **{**FAST, "realizations": 4})
    for budget, size in ((ensemble.BATCH_BYTES, 4), (1, 1)):
        for owner, name, spoil, check in (
                (propagate, "unitarity_defect", lambda defect: 1.0,
                 "unitarity"),
                # the real route's O^T U O, one call for the batch: its
                # diagonal leaves the unit circle and its off-diagonal stays
                # below ROTATION_RESIDUAL_TOL, so no row takes eigvals
                (spectrum, "real_rotation",
                 lambda rotated: rotated * (1.0 + 1e-6), "modulus")):
            out, batches, eigvals_rows = tmp_path / f"{name}_{size}", [], []
            with monkeypatch.context() as patch:
                patch.setattr(ensemble, "BATCH_BYTES", budget)
                patch.setattr(np.linalg, "eigvals", counting_rows(
                    np.linalg.eigvals, eigvals_rows))
                patch.setattr(owner, name, spoil_realization_2(
                    getattr(owner, name), spoil, batches))
                assert main(["spectrum", "--config", str(cfg), "--out",
                             str(out)]) == 3
            assert batches == [size] * (2 // size + 1)
            assert sum(eigvals_rows) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"] == "failed"
            assert manifest["realization_index"] == 2
            assert manifest["error"].startswith("realization 2: ")
            assert check in manifest["error"]
            assert manifest["environment"]["batch_size"] == size


@pytest.mark.parametrize("command,module,tolerance", [
    ("ensemble", "propagate", "NORM_TOL"),
    ("spectrum", "spectrum", "EIGENVALUE_MODULUS_TOL"),
])
def test_ensemble_norm_failure_exit_code_and_manifest(tmp_path, monkeypatch,
                                                      command, module,
                                                      tolerance):
    # every realization fails the check, so the first one is named; in
    # batches of 1 that fail from realization 2 on, the third batch's
    from drivenchain import ensemble
    checks = importlib.import_module(f"drivenchain.{module}")
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, **{**FAST, "realizations": 4})
    real_draw = ensemble.sample_disorder
    for budget, first_failing, size in ((ensemble.BATCH_BYTES, 0, 4),
                                        (1, 2, 1)):
        out = tmp_path / f"out_{first_failing}"
        with monkeypatch.context() as patch:
            def draw_then_fail(spec, indices):
                if indices[0] >= first_failing:
                    patch.setattr(checks, tolerance, -1.0)
                return real_draw(spec, indices)

            patch.setattr(ensemble, "BATCH_BYTES", budget)
            patch.setattr(ensemble, "sample_disorder", draw_then_fail)
            assert main([command, "--config", str(cfg), "--out",
                         str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["realization_index"] == first_failing
        assert manifest["error"].startswith(f"realization {first_failing}: ")
        assert manifest["environment"]["batch_size"] == size


def test_dynamics_norm_failure_records_the_batch_size(tmp_path, monkeypatch):
    # the one trajectory dynamics runs is realization 0 of a batch of 1
    from drivenchain import propagate
    monkeypatch.setattr(propagate, "NORM_TOL", -1.0)
    out = tmp_path / "out"
    assert main(["dynamics", "--out", str(out)]) == 3
    manifest = strict_manifest(out)
    assert manifest["realization_index"] == 0
    assert manifest["environment"]["batch_size"] == 1


@pytest.mark.parametrize("command,overrides,flags", [
    ("spectrum", dict(realizations=4), ["--steps-per-period", "32768"]),
    ("dynamics", dict(t_max_ns=20000, sample_dt_ns=10.0), []),
])
def test_long_runs_pass_unitarity_and_norm_checks(tmp_path, command,
                                                  overrides, flags):
    # both exited 3 on roundoff in exponentials that were unitary to only
    # 4.4e-15 (unitarity defect 1.791e-10, norm drift 2.214e-10)
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 *flags]) == 0
    assert strict_manifest(out)["status"] == "success"


def test_stability_determinant_failure_exits_3(tmp_path, monkeypatch):
    # the determinant check still fires on M rebuilt from the half period
    monkeypatch.setattr(semiclassical, "DETERMINANT_TOL", -1.0)
    cfg = write_config(tmp_path / "run.cfg", stability_resolution=12, **FAST)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 3
    manifest = strict_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error_type"] == "NumericalError"
    assert manifest["error"].startswith("monodromy determinant deviates")
    assert not (out / "stability_grid.csv").exists()


def test_stability_same_map_with_negative_coupling(tmp_path):
    # the sign flip of the default model (d0 * J > 0 still): the same
    # |tr M| and flags, bit for bit, with or without disorder (its width
    # scales by |J|); only the delta1 column changes sign
    outs = []
    for coupling, width in (("11.5", 0), ("-11.5", 0), ("-11.5", 3)):
        cfg = write_config(tmp_path / f"{coupling}_{width}.cfg",
                           coupling_mhz=coupling, disorder_w_over_j=width,
                           stability_resolution=60)
        outs.append(tmp_path / f"{coupling}_{width}")
        assert main(["stability", "--config", str(cfg),
                     "--out", str(outs[-1])]) == 0
    nominal, *flipped = ([row.split(",")[2:] for row in
                          (out / "stability_grid.csv").read_text().splitlines()]
                         for out in outs)
    assert nominal[0] == ["abs_trace", "stable"]
    assert len(nominal) == 60 * 60 + 1
    assert flipped == [nominal, nominal]


def test_stability_checks_determinants_at_subnormal_dc_amplitude(
        tmp_path, monkeypatch):
    # the check's |entry| <= 8 bound is in units of Omega, so a subnormal d0
    # leaves as many cells checkable as the default; a zero tolerance then
    # fails on their roundoff
    cfg = write_config(tmp_path / "run.cfg", dc_amplitude_over_j="1e-310",
                       stability_resolution=60)
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
    margin = strict_manifest(out)["health"]["monodromy_determinant"]
    assert 0.0 < margin["worst"] < margin["tolerance"]
    monkeypatch.setattr(semiclassical, "DETERMINANT_TOL", 0.0)
    failed = tmp_path / "failed"
    assert main(["stability", "--config", str(cfg), "--out", str(failed)]) == 3
    manifest = strict_manifest(failed)
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("monodromy determinant deviates")


def test_unexpected_exception_exits_1_with_strict_manifest(tmp_path,
                                                           monkeypatch):
    from drivenchain import cli

    def broken(*args):
        raise RuntimeError("injected defect")

    monkeypatch.setattr(cli, "potential_contours", broken)
    out = tmp_path / "out"
    assert main(["contours", "--out", str(out)]) == 1
    manifest = strict_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error_type"] == "RuntimeError"
    assert manifest["error"] == "injected defect"
    assert manifest["config"] == json.loads(json.dumps(
        asdict(resolve(RunConfig()).config)))


def test_cli_overrides_take_precedence(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", disorder_w_over_j=0.0,
                       keep_realizations="true", **FAST)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out),
                 "--disorder-w", "5.0", "--init-site", "9", "--seed", "77"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["disorder_w_over_j"] == 5.0
    assert manifest["config"]["init_site"] == 9
    assert manifest["config"]["master_seed"] == 77
    # flags left out keep the file's values
    assert manifest["config"]["keep_realizations"] is True
    assert manifest["config"]["steps_per_period"] == FAST["steps_per_period"]
    # dynamics is resolved as the one trajectory it runs
    assert manifest["config"]["realizations"] == 1
    rows = np.loadtxt(out / "populations.csv", delimiter=",", skiprows=1)
    assert rows[0, 9] == pytest.approx(1.0)      # excitation starts at site 9
    ensemble_out = tmp_path / "ensemble"
    assert main(["ensemble", "--config", str(cfg), "--out", str(ensemble_out),
                 "--seed", "77"]) == 0
    config = strict_manifest(ensemble_out)["config"]
    assert config["realizations"] == FAST["realizations"]
    assert config["master_seed"] == 77


# every value flag, the config key it sets, a malformed text and a valid one
VALUE_FLAGS = [
    ("--seed", "master_seed", "abc", "0x10"),
    ("--realizations", "realizations", "2.5", "0x3"),
    ("--steps-per-period", "steps_per_period", "064", "0x10"),
    ("--profile", "profile", "sawtooth", "flat"),
    ("--disorder-w", "disorder_w_over_j", "three", "2.5"),
    ("--init-site", "init_site", "", "5"),
    ("--sector", "sector", "1e0", "0x1"),
]
FLAG_IDS = [flag for flag, *_ in VALUE_FLAGS]


@pytest.mark.parametrize("flag,key,bad,good", VALUE_FLAGS, ids=FLAG_IDS)
def test_malformed_flag_fails_like_the_config_line(tmp_path, flag, key, bad,
                                                   good):
    # a flag value goes through the config parser: exit 2, a strict failed
    # manifest, and the error the same text gives in a config file
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    assert main(["ensemble", "--out", str(by_flag), flag, bad]) == 2
    cfg = write_config(tmp_path / "run.cfg", **{key: bad})
    assert main(["ensemble", "--config", str(cfg), "--out", str(by_file)]) == 2
    manifest = strict_manifest(by_flag)
    assert manifest["status"] == "failed"
    assert manifest["error_type"] == "ConfigError"
    assert manifest["config"] is None
    assert key in manifest["error"]
    assert manifest["error"] == strict_manifest(by_file)["error"]
    assert [p.name for p in by_flag.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("flag,key,bad,good", VALUE_FLAGS, ids=FLAG_IDS)
def test_flag_and_config_line_resolve_alike(tmp_path, flag, key, bad, good):
    base = dict(contour_resolution=5, **FAST)
    cfg = write_config(tmp_path / "base.cfg", **base)
    line = write_config(tmp_path / "line.cfg", **{**base, key: good})
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    assert main(["contours", "--config", str(cfg), "--out", str(by_flag),
                 flag, good]) == 0
    assert main(["contours", "--config", str(line), "--out",
                 str(by_file)]) == 0
    expected = asdict(resolve(load_config(line)).config)
    assert strict_manifest(by_flag)["config"] == strict_manifest(by_file)[
        "config"] == json.loads(json.dumps(expected))
    if good.startswith("0x"):
        assert expected[key] == int(good, 16)


def test_dynamics_resolves_one_realization(tmp_path):
    # a config shared with an ensemble too large to hold (5000 x 1001
    # samples x 12 sites > MAX_AMPLITUDES) still runs the one
    # trajectory dynamics makes
    cfg = write_config(tmp_path / "run.cfg", realizations=5000, t_max_ns=1000)
    out = tmp_path / "dyn"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    assert strict_manifest(out)["config"]["realizations"] == 1
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
    assert "realizations x samples" in strict_manifest(out)["error"]


def test_out_naming_a_file_exits_2_without_raising(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["contours", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory ")
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


def _reject_constant(name):
    raise ValueError(f"manifest holds the non-JSON constant {name}")


def strict_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(),
                      parse_constant=_reject_constant)


@pytest.mark.parametrize("command,settings_", [
    ("dynamics", {"drive_frequency_mhz": "inf"}),
    ("dynamics", {"t_max_ns": "inf"}),
    ("dynamics", {"ac_amplitude_over_j": "nan"}),
    ("dynamics", {"drive_phase_rad": "nan"}),
    ("dynamics", {"sample_dt_ns": "1e-9"}),
    ("dynamics", {"drive_frequency_mhz": "1e6"}),
    ("dynamics", {"drive_frequency_mhz": "-5"}),
    ("dynamics", {"sector": 2}),
    ("ensemble", {"sector": 2}),
    ("spectrum", {"sector": 0}),
    ("stability", {"dc_amplitude_over_j": "-1", "drive_frequency_mhz": "19.67"}),
    ("spectrum", {"coupling_mhz": "0.0", "drive_frequency_mhz": "19.67"}),
    ("dynamics", {"n_sites": 1000}),
    ("ensemble", {"realizations": 10**9}),
    ("stability", {"stability_resolution": 10**6}),
    ("spectrum", {"histogram_bins": 10**9}),
    # a sector whose one H0 exceeds MAX_BLOCK
    ("spectrum", {"n_sites": 40, "sector": 3}),
    ("ensemble", {"master_seed": -1, "disorder_w_over_j": 3.0}),
    ("ensemble", {"n_sites": 14, "realizations": 10000, "t_max_ns": "1e5",
                  "sample_dt_ns": "1.0"}),
    ("dynamics", {"driven_sites": "none"}),
    ("ensemble", {"disordered_sites": "none", "disorder_w_over_j": 3.0}),
    ("dynamics", {"drive_frequency_mhz": "1e308"}),
    ("dynamics", {"drive_frequency_mhz": "1e308", "steps_per_period": 10**20}),
    ("spectrum", {"drive_frequency_mhz": "1e-320"}),
    # Omega itself overflows to inf and underflows to 0
    ("stability", {"coupling_mhz": "1e300", "drive_frequency_mhz": "19.67"}),
    ("stability", {"coupling_mhz": "1e-160", "drive_frequency_mhz": "19.67"}),
    # the drive's kick phase |d1| T max|D| overflows
    ("spectrum", {"profile": "flat", "ac_amplitude_over_j": "1e300",
                  "drive_frequency_mhz": "1e-12", "coupling_mhz": "2.5"}),
    ("dynamics", {"profile": "flat", "ac_amplitude_over_j": "1e300",
                  "drive_frequency_mhz": "1e-12", "coupling_mhz": "2.5"}),
    ("ensemble", {"profile": "flat", "ac_amplitude_over_j": "1e300",
                  "drive_frequency_mhz": "1e-12", "coupling_mhz": "2.5"}),
    # R = 50 of sector 6 (dim 924): 1.26e12 over the work budget
    ("spectrum", {"sector": 6}),
])
def test_bad_input_exits_2_with_strict_manifest(tmp_path, command, settings_):
    cfg = write_config(tmp_path / "run.cfg", **settings_)
    out = tmp_path / "out"
    started = time.monotonic()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert time.monotonic() - started < 5.0
    assert strict_manifest(out)["status"] == "failed"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


# |H0| overflows (its diagonal sums two offsets of 1.3e308 rad/ns), and its
# bound times a 1.6e301 ns step (or a 4e303 ns one) overflows
H0_OVERFLOW = {"profile": "flat", "realizations": 2, "sector": 2,
               "flat_level_fraction": "1.797e308", "dc_amplitude_over_j": 10}
H0_PHASE_OVERFLOW = {"profile": "flat", "realizations": 2,
                     "flat_level_fraction": "1e10",
                     "drive_frequency_mhz": "1e-300"}
H0_STATE_PHASE_OVERFLOW = {"profile": "flat", "flat_level_fraction": "1e10",
                           "drive_frequency_mhz": "1e-300",
                           "steps_per_period": 1, "t_max_ns": "1e308",
                           "sample_dt_ns": "1e308"}
# the disorder draw -W + 2W u overflows at W = 1.1e308 rad/ns
DISORDER_SPAN_OVERFLOW = {"coupling_mhz": 100, "disorder_w_over_j": "1.797e308",
                          "steps_per_period": 16, "realizations": 2}


@pytest.mark.parametrize("command,flags,settings_", [
    ("stability", ["--realizations", "1000", "--sector", "2"], {}),
    ("contours", ["--realizations", "1000", "--sector", "2"], {}),
    ("contours", [], {"t_max_ns": "1e6"}),
    ("stability", ["--steps-per-period", "10000000"],
     {"t_max_ns": "1e6", "sample_dt_ns": "0.5", "stability_resolution": 8}),
    ("spectrum", ["--steps-per-period", "8192", "--realizations", "2"],
     {"t_max_ns": 40000}),
    ("stability", [], {"boson_cutoff": 2, "sector": 5}),
    ("contours", [], {"boson_cutoff": 2, "sector": 5}),
    ("stability", [], {"coupling_mhz": -11.5, "disorder_w_over_j": 3}),
    ("contours", [], {"coupling_mhz": -11.5, "disorder_w_over_j": 3}),
    ("stability", [], H0_OVERFLOW),
    ("contours", [], H0_OVERFLOW),
    ("stability", [], H0_PHASE_OVERFLOW),
    ("contours", [], H0_PHASE_OVERFLOW),
])
def test_command_spends_only_its_own_budgets(tmp_path, command, flags,
                                             settings_):
    # realization blocks, samples, t_max_ns steps and sectors that only the
    # quantum runners spend refuse no other command
    cfg = write_config(tmp_path / "run.cfg", **settings_)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 0
    manifest = strict_manifest(out)
    assert manifest["status"] == "success" and "error" not in manifest


@pytest.mark.parametrize("command,settings_,message", [
    ("ensemble", {"realizations": 5000, "t_max_ns": 1000},
     "realizations x samples"),
    # one realization's prefix table, as for dynamics below
    ("ensemble", {"steps_per_period": 8_000_000, "t_max_ns": 20},
     "prefix table"),
    ("spectrum", {"steps_per_period": 8_000_016}, "propagator steps"),
    ("dynamics", {"t_max_ns": "1e5", "steps_per_period": 4096},
     "propagator steps"),
    ("ensemble", {"t_max_ns": "1e6"}, "samples"),
    ("dynamics", {"sector": 2}, "sector = 1"),
    ("spectrum", {"sector": 0}, "at least 3 states"),
    ("spectrum", {"boson_cutoff": 2, "sector": 5}, "sector dimension^2"),
    ("ensemble", {"boson_cutoff": 2, "sector": 5}, "sector dimension^2"),
    ("spectrum", H0_OVERFLOW, "flat_level_fraction"),
    ("spectrum", H0_PHASE_OVERFLOW, "drive_frequency_mhz"),
    ("dynamics", H0_STATE_PHASE_OVERFLOW, "largest H0 phase"),
    ("ensemble", H0_STATE_PHASE_OVERFLOW, "largest H0 phase"),
    ("spectrum", DISORDER_SPAN_OVERFLOW, "disorder_w_over_j"),
    ("ensemble", DISORDER_SPAN_OVERFLOW, "disorder draw's span"),
    # one realization's prefix table, (K + 1) x dim^2 with K = 786,800 and
    # dim 12, exceeds MAX_AMPLITUDES
    ("dynamics", {"steps_per_period": 8_000_000, "t_max_ns": 20},
     "prefix table"),
    ("spectrum", {"sector": 6}, "work budget"),
])
def test_budget_and_sector_refusals_record_the_config(tmp_path, command,
                                                      settings_, message):
    # the runner that spends a budget refuses it, after resolve accepted
    # the config, so the failed manifest holds that config
    cfg = write_config(tmp_path / "run.cfg", **settings_)
    out = tmp_path / "out"
    started = time.monotonic()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert time.monotonic() - started < 5.0
    manifest = strict_manifest(out)
    assert manifest["error_type"] == "ConfigError"
    assert message in manifest["error"]
    assert manifest["config"]["n_sites"] == 12
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("command", ["dynamics", "ensemble"])
@pytest.mark.parametrize("frequency", ["2", "0.001"])
def test_samples_closer_than_the_step_exit_2(tmp_path, command, frequency):
    # a 1.95 ns (or 3.9 us) step under 1 ns samples would write rows that
    # repeat one time_ns
    cfg = write_config(tmp_path / "run.cfg", drive_frequency_mhz=frequency)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = strict_manifest(out)
    assert manifest["error_type"] == "ConfigError"
    assert "steps_per_period" in manifest["error"]
    assert "sample_dt_ns" in manifest["error"]
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_samples_one_step_apart_keep_every_row(tmp_path):
    # a 256 ns period at 256 steps: the step is the 1 ns sample spacing
    cfg = write_config(tmp_path / "run.cfg", drive_frequency_mhz=3.90625,
                       t_max_ns=20)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    times = np.loadtxt(out / "populations.csv", delimiter=",", skiprows=1)[:, 0]
    assert len(times) == 21 and np.all(np.diff(times) > 0)


def test_sector_ceiling_comes_before_the_basis(monkeypatch):
    from drivenchain import config

    def never(*args):
        raise AssertionError("build_sector_basis ran")

    monkeypatch.setattr(config, "build_sector_basis", never)
    with pytest.raises(ConfigError, match=r"^sector dimension\^2"):
        resolve(RunConfig(n_sites=30, sector=15)).basis


def test_sample_times_own_the_sample_budget():
    run = resolve(RunConfig(t_max_ns=1e6))
    with pytest.raises(ConfigError, match="100000 samples"):
        run.sample_times()


@pytest.mark.parametrize("t_max_ns,sample_dt_ns,count", [
    (3.0, 2.0, 2), (2.7, 1.0, 3), (0.3, 0.1, 4), (150.0, 1.0, 151)])
def test_sample_times_stop_at_the_horizon(t_max_ns, sample_dt_ns, count):
    # whole spacings that fit; a ratio within roundoff of an integer counts
    # as that integer (0.3 / 0.1 = 2.9999999999999996)
    times = resolve(RunConfig(t_max_ns=t_max_ns,
                              sample_dt_ns=sample_dt_ns)).sample_times()
    assert len(times) == count
    assert times[-1] <= t_max_ns * (1 + 1e-12)


FLOAT_KEYS = [f.name for f in fields(RunConfig) if isinstance(f.default, float)]
EXTREMES = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 1e300, 1e-300,
            1e-160, 1e-320, 1e154, 1.797e308, -11.5]
#: half the float values drawn, so that more examples get past resolve and
#: run the commands, the state path too
MODERATE = [0.25, 0.5, 1.0, 2.0, 3.0, 10.0, 100.0]
FLOATS = st.sampled_from(MODERATE) | st.sampled_from(EXTREMES)
INT_KEYS = [f.name for f in fields(RunConfig) if type(f.default) is int]
INT_EXTREMES = [-1, 0, 1, 10**9]
#: samples 5 ns apart, above the fine step T/16 = 3.18 ns of the default drive
TINY = dict(t_max_ns=20, sample_dt_ns=5.0, steps_per_period=16, realizations=2,
            stability_resolution=4, contour_resolution=5)


@pytest.mark.parametrize("command", ["dynamics", "ensemble", "spectrum",
                                     "stability", "contours"])
@pytest.mark.parametrize("n_sites", [4, 6])
def test_every_command_runs_on_small_chains(tmp_path, command, n_sites):
    # czz_reference_site, which only dynamics reads, defaults to n_sites/2 +
    # 1, the first site of the localized half, and the manifest records it
    cfg = write_config(tmp_path / "run.cfg", n_sites=n_sites, **TINY)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    reference = strict_manifest(out)["config"]["czz_reference_site"]
    assert reference == n_sites // 2 + 1
    if command == "dynamics":
        pairs = np.loadtxt(out / "czz.csv", delimiter=",", skiprows=1,
                           usecols=(1, 2), dtype=int)
        assert set(pairs[:, 1]) == {reference}
        assert set(pairs[:, 0]) == set(range(1, n_sites + 1)) - {reference}


@pytest.mark.parametrize("site,code", [(2, 0), (-1, 2), (7, 2)])
def test_czz_reference_site_set_explicitly(tmp_path, site, code):
    # a site the file names is kept; one outside the 6-site chain exits 2
    # and names the key
    cfg = write_config(tmp_path / "run.cfg", n_sites=6,
                       czz_reference_site=site, **TINY)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == code
    manifest = strict_manifest(out)
    if code:
        assert manifest["error_type"] == "ConfigError"
        assert "czz_reference_site" in manifest["error"]
    else:
        assert manifest["config"]["czz_reference_site"] == site


@pytest.mark.parametrize("command", ["dynamics", "ensemble", "spectrum"])
def test_overflowing_drive_phase_exits_2(tmp_path, command):
    # omega * time_origin overflows to inf: rejected where the config is read
    cfg = write_config(tmp_path / "run.cfg", time_origin_ns="1e308",
                       drive_frequency_mhz=1000, **FAST)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = strict_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["error_type"] == "ConfigError"
    assert "time_origin" in manifest["error"]
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("command", ["dynamics", "ensemble", "spectrum",
                                     "stability", "contours"])
@pytest.mark.parametrize("settings_", [{"coupling_mhz": "1e300"},
                                       {"drive_frequency_mhz": "1e-320"},
                                       {"coupling_mhz": "1e-160"}])
def test_drive_without_a_finite_period_exits_2(tmp_path, command, settings_):
    # the resonance of J = 1e300 MHz overflows to omega = inf, 1e-320 MHz to
    # a period of inf, and the resonance of J = 1e-160 MHz (d0 * J underflows,
    # though both are positive) to omega = 0: all refused by name where the
    # config is read
    cfg = write_config(tmp_path / "run.cfg", **settings_)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = strict_manifest(out)
    assert manifest["error_type"] == "ConfigError"
    assert manifest["error"].startswith("drive frequency ")
    assert "finite period" in manifest["error"]
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


#: coupling_mhz: unset, one value, or one per bond of the default 12 sites
COUPLINGS = st.one_of(
    st.none(), FLOATS.map(repr),
    st.lists(st.sampled_from([11.5]) | FLOATS, min_size=11,
             max_size=11).map(lambda values: ",".join(map(repr, values))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["dynamics", "ensemble", "spectrum",
                                "stability", "contours"]),
       overrides=st.dictionaries(st.sampled_from(FLOAT_KEYS), FLOATS,
                                 max_size=3),
       int_overrides=st.dictionaries(st.sampled_from(INT_KEYS),
                                     st.sampled_from(INT_EXTREMES), max_size=2),
       sector=st.sampled_from([1, 0, 2]),     # the state path's sector first
       profile=st.sampled_from(["cosine", "flat", "table"]),
       coupling=COUPLINGS)
def test_main_exit_code_and_manifest_on_any_float_input(command, overrides,
                                                        int_overrides, sector,
                                                        profile, coupling):
    # every other key stays nominal, so each example runs in milliseconds
    settings_ = {**TINY, "sector": sector, "profile": profile, **int_overrides,
                 **{k: repr(v) for k, v in overrides.items()}}
    if coupling is not None:
        settings_["coupling_mhz"] = coupling
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "run.cfg", **settings_)
        out = Path(tmp) / "out"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        assert strict_manifest(out)["status"] == ("success" if code == 0
                                                  else "failed")
