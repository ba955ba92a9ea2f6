import hashlib
import importlib
import json
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivenchain.cli import main
from drivenchain.config import RunConfig, load_config, parse_site_range, resolve
from drivenchain.device import bundled_table_path, load_device_table
from drivenchain.errors import ConfigError


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path: Path, **overrides) -> Path:
    lines = [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


FAST = dict(t_max_ns=20, sample_dt_ns=2.0, steps_per_period=64, realizations=2)


def test_parse_site_range():
    assert parse_site_range("7-12", 12, "x") == (7, 8, 9, 10, 11, 12)
    assert parse_site_range("1,3,5", 12, "x") == (1, 3, 5)
    assert parse_site_range("", 12, "x") == ()
    with pytest.raises(ConfigError):
        parse_site_range("0-3", 12, "x")
    with pytest.raises(ConfigError):
        parse_site_range("abc", 12, "x")


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


def test_resolution_defaults_reproduce_operating_point():
    run = resolve(RunConfig())
    assert run.drive_frequency_mhz == pytest.approx(19.67, abs=0.01)
    assert run.drive.period == pytest.approx(50.84, abs=0.01)
    assert run.basis.dim == 12
    # resonance needs a defined dc * J product
    with pytest.raises(ConfigError):
        resolve(RunConfig(coupling_mhz=(0.0,)))


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
    assert manifest["master_seed"] == RunConfig().master_seed
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


def test_cmd_device_check_bundled(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["device-check", "--out", str(out)]) == 0
    report = json.loads((out / "device_report.json").read_text())
    assert len(report["warnings"]) == 2
    printed = capsys.readouterr().out
    assert "warning:" in printed


def test_cmd_device_check_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["device-check", "--table", str(bad), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_config_error_exit_code_and_manifest(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", n_sites=11)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_realization_failure_exit_code_and_manifest(tmp_path, monkeypatch):
    from drivenchain import propagate
    real_defect = propagate.unitarity_defect

    def defect_in_realization_2(matrix):
        defects = np.array(real_defect(matrix))
        defects[2] = 1.0
        return defects

    monkeypatch.setattr(propagate, "unitarity_defect", defect_in_realization_2)
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, **{**FAST, "realizations": 4})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["realization_index"] == 2
    assert "realization 2" in manifest["error"]


@pytest.mark.parametrize("command,module,tolerance", [
    ("ensemble", "propagate", "NORM_TOL"),
    ("spectrum", "spectrum", "EIGENVALUE_MODULUS_TOL"),
])
def test_ensemble_norm_failure_exit_code_and_manifest(tmp_path, monkeypatch,
                                                      command, module,
                                                      tolerance):
    # every realization fails the check, so the first one is named
    monkeypatch.setattr(importlib.import_module(f"drivenchain.{module}"),
                        tolerance, -1.0)
    cfg = write_config(tmp_path / "run.cfg", profile="flat",
                       disorder_w_over_j=3.0, **FAST)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["realization_index"] == 0
    assert manifest["error"].startswith("realization 0: ")


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
    assert manifest["config"] == RunConfig().to_dict()


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
    assert manifest["config"]["realizations"] == FAST["realizations"]
    assert manifest["config"]["steps_per_period"] == FAST["steps_per_period"]
    rows = np.loadtxt(out / "populations.csv", delimiter=",", skiprows=1)
    assert rows[0, 9] == pytest.approx(1.0)      # excitation starts at site 9


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
    ("spectrum", {"sector": 6}),
    ("ensemble", {"master_seed": -1, "disorder_w_over_j": 3.0}),
])
def test_bad_input_exits_2_with_strict_manifest(tmp_path, command, settings_):
    cfg = write_config(tmp_path / "run.cfg", **settings_)
    out = tmp_path / "out"
    started = time.monotonic()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert time.monotonic() - started < 5.0
    assert strict_manifest(out)["status"] == "failed"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


FLOAT_KEYS = [f.name for f in fields(RunConfig) if isinstance(f.default, float)]
EXTREMES = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 1e300, 1e-300]
INT_KEYS = [f.name for f in fields(RunConfig) if type(f.default) is int]
INT_EXTREMES = [-1, 0, 1, 10**9]
TINY = dict(t_max_ns=20, sample_dt_ns=2.0, steps_per_period=16, realizations=2,
            stability_resolution=4, contour_resolution=5)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["dynamics", "ensemble", "spectrum",
                                "stability", "contours"]),
       overrides=st.dictionaries(st.sampled_from(FLOAT_KEYS),
                                 st.sampled_from(EXTREMES), max_size=3),
       int_overrides=st.dictionaries(st.sampled_from(INT_KEYS),
                                     st.sampled_from(INT_EXTREMES), max_size=2),
       sector=st.sampled_from([0, 1, 2]))
def test_main_exit_code_and_manifest_on_any_float_input(command, overrides,
                                                        int_overrides, sector):
    # every other key stays nominal, so each example runs in milliseconds
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "run.cfg",
                           **{**TINY, "sector": sector, **int_overrides,
                              **{k: repr(v) for k, v in overrides.items()}})
        out = Path(tmp) / "out"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        assert strict_manifest(out)["status"] == ("success" if code == 0
                                                  else "failed")
