"""What the benchmark in ``perfbench/`` binds of the package.

The benchmark traces public functions by module and name, reads call
arguments by parameter name, and builds its reference operators through
the single-realization API.  A rename would otherwise surface only in the
minutes-long ``perfbench/smoke.py``.  ``perfbench/tracing.py`` is loaded
read-only from its file.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from drivenchain.basis import build_sector_basis, fock_state
from drivenchain.cli import main
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import (DisorderSpec, DriveSpec, build_potential,
                               sample_disorder)
from drivenchain.propagate import evolve_state, floquet_operator
from drivenchain.units import rad_ns_from_mhz
from oracles import uniform_chain

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    target = importlib.import_module(f"drivenchain.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_traced_target_resolves(tracing):
    for module_name, attr, _, _ in tracing.TARGETS:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def test_counters_read_parameters_the_targets_have(tracing):
    read = set()
    for module_name, attr, _, counter in tracing.TARGETS:
        if counter is None:
            continue
        names = re.findall(r'arguments\["(\w+)"\]', inspect.getsource(counter))
        params = inspect.signature(_resolve(module_name, attr)).parameters
        for name in names:
            assert name in params, f"{module_name}.{attr} lacks {name!r}"
        read.update(names)
    assert read == {"t_samples", "step", "steps_per_period", "spectra",
                    "omega_values", "delta1_values", "path"}


def test_reference_api_on_a_tiny_model():
    n, j = 4, rad_ns_from_mhz(11.5)
    model = SectorModel(uniform_chain(n, j),
                        DriveSpec.cosine(n, 3 * j, 3 * j, rad_ns_from_mhz(20.0)),
                        build_potential("flat", n, 3 * j),
                        build_sector_basis(n, 1, 1))
    disorder = DisorderSpec(n, 3 * j, master_seed=5, realization_count=2)
    shifted = model.with_potential(
        model.potential.with_overlay(sample_disorder(disorder, 1)))
    times = [0.0, 1.0, 2.0]
    amplitudes = evolve_state(shifted, fock_state(model.basis, 1), times,
                              0.1).amplitudes
    assert amplitudes.shape == (len(times), model.basis.dim)
    matrix = floquet_operator(shifted, 16).matrix
    assert matrix.shape == (model.basis.dim, model.basis.dim)


def test_traced_spectrum_job_reads_one_slot_per_level(tracing, tmp_path):
    # spectrum.useful_ratio counts dim - 2 ratio slots per spectrum passed on
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile = flat\ndisorder_w_over_j = 3.0\nrealizations = 3\n"
                   "steps_per_period = 16\n")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["spectrum", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
    metrics = tracing.layer_metrics(tracer, 1)
    assert 0.0 < metrics["spectrum.useful_ratio"] <= 1.0
    assert metrics["ensemble.self_s"] > 0.0
    assert tracer.counts["spectrum.ratio_slots"] == 3 * 10


@pytest.mark.parametrize("command", ["dynamics", "ensemble"])
def test_traced_state_path_job_reads_observables_once(tracing, tmp_path,
                                                      command):
    # both state-path commands read populations through one
    # observable_series call, inside an ensemble span of their own
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile = flat\ndisorder_w_over_j = 3.0\nrealizations = 3\n"
                   "t_max_ns = 20.0\n")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["observables.observable_series.calls"] == 1
    assert metrics["ensemble.self_s"] > 0.0
