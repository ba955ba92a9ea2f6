"""Seeded inputs for the four benchmark workloads.

The benchmark seed becomes, for each workload, the config files and CLI
argv lists the program receives, plus the choices the reference check
samples (disorder realizations or stability-grid rows).  The program sees
only the generated files and argv; every knob not named here keeps its
shipped default.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("ensemble_flat_w3", "spectrum_flat_w3", "stability_grid",
             "dynamics_sweep")

#: Overrides that shrink a workload for the smoke test and the warm-up job.
TINY = {"realizations": 2, "t_max_ns": 20.0, "stability_resolution": 8}

DYNAMICS_PROFILES = ("cosine", "flat", "table")


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload for one seed."""

    name: str
    seed: int
    master_seed: int
    configs: dict           # config file name -> {key: value}
    jobs: tuple             # argv lists, each completed with --out
    sample: dict            # seed-chosen choices for the reference check

    def write_configs(self, directory: Path) -> list:
        """Write the config files as key = value text; return their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, values in self.configs.items():
            path = directory / name
            path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            paths.append(path)
        return paths

    def argv(self, index: int, config_dir: Path, out: Path) -> list:
        """The argv of job ``index`` with config paths made concrete."""
        argv = [str(config_dir / a) if a in self.configs else a
                for a in self.jobs[index]]
        return argv + ["--out", str(out)]


def make_workload(name: str, seed: int, defaults, tiny: bool = False) -> Workload:
    """Inputs of workload ``name`` for ``seed``.

    ``defaults`` is the program's ``RunConfig()``: sampled realization
    indices and grid rows are drawn from its shipped sizes.
    """
    rng = np.random.default_rng(seed)
    master = int(rng.integers(1, 2**31 - 1))
    extra = dict(TINY) if tiny else {}

    if name == "ensemble_flat_w3":
        cfg = {"profile": "flat", "disorder_w_over_j": 3.0,
               "master_seed": master, **extra}
        # The check covers every realization of the mean it compares.
        return Workload(name, seed, master, {"ensemble.cfg": cfg},
                        (("ensemble", "--config", "ensemble.cfg"),), {})
    if name == "spectrum_flat_w3":
        cfg = {"profile": "flat", "flat_level_fraction": 0.5,
               "disorder_w_over_j": 3.0, "realizations": 200,
               "master_seed": master, **extra}
        picks = rng.choice(cfg["realizations"], min(4, cfg["realizations"]),
                           replace=False)
        return Workload(name, seed, master, {"spectrum.cfg": cfg},
                        (("spectrum", "--config", "spectrum.cfg"),),
                        {"realizations": sorted(int(i) for i in picks)})
    if name == "stability_grid":
        res = extra.get("stability_resolution", defaults.stability_resolution)
        cfg = {"master_seed": master, **extra}
        # Row 0 (lowest omega, most steps per cell) carries the largest
        # integrator error, so it is always checked; three more rows vary.
        rows = rng.choice(np.arange(1, res), min(3, res - 1), replace=False)
        return Workload(name, seed, master, {"stability.cfg": cfg},
                        (("stability", "--config", "stability.cfg"),),
                        {"rows": [0] + sorted(int(r) for r in rows)})
    if name == "dynamics_sweep":
        configs = {f"dynamics_{p}.cfg": {"profile": p, "disorder_w_over_j": 3.0,
                                         "master_seed": master, **extra}
                   for p in DYNAMICS_PROFILES}
        # Each job draws its own disorder, so the sweep's mean error
        # averages over 36 realizations instead of three.
        pairs = [(p, site) for p in DYNAMICS_PROFILES
                 for site in range(1, defaults.n_sites + 1)]
        job_seeds = rng.integers(1, 2**31 - 1, len(pairs))
        jobs = tuple(("dynamics", "--config", f"dynamics_{p}.cfg",
                      "--init-site", str(site), "--seed", str(int(job_seed)))
                     for (p, site), job_seed in zip(pairs, job_seeds))
        return Workload(name, seed, master, configs, jobs, {})
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
