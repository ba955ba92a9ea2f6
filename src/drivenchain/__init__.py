"""Simulator for a periodically driven chain with an ergodic-localized junction.

The package covers five desk-scale pipelines: single-excitation population
dynamics and ZZ correlations, disorder-ensemble averages, Floquet
quasienergy gap-ratio statistics with Poisson/COE references, a
device-table mode mirroring a real 12-qubit chain, and the semiclassical
parametric-resonance stability analysis of the driven domain.
"""

__version__ = "0.1.0"

from .basis import build_sector_basis, fock_state
from .config import RunConfig, load_config, resolve
from .device import load_device_table
from .ensemble import run_dynamics_ensemble, run_spectrum_ensemble
from .errors import ConfigError, NumericalError
from .hamiltonian import SectorModel
from .model import (ChainSpec, DisorderSpec, DriveSpec, build_potential,
                    sample_disorder)
from .observables import observable_series
from .propagate import evolve_state, floquet_operator
from .semiclassical import SemiclassicalParams, potential_contours, stability_grid
from .spectrum import (coe_cdf, coe_density, coe_mean, gap_ratios, ks_distance,
                       poisson_cdf, poisson_density, poisson_mean, quasienergies)

__all__ = [
    "build_sector_basis", "fock_state",
    "RunConfig", "load_config", "resolve",
    "load_device_table",
    "run_dynamics_ensemble", "run_spectrum_ensemble",
    "ConfigError", "NumericalError",
    "SectorModel",
    "ChainSpec", "DisorderSpec", "DriveSpec", "build_potential",
    "sample_disorder",
    "observable_series",
    "evolve_state", "floquet_operator",
    "SemiclassicalParams", "potential_contours", "stability_grid",
    "coe_cdf", "coe_density", "coe_mean", "gap_ratios", "ks_distance",
    "poisson_cdf", "poisson_density", "poisson_mean", "quasienergies",
]
