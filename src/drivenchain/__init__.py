"""Simulator for a periodically driven chain with an ergodic-localized junction.

The package covers five desk-scale pipelines: single-excitation population
dynamics and ZZ correlations, disorder-ensemble averages, Floquet
quasienergy gap-ratio statistics with Poisson/COE references, a
device-table mode mirroring a real 12-qubit chain, and the semiclassical
parametric-resonance stability analysis of the driven domain.
"""

__version__ = "0.1.0"

from .basis import QuantumState, SectorBasis, build_sector_basis, fock_state
from .config import ResolvedRun, RunConfig, load_config, resolve
from .device import DeviceTable, bundled_table_path, consistency_report, load_device_table
from .ensemble import EnsembleResult, run_dynamics_ensemble, run_spectrum_ensemble
from .errors import ConfigError, NumericalError
from .hamiltonian import SectorModel, hopping_matrix
from .model import (ChainSpec, DisorderSpec, DriveSpec, PotentialSpec,
                    build_potential, cosine_profile, frequency_at,
                    resonance_drive_frequency, sample_disorder)
from .observables import (ObservableSeries, czz, czz_expectation,
                          czz_from_counts, joint_probabilities,
                          observable_series, populations)
from .propagate import (ConvergenceReport, FloquetOperator, StateTrajectory,
                        UnitaryMatrix, convergence_probe, evolve_state,
                        floquet_operator, interval_propagator)
from .semiclassical import (SemiclassicalParams, StabilityGrid, Trajectory,
                            classical_rhs, integrate_trajectory,
                            monodromy_matrix, monodromy_trace,
                            potential_contours, stability_grid)
from .spectrum import (QuasienergySpectrum, RatioSample, coe_cdf, coe_density,
                       coe_density_divergent, coe_mean, gap_ratios,
                       haar_unitary, ks_distance, poisson_cdf,
                       poisson_density, poisson_mean, quasienergies,
                       sample_coe_reference)
