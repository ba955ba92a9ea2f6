"""Run configuration: key=value files, CLI overrides, resolution to model specs.

Configuration speaks ordinary frequencies (MHz) and times (ns) and scales
the drive knobs by the mean coupling J and the disorder width by |J|,
mirroring how the chain parameters are usually quoted.  Resolution converts
every input to angular units once and builds the immutable spec objects the
simulation modules consume.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .basis import SectorBasis, build_sector_basis, sector_dimension
from .device import load_device_table, bundled_table_path
from .errors import ConfigError
from .hamiltonian import SectorModel
from .model import (ChainSpec, DisorderSpec, DriveSpec, PotentialSpec,
                    build_potential)
from .propagate import DEFAULT_STEPS_PER_PERIOD, S6_SUBSTEPS, floquet_steps
from .semiclassical import SemiclassicalParams
from .units import mhz_from_rad_ns, rad_ns_from_mhz

_PROFILES = ("cosine", "flat", "table")
#: most samples one trajectory may emit (t_max_ns / sample_dt_ns)
MAX_SAMPLES = 100_000
#: most entries of one sector's dim x dim H0
MAX_BLOCK = 2_000_000
MAX_SITES = 100
MAX_REALIZATIONS = 10_000
#: most points along each axis of the stability and contour grids
MAX_RESOLUTION = 1_000
MAX_HISTOGRAM_BINS = 10_000


def parse_site_range(text: str, n_sites: int, field_name: str) -> tuple:
    """Parse "7-12" or "7,9,11" into 1-based sites; "7" is the range "7-7"."""
    text = str(text).strip()
    if not text:
        return ()
    sites: list = []
    for chunk in text.split(","):
        lo, dash, hi = chunk.partition("-")
        try:
            lo_i, hi_i = int(lo), int(hi if dash else lo)
        except ValueError as exc:
            raise ConfigError(f"{field_name}: bad range {chunk.strip()!r}") from exc
        if lo_i > hi_i:
            raise ConfigError(f"{field_name}: empty range {chunk.strip()!r}")
        sites.extend(range(lo_i, hi_i + 1))
    if any(s < 1 or s > n_sites for s in sites):
        raise ConfigError(f"{field_name}: sites outside 1..{n_sites}")
    return tuple(sites)


@dataclass
class RunConfig:
    """All user-facing knobs with their defaults (the nominal experiment)."""

    n_sites: int = 12
    boson_cutoff: int = 1
    sector: int = 1
    coupling_mhz: tuple = (11.5,)          # scalar or one value per bond
    nonlinearity_mhz: float = -250.0
    dc_amplitude_over_j: float = 3.0
    ac_amplitude_over_j: float = 3.0
    drive_frequency_mhz: float = 0.0       # 0 -> resonance condition
    resonance_order: int = 3
    drive_phase_rad: float = 0.0
    time_origin_ns: float = 0.0
    profile: str = "cosine"
    flat_level_fraction: float = 1.0
    device_table: str = ""                 # path; empty -> bundled table
    device_row: str = "cosine"
    disorder_w_over_j: float = 0.0
    disordered_sites: str = ""             # e.g. "7-12"; empty -> second half
    driven_sites: str = ""                 # e.g. "1-6"; empty -> first half
    master_seed: int = 12345
    realizations: int = 50
    t_max_ns: float = 150.0
    sample_dt_ns: float = 1.0
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
    init_site: int = 3
    czz_reference_site: int = 0            # 0 -> first site of the second half
    histogram_bins: int = 20
    stability_resolution: int = 200
    contour_resolution: int = 101
    keep_realizations: bool = False

    def validate(self) -> "RunConfig":
        for f in fields(self):
            if (isinstance(f.default, (float, tuple))
                    and not np.isfinite(getattr(self, f.name)).all()):
                raise ConfigError(f"{f.name} must be finite")
        if not 1 <= self.n_sites <= MAX_SITES:
            raise ConfigError(f"n_sites outside 1..{MAX_SITES}")
        if self.profile not in _PROFILES:
            raise ConfigError(f"profile must be one of {_PROFILES}, got {self.profile!r}")
        if self.profile == "table":
            if self.n_sites != 12:
                raise ConfigError("device-table mode requires n_sites = 12")
            if self.device_row not in ("cosine", "flat"):
                raise ConfigError("device_row must be cosine or flat")
            # the chain comes from the table, so a value set here is unused
            for key in ("coupling_mhz", "nonlinearity_mhz"):
                if getattr(self, key) != getattr(RunConfig, key):
                    raise ConfigError(f"{key} is read from the device table "
                                      f"in profile = table: leave it unset")
        else:
            if self.n_sites < 4 or self.n_sites % 2:
                raise ConfigError("formula mode requires an even n_sites >= 4")
        if self.boson_cutoff < 1:
            raise ConfigError("boson_cutoff must be >= 1")
        if not 0 <= self.sector <= self.n_sites * self.boson_cutoff:
            raise ConfigError("sector outside 0..N*n_max")
        if len(self.coupling_mhz) not in (1, self.n_sites - 1):
            raise ConfigError("coupling_mhz needs 1 or n_sites-1 values")
        if self.disorder_w_over_j < 0:
            raise ConfigError("disorder_w_over_j must be >= 0")
        if not 1 <= self.realizations <= MAX_REALIZATIONS:
            raise ConfigError(f"realizations outside 1..{MAX_REALIZATIONS}")
        if self.steps_per_period < 1:
            raise ConfigError("steps_per_period must be >= 1")
        if self.t_max_ns <= 0 or self.sample_dt_ns <= 0:
            raise ConfigError("t_max_ns and sample_dt_ns must be positive")
        if self.drive_frequency_mhz < 0:
            raise ConfigError("drive_frequency_mhz must be >= 0 (0 selects the resonance)")
        if not 1 <= self.init_site <= self.n_sites:
            raise ConfigError(f"init_site outside 1..{self.n_sites}")
        if not 0 <= self.czz_reference_site <= self.n_sites:
            raise ConfigError(f"czz_reference_site outside 1..{self.n_sites}")
        if not 2 <= self.histogram_bins <= MAX_HISTOGRAM_BINS:
            raise ConfigError(f"histogram_bins outside 2..{MAX_HISTOGRAM_BINS}")
        if not (2 <= self.stability_resolution <= MAX_RESOLUTION
                and 2 <= self.contour_resolution <= MAX_RESOLUTION):
            raise ConfigError(f"grid resolutions outside 2..{MAX_RESOLUTION}")
        if self.resonance_order < 1:
            raise ConfigError("resonance_order must be >= 1")
        return self


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def parse_value(key: str, raw: str):
    """Parse ``raw``, a config-file value or a flag's text, as the type of
    the key's default (bool before int)."""
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    default, raw = _DEFAULTS[key], raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: bad boolean {raw!r}")
    try:
        if isinstance(default, tuple):
            return tuple(float(x) for x in raw.split(","))
        if isinstance(default, int):
            return int(raw, 0)
        if isinstance(default, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: bad value {raw!r}") from exc
    return raw


def load_config(path) -> RunConfig:
    """Read a key=value config file ('#' starts a comment); a key set on
    two lines is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values, set_at = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in set_at:
            raise ConfigError(f"{path}:{lineno}: {key} is set again (first "
                              f"on line {set_at[key]})")
        values[key], set_at[key] = parse_value(key, raw), lineno
    return replace(RunConfig(), **values)


@dataclass(frozen=True)
class ResolvedRun:
    """Concrete spec objects derived from one validated RunConfig."""

    config: RunConfig
    chain: ChainSpec
    drive: DriveSpec
    potential: PotentialSpec            # clean (no disorder overlay)
    disorder: DisorderSpec
    drive_frequency_mhz: float

    @cached_property
    def basis(self) -> SectorBasis:
        """The sector, enumerated on first read: only the quantum commands
        read it, and a sector one H0 could not hold is refused first."""
        cfg = self.config
        dim = sector_dimension(cfg.n_sites, cfg.sector, cfg.boson_cutoff)
        if dim ** 2 > MAX_BLOCK:
            raise ConfigError(f"sector dimension^2 = {dim ** 2:.3g} exceeds "
                              f"{MAX_BLOCK}: lower n_sites, sector or boson_cutoff")
        return build_sector_basis(cfg.n_sites, cfg.sector, cfg.boson_cutoff)

    @property
    def model(self) -> SectorModel:
        return SectorModel(self.chain, self.drive, self.potential, self.basis)

    @property
    def step_ns(self) -> float:
        """The fine step of the grid of :func:`floquet_steps`' P S6 steps."""
        per_period = floquet_steps(self.drive, self.config.steps_per_period)[0]
        return self.drive.period / (S6_SUBSTEPS * per_period)

    def sample_times(self) -> np.ndarray:
        """0, dt, 2 dt, ... up to t_max_ns: the whole spacings that fit, a
        ratio within roundoff of an integer counting as that integer."""
        cfg = self.config
        count = cfg.t_max_ns / cfg.sample_dt_ns
        if count > MAX_SAMPLES:
            raise ConfigError(f"t_max_ns / sample_dt_ns exceeds {MAX_SAMPLES} samples")
        return np.arange(int(count + 1e-9) + 1) * cfg.sample_dt_ns

    def semiclassical_params(self) -> SemiclassicalParams:
        return SemiclassicalParams(
            n_sites=self.chain.n_sites,
            dc_amplitude=self.drive.dc_amplitude,
            hopping=self.chain.mean_coupling,
        )


def resolve(config: RunConfig) -> ResolvedRun:
    """Validate and convert a RunConfig into immutable model specs."""
    n = config.validate().n_sites
    config = replace(config, czz_reference_site=config.czz_reference_site
                     or n // 2 + 1)
    disordered = parse_site_range(config.disordered_sites, n, "disordered_sites")

    if config.profile == "table":
        device = load_device_table(config.device_table or bundled_table_path())
        chain = device.chain_spec()
        coupling = chain.mean_coupling
        dc_amplitude = config.dc_amplitude_over_j * coupling
        potential = device.potential_spec(config.device_row)
        # the drive takes the fit's d0, the resonance dc_amplitude_over_j * J
        drive_dc = rad_ns_from_mhz(device.dc_amplitude_mhz(config.device_row))
    else:
        couplings = config.coupling_mhz
        if len(couplings) == 1:
            couplings = couplings * (n - 1)
        chain = ChainSpec(
            n, np.array([rad_ns_from_mhz(j) for j in couplings]),
            rad_ns_from_mhz(config.nonlinearity_mhz))
        coupling = chain.mean_coupling
        dc_amplitude = drive_dc = config.dc_amplitude_over_j * coupling
        potential = build_potential(
            config.profile, n, dc_amplitude, localized_sites=disordered or None,
            flat_level_fraction=config.flat_level_fraction)

    if config.drive_frequency_mhz:
        omega = rad_ns_from_mhz(config.drive_frequency_mhz)
    elif config.dc_amplitude_over_j <= 0 or coupling == 0:
        raise ConfigError("drive_frequency_mhz must be given explicitly when "
                          "the resonance condition is undefined "
                          "(dc amplitude * J <= 0)")
    else:
        # m * omega = 2 * Omega: in formula mode the Omega that `stability`
        # records, in table mode that of dc_amplitude_over_j * J, not the fit's
        omega = (2.0 / config.resonance_order) * SemiclassicalParams(
            n, dc_amplitude, coupling).small_oscillation_frequency

    driven = parse_site_range(config.driven_sites, n, "driven_sites") or None
    drive = DriveSpec.cosine(
        n,
        dc_amplitude=drive_dc,
        ac_amplitude=config.ac_amplitude_over_j * coupling,
        angular_frequency=omega,
        driven_sites=driven,
        phase=config.drive_phase_rad,
        time_origin=config.time_origin_ns,
    )
    # the largest kick phase |d1| T max|D|, max|D| <= sector * max|w|, in
    # Python floats: an overflow reads inf and warns nothing
    if not np.isfinite(abs(drive.ac_amplitude) * drive.period * config.sector
                       * float(np.abs(drive.spatial_weights).max())):
        raise ConfigError("the largest drive kick phase |ac amplitude| * "
                          "period * max|D| is not finite: lower "
                          "ac_amplitude_over_j or raise drive_frequency_mhz")
    disorder = DisorderSpec(
        n_sites=n,
        strength=config.disorder_w_over_j * abs(coupling),
        disordered_sites=disordered,
        master_seed=config.master_seed,
        realization_count=config.realizations,
    )
    drive_mhz = config.drive_frequency_mhz or mhz_from_rad_ns(omega)
    return ResolvedRun(config, chain, drive, potential, disorder, drive_mhz)
