"""Device-table ingestion and consistency checks.

The table mirrors the measured parameters of a 12-qubit chain: per-qubit
frequencies, coherence times, readout figures, and the 11 nearest-neighbour
couplings.  Only the working-frequency rows, the couplings and the
anharmonicity feed the simulation; the remaining rows are carried for
provenance.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import ChainSpec, PotentialSpec, cosine_profile
from .units import rad_ns_from_ghz, rad_ns_from_mhz


def _finite_row(name: str, values, length: int) -> tuple:
    """A row read as ``length`` finite floats; anything else is a
    ConfigError that names the row."""
    row = ()
    if isinstance(values, (list, tuple)) and all(
            type(x) in (int, float) for x in values):    # bool is no number
        with suppress(OverflowError):       # an integer beyond the float range
            row = tuple(float(x) for x in values)
    if len(row) != length or not np.isfinite(row).all():
        raise ConfigError(f"device table row {name!r} must be a list of "
                          f"{length} finite numbers")
    return row


@dataclass(frozen=True)
class DeviceTable:
    """Measured device parameters: 12 qubit rows plus 11 bond couplings."""

    readout_ghz: tuple
    max_ghz: tuple
    idle_ghz: tuple
    cosine_ghz: tuple
    flat_ghz: tuple
    t1_us: tuple
    t2s_us: tuple
    eta_mhz: tuple
    chi_mhz: tuple
    f00: tuple
    f11: tuple
    visibility: tuple
    integration_ns: tuple
    couplings_mhz: tuple

    def __post_init__(self):
        for f in fields(self):
            couplings = f.name == "couplings_mhz"
            row = _finite_row(f.name, getattr(self, f.name),
                              self.n_sites - 1 if couplings else self.n_sites)
            if (couplings or f.name.endswith("_ghz")) and min(row) <= 0:
                raise ConfigError(f"device table row {f.name!r} must be positive")
            object.__setattr__(self, f.name, row)

    @property
    def n_sites(self) -> int:
        return 12

    def working_row(self, profile: str) -> tuple:
        if profile == "cosine":
            return self.cosine_ghz
        if profile == "flat":
            return self.flat_ghz
        raise ConfigError(f"device table has no working row for profile {profile!r}")

    def rotating_frame_ghz(self, profile: str = "cosine") -> float:
        """Frame frequency: mean working frequency of the driven half."""
        return float(np.mean(self.working_row(profile)[:6]))

    def dc_amplitude_mhz(self, profile: str = "cosine") -> float:
        """Cosine amplitude (MHz) fitted to the driven half of a working row."""
        row = np.asarray(self.working_row(profile)[:6])
        weights = cosine_profile(self.n_sites)[:6]
        amp_ghz = float(weights @ (row - row.mean()) / (weights @ weights))
        return 1e3 * amp_ghz

    def chain_spec(self) -> ChainSpec:
        """Chain with the tabulated couplings; U approximated by mean eta."""
        couplings = np.array([rad_ns_from_mhz(j) for j in self.couplings_mhz])
        nonlinearity = rad_ns_from_mhz(float(np.mean(self.eta_mhz)))
        return ChainSpec(self.n_sites, couplings, nonlinearity)

    def potential_spec(self, profile: str = "cosine") -> PotentialSpec:
        """Static offsets of a working row, relative to the frame frequency."""
        gbar = self.rotating_frame_ghz(profile)
        offsets = np.array([rad_ns_from_ghz(g - gbar)
                            for g in self.working_row(profile)])
        return PotentialSpec(offsets)


def bundled_table_path() -> Path:
    """Path of the device table shipped with the package."""
    return Path(resources.files("drivenchain").joinpath("data/device_table.json"))


def load_device_table(path) -> DeviceTable:
    """Parse a device-table JSON file; errors name the offending field."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read device table {path}: {exc}") from exc
    if not raw.strip():
        raise ConfigError(f"device table {path} is empty")
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"device table {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("device table must be a JSON object")
    kwargs = {}
    for f in fields(DeviceTable):
        if f.name not in data:
            raise ConfigError(f"device table is missing field {f.name!r}")
        kwargs[f.name] = data[f.name]
    return DeviceTable(**kwargs)


def consistency_report(table: DeviceTable, tolerance_mhz: float = 2.0) -> list:
    """Compare working rows against the nominal profile formulas.

    Returns a list of human-readable warnings.  Two deviations are known for
    the bundled table: the cosine row follows the zero-based convention
    cos(4*pi*l/N) with the first qubit on a profile maximum (a one-site shift
    against the one-based reading of the same formula), and the flat row sits
    at half the fitted cosine amplitude above the frame frequency instead of
    the full amplitude.
    """
    warnings = []
    n = table.n_sites
    cos_row = np.asarray(table.cosine_ghz)
    gbar = float(cos_row.mean())

    def fit(weights):
        amp = float(weights @ (cos_row - gbar) / (weights @ weights))
        residual = 1e3 * float(np.abs(cos_row - (gbar + amp * weights)).max())
        return 1e3 * amp, residual

    profile0 = cosine_profile(n)                              # zero-based
    profile1 = np.cos(4.0 * np.pi * np.arange(1, n + 1) / n)  # one-based
    amp0, resid0 = fit(profile0)
    amp1, resid1 = fit(profile1)
    if resid1 > tolerance_mhz:
        if resid0 <= tolerance_mhz:
            warnings.append(
                "cosine working row is shifted one site against the one-based "
                "reading of cos(4*pi*l/N): it matches the zero-based placement "
                "(first qubit on a maximum), while the one-based reading "
                f"misses by up to {resid1:.1f} MHz")
        else:
            warnings.append(
                f"cosine working row deviates from a pure cosine profile by "
                f"up to {min(resid0, resid1):.1f} MHz")
    amp_mhz = amp0 if resid0 <= resid1 else amp1

    flat_row = np.asarray(table.flat_ghz)
    flat_level_mhz = 1e3 * float(np.mean(flat_row[6:]) - gbar)
    if abs(flat_level_mhz - amp_mhz) > tolerance_mhz:
        if abs(flat_level_mhz - 0.5 * amp_mhz) <= tolerance_mhz:
            warnings.append(
                f"flat working row sits {flat_level_mhz:.1f} MHz above the frame "
                f"frequency, i.e. half the fitted cosine amplitude "
                f"({amp_mhz:.1f} MHz) instead of the full amplitude")
        else:
            warnings.append(
                f"flat working row level {flat_level_mhz:.1f} MHz matches neither "
                f"the fitted cosine amplitude ({amp_mhz:.1f} MHz) nor half of it")
    return warnings
