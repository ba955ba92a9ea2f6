"""Model parameterization of the driven chain with an ergodic-localized junction.

The chain has N sites (numbered 1..N in every public interface).  Site
frequencies are expressed relative to the rotating frame, so every stored
offset is of the form g_l(t) - gbar.  The first half of the chain carries a
spatial cosine profile that is modulated in time (the driven, ergodic
domain); the second half carries a static cosine or flat background plus an
optional uniform disorder overlay (the localized domain).

Spatial cosine convention: the weight of the site at zero-based position l
is cos(4*pi*l/N), so the first site sits on a maximum of the profile.  This
matches the working-frequency rows of the bundled device table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import ConfigError
from .units import TWO_PI


def cosine_profile(n_sites: int) -> np.ndarray:
    """Per-site spatial weights cos(4*pi*l/N) for zero-based positions l."""
    return np.cos(4.0 * np.pi * np.arange(n_sites) / n_sites)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ChainSpec:
    """Static chain data: size, bond couplings, onsite nonlinearity, cutoff.

    Couplings and the nonlinearity are angular frequencies in rad/ns.
    ``bond_couplings[k]`` couples sites k+1 and k+2 (1-based site numbers).
    """

    n_sites: int
    bond_couplings: np.ndarray
    onsite_nonlinearity: float = 0.0
    boson_cutoff: int = 1

    def __post_init__(self):
        if self.n_sites < 2:
            raise ConfigError("n_sites must be >= 2")
        if self.boson_cutoff < 1:
            raise ConfigError("boson_cutoff must be >= 1")
        couplings = _frozen_array(self.bond_couplings)
        if couplings.shape != (self.n_sites - 1,):
            raise ConfigError(
                f"expected {self.n_sites - 1} bond couplings, got {couplings.shape}"
            )
        if not np.all(np.isfinite(couplings)):
            raise ConfigError("bond couplings must be finite")
        if not math.isfinite(self.onsite_nonlinearity):
            raise ConfigError("onsite nonlinearity must be finite")
        object.__setattr__(self, "bond_couplings", couplings)

    @classmethod
    def uniform(cls, n_sites: int, coupling: float, onsite_nonlinearity: float = 0.0,
                boson_cutoff: int = 1) -> "ChainSpec":
        """Chain with one common nearest-neighbour coupling (rad/ns)."""
        return cls(n_sites, np.full(n_sites - 1, float(coupling)),
                   onsite_nonlinearity, boson_cutoff)

    @property
    def mean_coupling(self) -> float:
        return float(self.bond_couplings.mean())


@dataclass(frozen=True)
class DriveSpec:
    """Time-periodic modulation of the site frequencies.

    The AC part adds ``ac_amplitude * cos(omega*(t-t0) + phase)`` times the
    per-site ``spatial_weights`` to the diagonal; the DC part of the drive is
    folded into :class:`PotentialSpec` once, so there is a single source of
    truth for the static diagonal.
    """

    dc_amplitude: float
    ac_amplitude: float
    angular_frequency: float
    spatial_weights: np.ndarray
    phase: float = 0.0
    time_origin: float = 0.0

    def __post_init__(self):
        if self.angular_frequency <= 0:
            raise ConfigError("drive angular frequency must be positive")
        weights = _frozen_array(self.spatial_weights)
        if not np.all(np.isfinite(weights)):
            raise ConfigError("spatial weights must be finite")
        object.__setattr__(self, "spatial_weights", weights)

    @classmethod
    def cosine(cls, n_sites: int, dc_amplitude: float, ac_amplitude: float,
               angular_frequency: float, driven_sites=None, phase: float = 0.0,
               time_origin: float = 0.0) -> "DriveSpec":
        """Drive with cosine weights on ``driven_sites`` (default first half).

        ``driven_sites`` are 1-based site numbers; all other sites get zero
        weight and stay static.
        """
        if driven_sites is None:
            driven_sites = range(1, n_sites // 2 + 1)
        driven = list(driven_sites)
        if any(s < 1 or s > n_sites for s in driven):
            raise ConfigError(f"driven sites must lie in 1..{n_sites}")
        weights = np.zeros(n_sites)
        profile = cosine_profile(n_sites)
        for s in driven:
            weights[s - 1] = profile[s - 1]
        return cls(dc_amplitude, ac_amplitude, angular_frequency, weights,
                   phase, time_origin)

    @property
    def n_sites(self) -> int:
        return len(self.spatial_weights)

    @property
    def period(self) -> float:
        return TWO_PI / self.angular_frequency

    def modulation(self, t):
        """Drive amplitude f(t) = ac * cos(omega*(t-t0) + phase); t may be an array."""
        return self.ac_amplitude * np.cos(
            self.angular_frequency * (t - self.time_origin) + self.phase)


@dataclass(frozen=True)
class PotentialSpec:
    """Static per-site frequency offsets relative to the rotating frame.

    ``static_offsets[l-1]`` is g_l - gbar in rad/ns, including the DC part
    of the drive profile and any disorder overlay.  The rotating-frame
    frequency gbar never enters the simulated diagonal (with conserved
    total excitation number it would contribute a global phase).
    """

    static_offsets: np.ndarray

    def __post_init__(self):
        offsets = _frozen_array(self.static_offsets)
        if not np.all(np.isfinite(offsets)):
            raise ConfigError("static offsets must be finite")
        object.__setattr__(self, "static_offsets", offsets)

    @property
    def n_sites(self) -> int:
        return len(self.static_offsets)

    def with_overlay(self, extra_offsets) -> "PotentialSpec":
        """New potential with ``extra_offsets`` (rad/ns, length N) added."""
        extra = np.asarray(extra_offsets, dtype=float)
        if extra.shape != self.static_offsets.shape:
            raise ConfigError("overlay length does not match site count")
        return replace(self, static_offsets=self.static_offsets + extra)


@dataclass(frozen=True)
class DisorderSpec:
    """Uniform onsite disorder on the localized domain.

    Each disordered site receives an independent offset drawn uniformly
    from [-strength, +strength].  Draws are a pure function of
    (master_seed, realization_index, site): every (realization, site) pair
    owns its own counter-derived stream, so ensemble results do not depend
    on execution order or batch size.
    """

    n_sites: int
    strength: float
    disordered_sites: tuple = ()
    master_seed: int = 12345
    realization_count: int = 50

    def __post_init__(self):
        if self.strength < 0:
            raise ConfigError("disorder strength must be >= 0")
        if self.realization_count < 1:
            raise ConfigError("realization count must be >= 1")
        sites = tuple(self.disordered_sites) or tuple(
            range(self.n_sites // 2 + 1, self.n_sites + 1))
        if any(s < 1 or s > self.n_sites for s in sites):
            raise ConfigError(f"disordered sites must lie in 1..{self.n_sites}")
        object.__setattr__(self, "disordered_sites", sites)


def sample_disorder(spec: DisorderSpec, realization_index: int) -> np.ndarray:
    """Per-site disorder offsets G_l for one realization (length N).

    Sites outside ``spec.disordered_sites`` get 0.  Deterministic in
    (master_seed, realization_index, site); realizations are independent.
    """
    if not 0 <= realization_index < spec.realization_count:
        raise ValueError(
            f"realization index {realization_index} outside 0..{spec.realization_count - 1}")
    offsets = np.zeros(spec.n_sites)
    if spec.strength == 0.0:
        return offsets
    for site in spec.disordered_sites:
        seq = np.random.SeedSequence(entropy=spec.master_seed,
                                     spawn_key=(realization_index, site))
        rng = np.random.default_rng(seq)
        offsets[site - 1] = rng.uniform(-spec.strength, spec.strength)
    return offsets


def build_potential(profile: str, n_sites: int, dc_amplitude: float,
                    localized_sites=None, flat_level_fraction: float = 1.0
                    ) -> PotentialSpec:
    """Assemble the static potential of a formula profile.

    cosine
        ``dc_amplitude * cos(4*pi*l/N)`` on every site (zero-based l).
    flat
        cosine on the driven half, a constant level on ``localized_sites``
        (default: second half).  The level is ``flat_level_fraction *
        dc_amplitude``; 1.0 is the nominal design, 0.5 matches the level
        actually realized in the bundled device table.

    Device-table potentials come from :meth:`DeviceTable.potential_spec`.
    """
    if profile not in ("cosine", "flat"):
        raise ConfigError(f"unknown potential profile {profile!r}")
    offsets = dc_amplitude * cosine_profile(n_sites)
    if profile == "flat":
        if localized_sites is None:
            localized_sites = range(n_sites // 2 + 1, n_sites + 1)
        for s in localized_sites:
            if not 1 <= s <= n_sites:
                raise ConfigError(f"localized sites must lie in 1..{n_sites}")
            offsets[s - 1] = flat_level_fraction * dc_amplitude
    return PotentialSpec(offsets)


def resonance_drive_frequency(n_sites: int, dc_amplitude_mhz: float,
                              coupling_mhz: float, order: int = 3) -> float:
    """Drive frequency (ordinary MHz) satisfying m*omega = 2*Omega.

    Omega = (4*pi/N)*sqrt(2*dc*J) is the small-oscillation frequency of the
    cosine potential; all quantities here are ordinary frequencies in MHz
    (the formula is homogeneous of degree one, so the angular version gives
    the same drive frequency).
    """
    if order < 1 or int(order) != order:
        raise ValueError("resonance order must be a positive integer")
    if dc_amplitude_mhz * coupling_mhz <= 0:
        raise ValueError("dc amplitude and coupling must have a positive product")
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    omega_small = (4.0 * np.pi / n_sites) * math.sqrt(
        2.0 * dc_amplitude_mhz * coupling_mhz)
    return (2.0 / order) * omega_small
