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
import operator

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
    """Static chain data: size, bond couplings, onsite nonlinearity.

    Couplings and the nonlinearity are angular frequencies in rad/ns.
    ``bond_couplings[k]`` couples sites k+1 and k+2 (1-based site numbers).
    The boson cutoff belongs to the sector, :class:`SectorBasis`.
    """

    n_sites: int
    bond_couplings: np.ndarray
    onsite_nonlinearity: float = 0.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise ConfigError("n_sites must be >= 2")
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

    @property
    def mean_coupling(self) -> float:
        return float(self.bond_couplings.mean())


@dataclass(frozen=True)
class DriveSpec:
    """Time-periodic modulation of the site frequencies.

    The AC part adds ``ac_amplitude * cos(omega*(t-t0) + phase)`` times the
    per-site ``spatial_weights`` to the diagonal; the DC part of the drive is
    folded into :class:`PotentialSpec` once, so there is a single source of
    truth for the static diagonal.  ``dc_amplitude`` is read only by the
    semiclassical model.
    """

    dc_amplitude: float
    ac_amplitude: float
    angular_frequency: float
    spatial_weights: np.ndarray
    phase: float = 0.0
    time_origin: float = 0.0

    def __post_init__(self):
        if not (0 < self.angular_frequency < math.inf
                and math.isfinite(self.period)):
            raise ConfigError(f"drive frequency {self.angular_frequency:g} "
                              "rad/ns must be positive and finite, with a "
                              "finite period")
        weights = _frozen_array(self.spatial_weights)
        if not np.all(np.isfinite(weights)):
            raise ConfigError("spatial weights must be finite")
        if not math.isfinite(self.effective_phase):
            raise ConfigError("drive phase - omega * time_origin must be finite")
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

    @property
    def effective_phase(self) -> float:
        """psi in f(t) = ac * cos(omega*t + psi), the phase at t = 0."""
        return self.phase - self.angular_frequency * self.time_origin

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
        object.__setattr__(self, "master_seed", operator.index(self.master_seed))
        if self.master_seed < 0:
            raise ConfigError("master seed must be >= 0")
        if not 1 <= self.realization_count <= 2 ** 32:     # one spawn-key word
            raise ConfigError("realization count must lie in 1..2**32")
        sites = tuple(self.disordered_sites) or tuple(
            range(self.n_sites // 2 + 1, self.n_sites + 1))
        if any(s < 1 or s > self.n_sites for s in sites):
            raise ConfigError(f"disordered sites must lie in 1..{self.n_sites}")
        object.__setattr__(self, "disordered_sites", sites)


_MASK32, _MASK64, _MASK128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT2, _PCG_MULT1 = _PCG_MULT ** 2 & _MASK128, _PCG_MULT + 1


def _hash_constants(initial: int, multiplier: int, first: int) -> np.ndarray:
    """The SeedSequence hash constants of calls first .. first+8."""
    return np.array([initial * pow(multiplier, k, 1 << 32) & _MASK32
                     for k in range(first, first + 9)], dtype=np.uint32)


def _hashmix(values, consts):
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _mix(x, y):
    mixed = 0xCA01F9DD * x - 0x4973F715 * y
    return mixed ^ (mixed >> 16)


_STATE_CONSTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 0)


def sample_disorder(spec: DisorderSpec, indices=None) -> np.ndarray:
    """Disorder offsets, 0 off ``spec.disordered_sites``, of the realizations
    ``indices`` as numpy indexes rows: (R, N) for all by default, (N,) for
    an int and (len(indices), N) for a sequence.

    Realization r draws at site l numpy's ``default_rng(SeedSequence(
    master_seed, spawn_key=(r, l))).uniform(-W, W)`` bit for bit, for all
    keys at once: the spawn-key words are hashed as uint32 arrays, then
    PCG64's seeding and first XSL-RR output run in 128-bit integers.
    """
    count = spec.realization_count
    rows = np.arange(count) if indices is None else np.asarray(indices)
    indices = rows.reshape(-1)
    bad = indices[(indices < 0) | (indices >= count)]
    if bad.size:
        raise ValueError(f"realization index {bad[0]} outside 0..{count - 1}")
    offsets = np.zeros((len(indices), spec.n_sites))
    if spec.strength == 0.0:
        return offsets.reshape(rows.shape + (spec.n_sites,))
    # the pool after the master seed's words, padded to four, then each
    # spawn-key word mixed into every pool word
    seed = spec.master_seed
    words = [seed >> shift & _MASK32
             for shift in range(0, max(32, seed.bit_length()), 32)]
    words += [0] * (4 - len(words))
    pool = np.random.SeedSequence(words).pool
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * len(words))
    pool = _mix(pool, _hashmix(indices.astype(np.uint32)[:, None], consts[:5]))
    sites = np.array(spec.disordered_sites, dtype=np.uint32)[:, None]
    pool = _mix(pool[:, None], _hashmix(sites, consts[4:]))
    # generate_state(4, np.uint64): the pool hashed twice over, word pairs
    state = _hashmix(np.tile(pool, 2), _STATE_CONSTS).astype(np.uint64)
    state = state[..., 0::2] | state[..., 1::2] << np.uint64(32)
    # PCG64 seeds state = inc, adds the seed and steps the LCG twice before
    # its first XSL-RR output; one row at a time, since the Python ints of
    # every key at once would add 0.3 MB to the peak RSS of R = 200
    mantissas = []
    for row in state.reshape(-1, 4):
        seed_hi, seed_lo, inc_hi, inc_lo = row.tolist()
        inc = inc_hi << 65 | inc_lo << 1 | 1
        lcg = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT2
               + inc * _PCG_MULT1) & _MASK128
        x, rot = (lcg >> 64 ^ lcg) & _MASK64, lcg >> 122
        mantissas.append((x >> rot | x << (64 - rot) & _MASK64) >> 11)
    unit = np.reshape(mantissas, state.shape[:2]) * 2.0 ** -53
    offsets[:, np.subtract(spec.disordered_sites, 1)] = (
        -spec.strength + 2 * spec.strength * unit)
    return offsets.reshape(rows.shape + (spec.n_sites,))


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

