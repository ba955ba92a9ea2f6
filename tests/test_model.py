import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivenchain.basis import build_sector_basis
from drivenchain.config import MAX_REALIZATIONS, RunConfig, resolve
from drivenchain.errors import ConfigError
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import (ChainSpec, DisorderSpec, DriveSpec,
                               build_potential, cosine_profile,
                               sample_disorder)
from drivenchain.units import TWO_PI, rad_ns_from_mhz
from oracles import sample_disorder_loop, sector_diagonal, uniform_chain

J = rad_ns_from_mhz(11.5)
N = 12


def default_drive(dc=3 * J, ac=3 * J, omega=rad_ns_from_mhz(19.66)):
    return DriveSpec.cosine(N, dc, ac, omega)


def site_frequency(drive, potential, site, t):
    """g_l(t) - gbar of a site: the diagonal entry of its one-excitation state."""
    model = SectorModel(uniform_chain(N, J), drive, potential,
                        build_sector_basis(N, 1, 1))
    occupation = [0] * N
    occupation[site - 1] = 1
    return sector_diagonal(model, t)[model.basis.index_of(occupation)]


def test_cosine_profile_zero_based():
    w = cosine_profile(N)
    # first site on a maximum, trough at the fourth site
    assert w[0] == pytest.approx(1.0)
    assert w[3] == pytest.approx(-1.0)
    assert w[5] == pytest.approx(0.5)
    # period 6 on 12 sites
    assert np.allclose(w[:6], w[6:])


def test_chain_spec_validation():
    with pytest.raises(ConfigError):
        ChainSpec(1, np.array([]))
    with pytest.raises(ConfigError):
        ChainSpec(12, np.full(10, J))          # wrong bond count
    with pytest.raises(ConfigError):
        ChainSpec(12, np.full(11, np.inf))
    chain = uniform_chain(N, J)
    assert chain.mean_coupling == pytest.approx(J)
    with pytest.raises(ValueError):
        chain.bond_couplings[0] = 0.0          # frozen


def test_frequency_at_static_when_ac_off():
    drive = default_drive(ac=0.0)
    pot = build_potential("cosine", N, 3 * J)
    for site in (1, 4, 9):
        for t in (0.0, 13.7, 50.0):
            assert site_frequency(drive, pot, site, t) == pytest.approx(
                pot.static_offsets[site - 1])


def test_frequency_at_trough_site_minus_six_j():
    # the site sitting on the profile minimum carries weight -1: with
    # dc = ac = 3J and the drive at full swing its offset is -6J
    drive = default_drive()
    pot = build_potential("cosine", N, 3 * J)
    trough_site = 4
    value = site_frequency(drive, pot, trough_site, 0.0)
    assert value == pytest.approx(-6 * J, rel=1e-12)


def test_frequency_at_periodicity():
    drive = default_drive()
    pot = build_potential("flat", N, 3 * J)
    period = drive.period
    for site in range(1, N + 1):
        for t in np.linspace(0.0, 2 * period, 17):
            assert abs(site_frequency(drive, pot, site, t)
                       - site_frequency(drive, pot, site, t + period)) < 1e-12


def test_build_potential_cosine_values():
    pot = build_potential("cosine", N, 3 * J)
    # zero-based position 6 (site 7) has weight cos(2*pi) = 1
    assert pot.static_offsets[6] == pytest.approx(3 * J)
    # symmetric under a six-site shift
    assert np.allclose(pot.static_offsets[:6], pot.static_offsets[6:])


def test_build_potential_flat_level():
    pot = build_potential("flat", N, 3 * J)
    assert np.allclose(pot.static_offsets[6:], 3 * J)
    assert np.allclose(pot.static_offsets[:6], 3 * J * cosine_profile(N)[:6])
    half = build_potential("flat", N, 3 * J, flat_level_fraction=0.5)
    assert np.allclose(half.static_offsets[6:], 1.5 * J)


def test_disorder_zero_strength():
    spec = DisorderSpec(N, 0.0, master_seed=7, realization_count=3)
    assert np.all(sample_disorder(spec, 0) == 0.0)


def test_disorder_determinism_and_support():
    spec = DisorderSpec(N, 5 * J, master_seed=42, realization_count=10)
    a = sample_disorder(spec, 3)
    b = sample_disorder(spec, 3)
    assert np.array_equal(a, b)
    # only the second half is disordered by default
    assert np.all(a[:6] == 0.0)
    assert np.all(a[6:] != 0.0)
    # a different realization changes the vector without touching others
    c = sample_disorder(spec, 4)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, sample_disorder(spec, 3))
    with pytest.raises(ValueError):
        sample_disorder(spec, 10)


EDGE_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 128 - 1, 2 ** 128, 3 ** 100)
LAST = MAX_REALIZATIONS - 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2 ** 200),
       indices=st.lists(st.sampled_from([0, LAST]) | st.integers(0, LAST),
                        min_size=1, max_size=4),
       sites=st.sampled_from([(1,), (N,), (7, 9, 11), ()])
       | st.lists(st.integers(1, N), min_size=1, max_size=N, unique=True),
       strength=st.sampled_from([0.0, 3 * J]) | st.floats(0.0, 1e3))
@example(seed=0, indices=[0, LAST], sites=(1,), strength=3 * J)
@example(seed=2 ** 32 - 1, indices=[LAST], sites=(N,), strength=3 * J)
@example(seed=2 ** 32, indices=[0], sites=(7, 9, 11), strength=3 * J)
@example(seed=2 ** 64, indices=[LAST, 0], sites=(), strength=5 * J)
@example(seed=2 ** 128 - 1, indices=[0, LAST], sites=(7, 9, 11), strength=J)
@example(seed=2 ** 128, indices=[LAST], sites=(1, N), strength=3 * J)
@example(seed=3 ** 100, indices=[0, 1, LAST], sites=(), strength=3 * J)
@example(seed=12345, indices=[0, LAST], sites=(7, 9, 11), strength=0.0)
def test_vectorized_draws_match_the_per_site_generator_loop(seed, indices,
                                                            sites, strength):
    spec = DisorderSpec(N, strength, tuple(sites), seed, MAX_REALIZATIONS)
    expected = np.array([sample_disorder_loop(spec, i) for i in indices])
    assert np.array_equal(sample_disorder(spec, indices), expected)
    assert np.array_equal(sample_disorder(spec, indices[-1]), expected[-1])


def test_draws_cover_every_realization_index_of_one_key_word():
    spec = DisorderSpec(N, 3 * J, (7, 9, 11), 2 ** 32, 2 ** 32)
    last = [2 ** 32 - 1]
    assert np.array_equal(sample_disorder(spec, last),
                          [sample_disorder_loop(spec, last[0])])
    with pytest.raises(ConfigError):
        DisorderSpec(N, 3 * J, master_seed=1, realization_count=2 ** 32 + 1)
    with pytest.raises(ConfigError):
        DisorderSpec(N, 3 * J, master_seed=-1)
    with pytest.raises(ValueError):
        sample_disorder(spec, [0, 2 ** 32])


def test_disorder_monte_carlo_statistics():
    # 10^4 draws: empirical mean within 3 standard errors of 0, max <= W
    w = 5 * J
    spec = DisorderSpec(N, w, master_seed=2024, realization_count=10_000)
    draws = np.array([sample_disorder(spec, i)[6:] for i in range(10_000)])
    sigma = w / np.sqrt(3.0)
    stderr = sigma / np.sqrt(draws.size)
    assert abs(draws.mean()) < 3 * stderr
    assert np.abs(draws).max() <= w


def resonance_mhz(order, **overrides):
    """The default drive of ``resolve`` at resonance order m, in MHz."""
    return resolve(RunConfig(resonance_order=order,
                             **overrides)).drive_frequency_mhz


def test_resonance_drive_frequency_values():
    assert resonance_mhz(3) == pytest.approx(19.67, abs=0.01)
    assert resonance_mhz(1) == pytest.approx(59.0, abs=0.1)
    # linear in 1/m
    assert resonance_mhz(6) == pytest.approx(resonance_mhz(3) / 2)
    with pytest.raises(ValueError):
        resonance_mhz(3, dc_amplitude_over_j=-3.0)
    with pytest.raises(ValueError):
        resonance_mhz(0)


def test_undefined_resonance_is_a_config_error():
    for overrides in (dict(dc_amplitude_over_j=-3.0), dict(coupling_mhz=(0.0,))):
        with pytest.raises(ConfigError, match="drive_frequency_mhz must be "
                                              "given explicitly"):
            resonance_mhz(3, **overrides)


def test_drive_spec_validation():
    # 2 pi / 1e-320 overflows: a positive frequency with an infinite period
    for omega in (-1.0, 0.0, np.inf, np.nan, 1e-320):
        with pytest.raises(ConfigError, match="^drive frequency .* finite "
                                              "period"):
            DriveSpec.cosine(N, 0.0, 0.0, omega)
    with pytest.raises(ConfigError):
        DriveSpec.cosine(N, 0.0, 0.0, 1.0, driven_sites=[0])
    drive = DriveSpec.cosine(N, 3 * J, 3 * J, rad_ns_from_mhz(19.66))
    assert drive.period == pytest.approx(TWO_PI / drive.angular_frequency)
    # undriven sites carry zero weight
    assert np.all(drive.spatial_weights[6:] == 0.0)


def test_potential_overlay():
    pot = build_potential("flat", N, 3 * J)
    extra = np.zeros(N)
    extra[8] = 0.5 * J
    shifted = pot.with_overlay(extra)
    assert shifted.static_offsets[8] == pytest.approx(3.5 * J)
    assert pot.static_offsets[8] == pytest.approx(3 * J)  # original untouched
