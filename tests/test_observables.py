import numpy as np
import pytest

from drivenchain.basis import build_sector_basis, fock_state
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import (DisorderSpec, DriveSpec, build_potential,
                               sample_disorder)
from drivenchain.observables import observable_series
from drivenchain.propagate import evolve_state
from drivenchain.units import rad_ns_from_mhz
from oracles import (czz, czz_expectation, czz_from_counts, joint_probabilities,
                     populations, uniform_chain)

N = 12
J = rad_ns_from_mhz(11.5)


def random_single_excitation_state(rng, basis):
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    amps /= np.linalg.norm(amps)
    return amps


def test_populations_one_hot_and_superposition():
    basis = build_sector_basis(N, 1, 1)
    assert np.allclose(populations(fock_state(basis, 3), basis),
                       np.eye(N)[2])
    uniform = np.full(N, 1 / np.sqrt(N), dtype=complex)
    assert np.allclose(populations(uniform, basis), np.full(N, 1 / N))


def test_population_completeness_random_states():
    basis = build_sector_basis(N, 1, 1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = random_single_excitation_state(rng, basis)
        assert populations(state, basis).sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_probabilities_fock():
    basis = build_sector_basis(N, 1, 1)
    jp = joint_probabilities(fock_state(basis, 4), basis, 4, 7)
    assert (jp.p00, jp.p01, jp.p10, jp.p11) == pytest.approx((0, 0, 1, 0))
    assert jp.p1_i == pytest.approx(1.0)
    assert jp.p0_j == pytest.approx(1.0)


def test_joint_p11_vanishes_single_excitation():
    basis = build_sector_basis(N, 1, 1)
    rng = np.random.default_rng(6)
    for _ in range(25):
        state = random_single_excitation_state(rng, basis)
        for (i, j) in ((1, 2), (3, 7), (5, 12)):
            assert joint_probabilities(state, basis, i, j).p11 == 0.0


def test_joint_probabilities_bell_like_pair():
    basis = build_sector_basis(N, 1, 1)
    amps = np.zeros(N, dtype=complex)
    amps[1] = amps[7] = 1 / np.sqrt(2)       # sites 2 and 8
    jp = joint_probabilities(amps, basis, 2, 8)
    assert jp.p10 == pytest.approx(0.5)
    assert jp.p01 == pytest.approx(0.5)
    assert jp.p00 == pytest.approx(0.0)
    assert jp.p11 == pytest.approx(0.0)
    assert czz(amps, basis, 2, 8) == pytest.approx(-1.0)


def test_joint_probabilities_rejects_same_site():
    basis = build_sector_basis(N, 1, 1)
    state = fock_state(basis, 1)
    with pytest.raises(ValueError):
        joint_probabilities(state, basis, 3, 3)
    with pytest.raises(ValueError):
        czz_expectation(state, basis, 5, 5)


def test_czz_from_counts_uncorrelated_product():
    # both qubits pinned to zero: correlation vanishes
    assert czz_from_counts(1, 0, 0, 0, 1, 0, 1, 0) == pytest.approx(0.0)


def test_czz_from_counts_validates_inputs():
    with pytest.raises(ValueError):
        czz_from_counts(0.7, 0, 0, 0, 0.7, 0.3, 1, 0)     # sums to 0.7
    with pytest.raises(ValueError):
        czz_from_counts(0.5, 0.5, 0, 0, 0.5, 0.5, 1.0, 0.2)


def test_czz_forms_agree_on_random_states():
    basis = build_sector_basis(N, 1, 1)
    rng = np.random.default_rng(7)
    for _ in range(100):
        state = random_single_excitation_state(rng, basis)
        i, j = rng.choice(np.arange(1, N + 1), size=2, replace=False)
        a = czz(state, basis, int(i), int(j))
        b = czz_expectation(state, basis, int(i), int(j))
        assert a == pytest.approx(b, abs=1e-12)


def test_czz_closed_form_single_excitation():
    # with one excitation: C = -4 <n_i><n_j>
    basis = build_sector_basis(N, 1, 1)
    rng = np.random.default_rng(8)
    for _ in range(50):
        state = random_single_excitation_state(rng, basis)
        pops = populations(state, basis)
        i, j = rng.choice(np.arange(1, N + 1), size=2, replace=False)
        expected = -4.0 * pops[i - 1] * pops[j - 1]
        assert czz_expectation(state, basis, int(i), int(j)) == pytest.approx(
            expected, abs=1e-12)


def test_czz_symmetry():
    basis = build_sector_basis(N, 1, 1)
    rng = np.random.default_rng(9)
    state = random_single_excitation_state(rng, basis)
    for (i, j) in ((1, 5), (2, 7), (9, 12)):
        assert czz_expectation(state, basis, i, j) == pytest.approx(
            czz_expectation(state, basis, j, i), abs=1e-14)


def test_czz_zero_when_unoccupied():
    basis = build_sector_basis(N, 1, 1)
    state = fock_state(basis, 3)
    assert czz_expectation(state, basis, 5, 7) == pytest.approx(0.0)


def test_czz_soft_cutoff_binarization():
    # occupation >= 1 counts as "one": a doubly occupied site is state one
    basis = build_sector_basis(2, 2, 2)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of((2, 0))] = 1.0
    jp = joint_probabilities(amps, basis, 1, 2)
    assert jp.p10 == pytest.approx(1.0)
    assert czz(amps, basis, 1, 2) == pytest.approx(
        czz_expectation(amps, basis, 1, 2))


def test_observable_series_on_trajectory():
    chain = uniform_chain(N, J)
    drive = DriveSpec.cosine(N, 3 * J, 3 * J, rad_ns_from_mhz(19.665764))
    potential = build_potential("cosine", N, 3 * J)
    basis = build_sector_basis(N, 1, 1)
    model = SectorModel(chain, drive, potential, basis)
    t_samples = np.arange(0.0, 30.0, 2.0)
    traj = evolve_state(model, fock_state(basis, 3), t_samples, step=0.2)
    pairs = [(l, 7) for l in range(1, N + 1) if l != 7]
    pops, correlations = observable_series(traj.amplitudes, basis, pairs)
    assert pops.shape == (len(traj.times), N)
    assert len(correlations) == N - 1
    assert np.abs(pops.sum(axis=1) - 1.0).max() < 1e-9
    # closed form holds along the trajectory
    for (i, j), values in correlations.items():
        expected = -4.0 * pops[:, i - 1] * pops[:, j - 1]
        assert np.abs(values - expected).max() < 1e-12

    # an (R, time, dim) stack reads as R separate trajectories, bit for bit
    spec = DisorderSpec(N, 3 * J, master_seed=4, realization_count=3)
    h0 = model.static_hamiltonians(potential.static_offsets
                                   + sample_disorder(spec))
    stack = evolve_state(model, fock_state(basis, 3), t_samples, 0.2,
                         h0).amplitudes
    assert stack.shape == (3, len(t_samples), basis.dim)
    pops, correlations = observable_series(stack, basis, pairs)
    assert pops.shape == (3, len(t_samples), N)
    assert np.abs(pops.sum(axis=-1) - 1.0).max() < 1e-9
    for r, amplitudes in enumerate(stack):
        single_pops, single = observable_series(amplitudes, basis, pairs)
        assert np.array_equal(pops[r], single_pops)
        assert single.keys() == correlations.keys()
        for pair, values in single.items():
            assert correlations[pair].shape == (3, len(t_samples))
            assert np.array_equal(correlations[pair][r], values)


def test_observable_series_matches_per_sample_czz():
    chain = uniform_chain(N, J)
    drive = DriveSpec.cosine(N, 3 * J, 3 * J, rad_ns_from_mhz(19.665764))
    potential = build_potential("flat", N, 3 * J)
    basis = build_sector_basis(N, 1, 1)
    model = SectorModel(chain, drive, potential, basis)
    traj = evolve_state(model, fock_state(basis, 3),
                        np.arange(0.0, 40.0, 2.0), step=0.2)
    pairs = [(l, 7) for l in range(1, N + 1) if l != 7] + [(2, 11)]
    _, correlations = observable_series(traj.amplitudes, basis, pairs)
    for (i, j), values in correlations.items():
        expected = [czz_expectation(amps, basis, i, j)
                    for amps in traj.amplitudes]
        assert np.abs(values - expected).max() <= 1e-14


def test_observable_series_rejects_foreign_basis():
    chain = uniform_chain(4, J)
    drive = DriveSpec.cosine(4, 0, 0, 1.0)
    potential = build_potential("cosine", 4, 0.0)
    basis = build_sector_basis(4, 1, 1)
    model = SectorModel(chain, drive, potential, basis)
    traj = evolve_state(model, fock_state(basis, 1), [0.0], step=0.1)
    with pytest.raises(ValueError, match="amplitudes of dimension 4 do not "
                                         "fit basis dimension 6"):
        observable_series(traj.amplitudes, build_sector_basis(4, 2, 1))
    with pytest.raises(ValueError, match="do not fit basis dimension 6"):
        observable_series(traj.amplitudes[None], build_sector_basis(4, 2, 1))
