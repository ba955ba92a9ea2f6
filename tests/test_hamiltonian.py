import numpy as np
import pytest

from drivenchain.basis import build_sector_basis
from drivenchain.hamiltonian import SectorModel, hopping_matrix
from drivenchain.model import ChainSpec, DriveSpec, PotentialSpec, build_potential
from drivenchain.units import rad_ns_from_mhz
from oracles import (diagonal_frequencies, sector_diagonal, sector_hamiltonian,
                     uniform_chain)

J = rad_ns_from_mhz(11.5)
U = rad_ns_from_mhz(-250.0)
N = 12


def junction_setup(profile="cosine", n=1, n_max=1, nonlinearity=U):
    chain = uniform_chain(N, J, nonlinearity)
    drive = DriveSpec.cosine(N, 3 * J, 3 * J, rad_ns_from_mhz(19.665764))
    potential = build_potential(profile, N, 3 * J)
    basis = build_sector_basis(N, n, n_max)
    return SectorModel(chain, drive, potential, basis)


def test_single_particle_hopping_is_tridiagonal():
    basis = build_sector_basis(N, 1, 1)
    chain = uniform_chain(N, J)
    hop = hopping_matrix(chain, basis)
    expected = np.diag(np.full(N - 1, J), 1) + np.diag(np.full(N - 1, J), -1)
    assert np.allclose(hop, expected)


def test_bosonic_matrix_element_sqrt2():
    # two bosons on two sites with cutoff 2: <20|H|11> = sqrt(2) J by
    # explicit operator algebra (a1 moves 1->0 with sqrt(1), a2+ 1->2 with
    # sqrt(2))
    basis = build_sector_basis(2, 2, 2)
    chain = uniform_chain(2, J)
    hop = hopping_matrix(chain, basis)
    i20 = basis.index_of((2, 0))
    i11 = basis.index_of((1, 1))
    i02 = basis.index_of((0, 2))
    assert hop[i20, i11] == pytest.approx(np.sqrt(2) * J)
    assert hop[i02, i11] == pytest.approx(np.sqrt(2) * J)
    assert hop[i20, i02] == 0.0
    assert np.allclose(hop, hop.T)


def test_cutoff_blocks_moves():
    # hardcore: no matrix element may create double occupation
    basis = build_sector_basis(3, 2, 1)
    chain = uniform_chain(3, J)
    hop = hopping_matrix(chain, basis)
    i110 = basis.index_of((1, 1, 0))
    i101 = basis.index_of((1, 0, 1))
    i011 = basis.index_of((0, 1, 1))
    assert hop[i110, i101] == pytest.approx(J)
    assert hop[i101, i011] == pytest.approx(J)
    assert hop[i110, i011] == 0.0     # would need two hops, not one bond


def test_zero_couplings_zero_matrix():
    basis = build_sector_basis(N, 1, 1)
    chain = uniform_chain(N, 0.0)
    assert np.all(hopping_matrix(chain, basis) == 0.0)


def test_nonlinearity_inert_in_single_excitation_sector():
    model = junction_setup(n=1)
    diag = sector_diagonal(model, 5.0)
    freqs = diagonal_frequencies(5.0, model.drive, model.potential)
    assert np.allclose(diag, model.basis.states @ freqs)


def test_nonlinearity_counts_double_occupation():
    basis = build_sector_basis(2, 2, 2)
    chain = uniform_chain(2, J, U)
    drive = DriveSpec.cosine(2, 0.0, 0.0, 1.0)
    potential = build_potential("cosine", 2, 0.0)
    diag = sector_diagonal(SectorModel(chain, drive, potential, basis), 0.0)
    i20 = basis.index_of((2, 0))
    i11 = basis.index_of((1, 1))
    assert diag[i20] == pytest.approx(U)      # (U/2) * 2 * 1
    assert diag[i11] == pytest.approx(0.0)


def test_static_diagonal_when_ac_off():
    model = junction_setup()
    drive_off = DriveSpec.cosine(N, 3 * J, 0.0, rad_ns_from_mhz(19.665764))
    static = SectorModel(model.chain, drive_off, model.potential, model.basis)
    d0 = sector_diagonal(static, 0.0)
    d1 = sector_diagonal(static, 37.3)
    assert np.allclose(d0, d1)


def test_hermiticity_at_random_times():
    model = junction_setup(profile="flat", n=2, n_max=2)
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.0, 200.0, 100):
        h = sector_hamiltonian(model, t)
        assert np.abs(h - h.conj().T).max() < 1e-12
        assert np.all(np.isreal(np.diag(h)))


def test_single_particle_trace_identity():
    model = junction_setup()
    for t in (0.0, 7.7, 42.0):
        h = sector_hamiltonian(model, t)
        freqs = diagonal_frequencies(t, model.drive, model.potential)
        assert np.trace(h).real == pytest.approx(freqs.sum(), rel=1e-12)


def test_periodicity_elementwise():
    model = junction_setup(profile="flat")
    period = model.drive.period
    for t in (0.0, 11.1, 37.9):
        assert np.allclose(sector_hamiltonian(model, t),
                           sector_hamiltonian(model, t + period), atol=1e-12)


def test_junction_decomposition():
    # full chain equals block-diagonal halves plus the single junction bond
    basis = build_sector_basis(N, 1, 1)
    chain_full = uniform_chain(N, J)
    couplings_cut = np.full(N - 1, J)
    couplings_cut[5] = 0.0                      # remove the 6-7 bond
    chain_cut = ChainSpec(N, couplings_cut)
    couplings_junction = np.zeros(N - 1)
    couplings_junction[5] = J
    chain_junction = ChainSpec(N, couplings_junction)
    full = hopping_matrix(chain_full, basis)
    parts = hopping_matrix(chain_cut, basis) + hopping_matrix(chain_junction, basis)
    assert np.abs(full - parts).max() < 1e-14


def test_single_particle_limit_matches_tight_binding():
    model = junction_setup()
    t = 3.21
    h = sector_hamiltonian(model, t)
    freqs = diagonal_frequencies(t, model.drive, model.potential)
    expected = (np.diag(freqs).astype(complex)
                + np.diag(np.full(N - 1, J), 1) + np.diag(np.full(N - 1, J), -1))
    assert np.abs(h - expected).max() < 1e-14


def test_sector_model_consistency_checks():
    chain = uniform_chain(N, J)
    drive = DriveSpec.cosine(N, 0, 0, 1.0)
    potential = build_potential("cosine", N, 0.0)
    with pytest.raises(ValueError):
        SectorModel(chain, drive, potential, build_sector_basis(10, 1, 1))


def test_static_hamiltonians_block_equals_single_rows_bitwise():
    # three excitations sum three offsets per diagonal entry: each row of a
    # block must add them in the order a block of one does
    model = junction_setup(profile="flat", n=3)
    rng = np.random.default_rng(5)
    offsets = model.potential.static_offsets + rng.uniform(-3 * J, 3 * J, (5, N))
    block = model.static_hamiltonians(offsets)
    for row, h0 in zip(offsets, block):
        alone = model.with_potential(PotentialSpec(row)).static_hamiltonians()
        assert np.array_equal(h0, alone[0])
    assert np.allclose(np.diagonal(block[0]), model.basis.states @ offsets[0])
