import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from drivenchain.basis import build_sector_basis
from drivenchain.errors import ConfigError, NumericalError
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import DriveSpec, build_potential
from drivenchain import spectrum
from drivenchain.config import RunConfig, resolve
from drivenchain.model import sample_disorder
from drivenchain.propagate import FloquetOperator, floquet_operator
from drivenchain.spectrum import (DEGENERACY_RELATIVE_TOL,
                                  ROTATION_RESIDUAL_TOL, QuasienergySpectrum,
                                  RatioSample, coe_cdf,
                                  coe_density, coe_mean, gap_ratios,
                                  ks_distance, poisson_cdf, poisson_density,
                                  poisson_mean, quasienergies, real_rotation)
from drivenchain.units import rad_ns_from_mhz
from oracles import (coe_density_divergent, cos_degenerate_unitary,
                     eigvals_quasienergies, haar_unitary,
                     ks_distance_two_sample, ratios_from_sorted_loop,
                     sample_coe_reference, sector_hamiltonian, uniform_chain)

J = rad_ns_from_mhz(11.5)
OMEGA = rad_ns_from_mhz(19.665764062481905)


def make_model(ac=3 * J):
    chain = uniform_chain(12, J)
    drive = DriveSpec.cosine(12, 3 * J, ac, OMEGA)
    potential = build_potential("cosine", 12, 3 * J)
    basis = build_sector_basis(12, 1, 1)
    return SectorModel(chain, drive, potential, basis)


def test_identity_floquet_all_zero():
    op = FloquetOperator(np.eye(5, dtype=complex), period=10.0)
    spec = quasienergies(op)
    assert np.allclose(spec.values, 0.0)


def test_static_limit_matches_folded_eigenvalues():
    model = make_model(ac=0.0)
    op = floquet_operator(model, 64)
    spec = quasienergies(op)
    evals = np.linalg.eigvalsh(sector_hamiltonian(model, 0.0))
    omega = op.angular_frequency
    folded = (evals + 0.5 * omega) % omega - 0.5 * omega
    folded = np.where(folded <= -0.5 * omega, folded + omega, folded)
    assert np.abs(np.sort(folded) - spec.values).max() < 1e-8


def test_driven_sector_dimension():
    spec = quasienergies(floquet_operator(make_model(), 128))
    assert spec.dim == 12
    assert len(gap_ratios(spec).ratios) == 10


def test_quasienergies_reject_nonunitary():
    op = FloquetOperator(np.eye(4, dtype=complex) * 1.5, period=1.0)
    with pytest.raises(NumericalError):
        quasienergies(op)


def flat_w3_floquet_stack(sector: int, count: int) -> FloquetOperator:
    """U(T) of ``count`` realizations of flat level 0.5, W=3J, at 64 steps
    per period: V^T V, symmetric."""
    run = resolve(RunConfig(profile="flat", flat_level_fraction=0.5,
                            disorder_w_over_j=3.0, sector=sector,
                            realizations=count))
    offsets = sample_disorder(run.disorder, np.arange(count))
    return floquet_operator(run.model, 64, run.model.static_hamiltonians(
        run.model.potential.static_offsets + offsets))


@pytest.mark.parametrize("sector,count", [(1, 40), (2, 6)])
def test_real_route_matches_eigvals_on_floquet_stacks(sector, count):
    # the eigenphases of O^T U O's diagonal agree with the general
    # eigensolver's to roundoff; a row the route refuses is eigvals' own
    op = flat_w3_floquet_stack(sector, count)
    spectra = quasienergies(op)
    reference = eigvals_quasienergies(op.matrix, op.period)
    assert sum(spec.fallback for spec in spectra) < count
    for spec, expected in zip(spectra, reference):
        if spec.fallback:
            assert np.array_equal(spec.values, expected)
        else:
            assert (np.abs(spec.values - expected).max()
                    < 1e-13 * op.angular_frequency)
        assert 0.0 < spec.modulus_deviation < 1e-12


def test_cos_degenerate_symmetric_unitary_falls_back_to_eigvals():
    # Re U has cos(0.7) twice, so eigh's O mixes the e^{0.7i} and e^{-0.7i}
    # eigenvectors and O^T U O is far from diagonal: that matrix takes
    # eigvals, bit for bit, while a symmetric unitary beside it in the
    # stack keeps the route
    rng = np.random.default_rng(11)
    degenerate = cos_degenerate_unitary(12, 0.7, rng)
    w = haar_unitary(12, rng)
    plain = w.T @ w
    rotated = real_rotation(degenerate[None])[0]
    assert np.abs(rotated - np.diag(np.diagonal(rotated))).max() > 1e-3
    spectra = quasienergies(FloquetOperator(np.stack([plain, degenerate]),
                                            period=2.0))
    assert [spec.fallback for spec in spectra] == [False, True]
    assert np.array_equal(spectra[1].values,
                          eigvals_quasienergies(degenerate, 2.0))
    assert np.abs(spectra[0].values
                  - eigvals_quasienergies(plain, 2.0)).max() < 1e-13


def test_asymmetric_unitary_skips_the_route(monkeypatch):
    # a Haar unitary is far from symmetric (an odd-step product at a drive
    # phase off a multiple of pi is too): it takes eigvals and no O^T U O
    real, rows = spectrum.real_rotation, []

    def counting(matrix):
        rows.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(spectrum, "real_rotation", counting)
    u = haar_unitary(12, np.random.default_rng(4))
    assert np.abs(u - u.T).max() > ROTATION_RESIDUAL_TOL
    spec = quasienergies(FloquetOperator(u, period=2.0))
    assert spec.fallback and rows == [0]
    assert np.array_equal(spec.values, eigvals_quasienergies(u, 2.0))


def test_gap_ratio_basic_values():
    spec = QuasienergySpectrum(np.linspace(-0.4, 0.4, 9), angular_frequency=1.0)
    sample = gap_ratios(spec)
    assert np.allclose(sample.ratios, 1.0)     # equally spaced
    spec2 = QuasienergySpectrum(np.array([0.0, 0.1, 0.3]), angular_frequency=1.0)
    assert gap_ratios(spec2).ratios[0] == pytest.approx(0.5)   # gaps (1, 2)


def test_gap_ratio_degenerate_handling():
    vals = np.array([0.0, 0.0, 0.1, 0.25])
    sample = gap_ratios(QuasienergySpectrum(vals, angular_frequency=1.0))
    assert sample.discarded_degenerate == 1
    assert not np.any(np.isnan(sample.ratios))
    assert len(sample.ratios) == 1


def test_gap_ratio_shift_invariance():
    rng = np.random.default_rng(3)
    vals = np.sort(rng.uniform(-0.4, 0.3, 24))
    a = gap_ratios(QuasienergySpectrum(vals, angular_frequency=1.0))
    b = gap_ratios(QuasienergySpectrum(vals + 0.05, angular_frequency=1.0))
    assert np.allclose(a.ratios, b.ratios)


def _pooled_loop_ratios(spectra):
    ratios, discarded = [], 0
    for spec in spectra:
        tol = DEGENERACY_RELATIVE_TOL * spec.angular_frequency
        kept, dropped = ratios_from_sorted_loop(spec.values, tol)
        ratios.extend(kept)
        discarded += dropped
    return np.asarray(ratios, dtype=float), discarded


def _assert_matches_loop(spectra):
    sample = gap_ratios(spectra)
    ratios, discarded = _pooled_loop_ratios(spectra)
    assert sample.ratios.tobytes() == ratios.tobytes()
    assert sample.discarded_degenerate == discarded


@pytest.mark.parametrize("seed", range(6))
def test_gap_ratios_match_loop_oracle_bitwise(seed):
    rng = np.random.default_rng(seed)
    discarded = 0
    # each run of one size and zone is pooled in its own call; the zones
    # differ 4x, so a gap judged against the wrong zone flips
    for omega in rng.uniform(0.5, 3.0) * np.array([1.0, 4.0]):
        tol = DEGENERACY_RELATIVE_TOL * omega
        runs = {}
        for dim in rng.choice([3, 12, 30], size=6):
            vals = np.sort(rng.uniform(-0.45 * omega, 0.45 * omega, dim))
            # inject exact, below- and just-above-tolerance gaps, some adjacent
            for k in rng.integers(0, dim - 1, size=3):
                vals[k + 1] = vals[k] + rng.choice([0.0, 0.5 * tol, 2.0 * tol])
            runs.setdefault(dim, []).append(
                QuasienergySpectrum(vals, angular_frequency=omega))
        for run in runs.values():
            _assert_matches_loop(run)
            discarded += gap_ratios(run).discarded_degenerate
    assert discarded > 0


def test_gap_ratios_match_loop_oracle_at_the_tolerance():
    tol = DEGENERACY_RELATIVE_TOL
    vals = np.array([-0.3, 0.0, tol, 2 * tol, 0.2, 0.2, 0.2 + 0.5 * tol, 0.4])
    spec = QuasienergySpectrum(vals, angular_frequency=1.0)
    _assert_matches_loop([spec])
    all_degenerate = QuasienergySpectrum(np.zeros(5), angular_frequency=1.0)
    _assert_matches_loop([all_degenerate])
    assert gap_ratios(all_degenerate).count == 0


def test_gap_ratios_reject_mixed_sizes_and_zones():
    vals = np.array([-0.3, 0.0, 0.1, 0.4])
    spec = QuasienergySpectrum(vals, angular_frequency=1.0)
    for other in (QuasienergySpectrum(vals[:3], angular_frequency=1.0),
                  QuasienergySpectrum(vals, angular_frequency=2.0)):
        with pytest.raises(ValueError, match="one size and one zone"):
            gap_ratios([spec, other])


def test_gap_ratio_needs_three_levels():
    with pytest.raises(ValueError):
        gap_ratios(QuasienergySpectrum(np.array([0.0, 0.1]),
                                       angular_frequency=1.0))


def test_too_few_levels_is_a_config_error():
    # the one owner of the rule that spectrum needs 3 states
    with pytest.raises(ConfigError, match="at least 3 states"):
        gap_ratios(QuasienergySpectrum(np.array([0.0]), angular_frequency=1.0))


def test_poisson_reference():
    assert poisson_density(0.0) == pytest.approx(2.0)
    assert poisson_density(1.0) == pytest.approx(0.5)
    total, _ = quad(poisson_density, 0, 1)
    assert total == pytest.approx(1.0, abs=1e-10)
    mean, _ = quad(lambda r: r * poisson_density(r), 0, 1)
    assert mean == pytest.approx(poisson_mean(), abs=1e-10)
    assert poisson_mean() == pytest.approx(2 * np.log(2) - 1, abs=1e-15)
    assert poisson_cdf(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        poisson_density(1.5)


def test_coe_closed_form_level_repulsion_and_normalization():
    # vanishes at small r instead of diverging
    assert coe_density(1e-4) == pytest.approx(0.0, abs=1e-2)
    assert coe_density(1e-2) < 0.1
    total, _ = quad(lambda r: float(coe_density(r)), 0, 1, points=[1e-6])
    assert total == pytest.approx(1.0, abs=1e-8)


def test_coe_closed_form_value_at_one():
    # independent re-evaluation at r=1: sin terms vanish,
    # P(1) = (2/3) * (1/4 + 1/2 + 1/2) = 5/6
    assert coe_density(1.0) == pytest.approx(5.0 / 6.0, abs=1e-12)
    with pytest.raises(ValueError):
        coe_density(0.0)


def test_coe_mean_quadrature_value():
    # frozen quadrature result, cross-checked against the sampler below
    assert coe_mean() == pytest.approx(0.5269216860, abs=1e-6)


def test_coe_mean_matches_adaptive_quadrature():
    # the constant against scipy's adaptive quadrature
    reference, _ = quad(lambda r: r * float(coe_density(r)), 0.0, 1.0,
                        points=[1e-6], limit=200)
    assert abs(coe_mean() - reference) <= 2e-16


@pytest.mark.parametrize("r", [0.0, 1e-6, 0.1, 0.3, 0.5, 0.77, 0.999, 1.0])
def test_coe_cdf_matches_adaptive_quadrature(r):
    # the closed-form CDF against scipy's adaptive quadrature of the density
    reference, _ = quad(lambda x: float(coe_density(x)), 0.0, r, limit=200)
    assert abs(coe_cdf(r) - reference) <= 1e-13


def test_divergent_transcription_misbehaves():
    # the variant with cos/(2 pi r^2): negative near the origin and far from
    # normalizable, which is why the corrected form is the reference
    assert coe_density_divergent(0.1) < -1.0
    total, _ = quad(lambda r: float(coe_density_divergent(r)), 1e-6, 1,
                    limit=200)
    assert abs(total - 1.0) > 10.0


def test_empirical_coe_sample():
    sample = sample_coe_reference(dim=50, count=500, seed=12345)
    assert 0.51 <= sample.mean() <= 0.54
    # level repulsion: first-decile mass far below the Poisson value
    first_decile = float((sample.ratios < 0.1).mean())
    assert first_decile < poisson_cdf(0.1)
    # deterministic per seed
    again = sample_coe_reference(dim=50, count=500, seed=12345)
    assert np.array_equal(sample.ratios, again.ratios)
    with pytest.raises(ValueError):
        sample_coe_reference(dim=3, count=10)


def test_empirical_coe_matches_closed_form():
    sample = sample_coe_reference(dim=50, count=500, seed=12345)
    assert ks_distance(sample, coe_cdf) < 0.02
    assert abs(sample.mean() - coe_mean()) < 0.01


def test_ks_distance_identity_and_samples():
    rng = np.random.default_rng(10)
    xs = rng.uniform(0, 1, 400)
    assert ks_distance_two_sample(xs, xs) == pytest.approx(0.0)
    sample = RatioSample(np.sort(xs) * 0.999 + 5e-4)
    assert ks_distance_two_sample(sample, sample) == pytest.approx(0.0)


def test_ks_distance_poisson_sampling_oracle():
    # inverse-CDF sampling of 2/(1+r)^2: F(r) = 2r/(1+r) -> r = u/(2-u)
    rng = np.random.default_rng(11)
    u = rng.uniform(0, 1, 10_000)
    draws = u / (2.0 - u)
    assert ks_distance(draws, poisson_cdf) < 0.02
    # the two references are far apart
    coe_sample = sample_coe_reference(dim=50, count=200, seed=1)
    assert ks_distance_two_sample(draws, coe_sample) > 0.1


def test_ks_distance_rejects_empty():
    with pytest.raises(ValueError):
        ks_distance(np.array([]), poisson_cdf)


def test_mean_gap_ratio_separation_of_references():
    coe_sample = sample_coe_reference(dim=50, count=300, seed=2)
    assert coe_sample.mean() - poisson_mean() > 0.1


def _quasienergy_rows(settings, sector, realizations):
    """Sorted quasienergies of ``realizations`` drawn realizations at
    ``boson_cutoff`` = 1, one row each, the zone's omega and the period."""
    run = resolve(RunConfig(sector=sector, boson_cutoff=1,
                            steps_per_period=16, **settings))
    offsets = sample_disorder(run.disorder, np.arange(realizations))
    operators = floquet_operator(run.model, 16, run.model.static_hamiltonians(
        run.model.potential.static_offsets + offsets))
    spectra = quasienergies(operators)
    return (np.array([s.values for s in spectra]), offsets,
            spectra[0].angular_frequency, run.drive.period)


@pytest.mark.parametrize("settings,sectors", [
    (dict(profile="flat", disorder_w_over_j=3.0), (2, 3)),
    (dict(profile="cosine"), (2,)),
    # f not even about T/2: a product of all 4 S6 steps, not V^T V
    (dict(profile="flat", disorder_w_over_j=3.0, drive_phase_rad=0.3), (2,)),
    (dict(profile="table", disorder_w_over_j=3.0), (3,)),
])
def test_hard_core_sectors_are_free_fermion_sums(settings, sectors):
    # at boson_cutoff 1 the chain is free fermions (Jordan-Wigner; Lieb,
    # Schultz and Mattis 1961): H(t) is quadratic, every S6 factor acts on
    # sector n as the n-th exterior power of its sector-1 factor, so sector
    # n's quasienergies are the folded sums of n distinct sector-1 ones
    ones, offsets, omega, period = _quasienergy_rows(settings, 1, 2)
    for sector in sectors:
        rows, same, _, _ = _quasienergy_rows(settings, sector, 2)
        assert np.array_equal(same, offsets)    # the same realizations
        for single, many in zip(ones, rows):
            sums = np.array([sum(c) for c in itertools.combinations(
                single.tolist(), sector)])
            assert len(sums) == len(many)
            # circular distance in the zone, each way
            gap = np.abs(sums[:, None] - many[None, :]) % omega
            gap = np.minimum(gap, omega - gap) * period
            assert gap.min(axis=1).max() <= 1e-12
            assert gap.min(axis=0).max() <= 1e-12
