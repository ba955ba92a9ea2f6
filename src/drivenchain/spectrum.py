"""Quasienergy spectra, gap-ratio statistics, and reference densities.

Quasienergies are eigenphases of the one-period propagator mapped to
epsilon = -theta/T and folded into (-omega/2, omega/2].  Gap ratios follow
the min/max convention on consecutive gaps of the sorted sequence; no
wrap-around gap is taken across the zone edge.

Two analytic references are provided: the uncorrelated (Poisson) density
2/(1+r)^2 and a closed-form three-level surmise for the circular orthogonal
ensemble, derived by integrating the joint eigenphase density
sin(x/2) sin(y/2) sin(z/2) over the simplex x+y+z = 2*pi.  Its CDF has a
closed form; its mean needs the sine and cosine integrals, so it is a
constant, which the tests check against adaptive quadrature.  The tests
also keep an empirical COE sampler as ground truth for the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .propagate import FloquetOperator, _check_each
from .units import TWO_PI

EIGENVALUE_MODULUS_TOL = 1e-9
#: most |U - U^T| and off-diagonal |O^T U O| where diag(O^T U O) is kept
ROTATION_RESIDUAL_TOL = 1e-10
DEGENERACY_RELATIVE_TOL = 1e-12


@dataclass(frozen=True)
class QuasienergySpectrum:
    """Sorted quasienergies inside one Floquet zone."""

    values: np.ndarray
    angular_frequency: float
    modulus_deviation: float = 0.0  # max ||lambda| - 1| of its eigenvalues
    fallback: bool = False          # its U took np.linalg.eigvals

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, dtype=float))
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        half = 0.5 * self.angular_frequency
        if len(vals) and (vals[0] <= -half - 1e-12 or vals[-1] > half + 1e-12):
            raise ValueError("quasienergies outside the Floquet zone")

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RatioSample:
    """Pooled consecutive-gap ratios r in [0, 1]."""

    ratios: np.ndarray
    discarded_degenerate: int = 0

    def __post_init__(self):
        arr = np.asarray(self.ratios, dtype=float)
        if len(arr) and (arr.min() < 0 or arr.max() > 1 + 1e-12):
            raise ValueError("gap ratios must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "ratios", arr)

    @property
    def count(self) -> int:
        return len(self.ratios)

    def mean(self) -> float:
        return float(self.ratios.mean())


def real_rotation(matrix: np.ndarray) -> np.ndarray:
    """O^T U O for an (R, dim, dim) stack, O the eigenvectors of Re U."""
    vectors = np.linalg.eigh(matrix.real)[1]
    return np.swapaxes(vectors, 1, 2) @ matrix @ vectors


def quasienergies(floquet: FloquetOperator):
    """Quasienergies of a Floquet operator; a tuple of R for an (R, dim, dim) stack.

    Where U is symmetric, Re U and Im U commute, and the eigenvalues are
    diag(O^T U O) with O the real eigenvectors of Re U (Hoffman-Wielandt
    bounds their error by the off-diagonal residual); a U off symmetric or
    diagonal by over ROTATION_RESIDUAL_TOL takes ``np.linalg.eigvals``.
    Eigenvalues exp(-i*eps*T) must lie on the unit circle to 1e-9 (the
    first realization that does not is named); the eigenphase at the zone
    edge -omega/2 is folded to +omega/2.
    """
    matrix = floquet.matrix.reshape(-1, *floquet.matrix.shape[-2:])
    routed = (np.abs(matrix - np.swapaxes(matrix, 1, 2)).max(axis=(1, 2))
              <= ROTATION_RESIDUAL_TOL)
    rotated = real_rotation(matrix[routed])
    eigenvalues = np.empty(matrix.shape[:2], dtype=complex)
    eigenvalues[routed] = np.diagonal(rotated, axis1=1, axis2=2)
    routed[routed] = (np.abs(rotated * (1.0 - np.eye(matrix.shape[-1])))
                      .max(axis=(1, 2)) <= ROTATION_RESIDUAL_TOL)
    eigenvalues[~routed] = np.linalg.eigvals(matrix[~routed])
    deviation = np.abs(np.abs(eigenvalues) - 1.0).max(axis=-1)
    _check_each(deviation, EIGENVALUE_MODULUS_TOL,
                "Floquet eigenvalue modulus deviation")
    omega = floquet.angular_frequency
    eps = -np.angle(eigenvalues) / floquet.period     # in [-omega/2, omega/2)
    eps = np.where(eps <= -0.5 * omega, eps + omega, eps)
    spectra = tuple(QuasienergySpectrum(row, omega, float(worst), not kept)
                    for row, worst, kept in zip(eps, deviation, routed))
    return spectra if floquet.matrix.ndim == 3 else spectra[0]


def spectra_health(spectra) -> dict:
    """The worst eigenvalue-modulus deviation of ``spectra`` with its
    tolerance and their ratio, and how many took ``np.linalg.eigvals``."""
    worst = max(spectrum.modulus_deviation for spectrum in spectra)
    return {"floquet_eigenvalue_modulus": {
                "worst": worst, "tolerance": EIGENVALUE_MODULUS_TOL,
                "ratio": worst / EIGENVALUE_MODULUS_TOL},
            "quasienergy_fallbacks": sum(spectrum.fallback
                                         for spectrum in spectra)}


def _ratios_from_sorted(values: np.ndarray, degeneracy_tol):
    """min/max consecutive-gap ratios along the last axis, row after row.

    Returns the ratios that touch no gap below ``degeneracy_tol`` and the
    count of those that do.
    """
    gaps = np.diff(values, axis=-1)
    small = np.minimum(gaps[..., :-1], gaps[..., 1:])
    large = np.maximum(gaps[..., :-1], gaps[..., 1:])
    kept = small >= degeneracy_tol          # then large >= degeneracy_tol too
    return small[kept] / large[kept], int(kept.size - np.count_nonzero(kept))


def gap_ratios(spectra) -> RatioSample:
    """Pool min/max consecutive-gap ratios across spectra of one size and
    one zone (or a single spectrum).

    Gaps come from the sorted linear sequence inside the zone (no
    wrap-around).  Ratios touching a gap below 1e-12*omega are dropped and
    counted in ``discarded_degenerate`` instead of producing 0 or NaN.
    Ratios keep the order of the spectra and of the levels in each.
    """
    if isinstance(spectra, QuasienergySpectrum):
        spectra = [spectra]
    if len({(spec.dim, spec.angular_frequency) for spec in spectra}) != 1:
        raise ValueError("gap ratios pool spectra of one size and one zone")
    if spectra[0].dim < 3:
        raise ConfigError("gap ratios need a sector with at least 3 states")
    ratios, dropped = _ratios_from_sorted(
        np.stack([spec.values for spec in spectra]),
        DEGENERACY_RELATIVE_TOL * spectra[0].angular_frequency)
    return RatioSample(ratios, dropped)


# ---------------------------------------------------------------------------
# reference densities


def poisson_density(r) -> np.ndarray:
    """Gap-ratio density 2/(1+r)^2 of an uncorrelated (Poisson) spectrum."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > 1):
        raise ValueError("gap ratio must lie in [0, 1]")
    return 2.0 / (1.0 + r) ** 2


def poisson_cdf(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return 2.0 * r / (1.0 + r)


def poisson_mean() -> float:
    """Exact mean ratio of the Poisson reference, 2*ln(2) - 1."""
    return 2.0 * np.log(2.0) - 1.0


def coe_density(r) -> np.ndarray:
    """Three-level circular-orthogonal surmise for the gap-ratio density.

    Vanishes linearly at r=0 (level repulsion) and integrates to 1 on
    [0, 1]; agreement with the empirical sampler is checked in the tests.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0) or np.any(r > 1):
        raise ValueError("closed form is defined for r in (0, 1]")
    u = TWO_PI * r / (r + 1.0)
    v = TWO_PI / (r + 1.0)
    return (2.0 / 3.0) * (np.sin(u) / (TWO_PI * r ** 2) + 1.0 / (1.0 + r) ** 2
                          + np.sin(v) / TWO_PI
                          - np.cos(v) / (1.0 + r)
                          - np.cos(u) / (r * (r + 1.0)))


def coe_mean() -> float:
    """Mean ratio of the closed-form COE surmise on [0, 1] to double
    precision; the tests check it against adaptive quadrature."""
    return 0.5269216860199516


def coe_cdf(r) -> np.ndarray:
    """CDF of the closed-form COE surmise, exact on [0, 1].

    The antiderivative of :func:`coe_density` (with u + v = 2*pi, so
    sin v = -sin u and cos v = cos u) is
    4/3 - 2/(3(1+r)) - (2/3)(1+r) sinc(2r/(1+r)), sinc(x) = sin(pi x)/(pi x),
    which is finite at r = 0.
    """
    r = np.asarray(r, dtype=float)
    return (4.0 / 3.0 - 2.0 / (3.0 * (1.0 + r))
            - (2.0 / 3.0) * (1.0 + r) * np.sinc(2.0 * r / (1.0 + r)))


# ---------------------------------------------------------------------------
# distribution distance


def ks_distance(sample, cdf) -> float:
    """Sup-norm distance between an empirical CDF and an analytic ``cdf``.

    ``sample`` is a RatioSample or a 1-d array; ``cdf`` is a callable.
    """
    xs = np.sort(np.asarray(sample.ratios if isinstance(sample, RatioSample)
                            else sample, dtype=float))
    if len(xs) == 0:
        raise ValueError("empty sample")
    n = len(xs)
    ref = np.asarray(cdf(xs), dtype=float)
    upper = np.abs(np.arange(1, n + 1) / n - ref).max()
    lower = np.abs(np.arange(0, n) / n - ref).max()
    return float(max(upper, lower))
