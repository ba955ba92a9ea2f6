"""Quasienergy spectra, gap-ratio statistics, and reference densities.

Quasienergies are eigenphases of the one-period propagator mapped to
epsilon = -theta/T and folded into (-omega/2, omega/2].  Gap ratios follow
the min/max convention on consecutive gaps of the sorted sequence; no
wrap-around gap is taken across the zone edge.

Two analytic references are provided: the uncorrelated (Poisson) density
2/(1+r)^2 and a closed-form three-level surmise for the circular orthogonal
ensemble, derived by integrating the joint eigenphase density
sin(x/2) sin(y/2) sin(z/2) over the simplex x+y+z = 2*pi.  An empirical COE
sampler doubles as ground truth for the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import NumericalError
from .propagate import FloquetOperator
from .units import TWO_PI

EIGENVALUE_MODULUS_TOL = 1e-9
DEGENERACY_RELATIVE_TOL = 1e-12


@dataclass(frozen=True)
class QuasienergySpectrum:
    """Sorted quasienergies inside one Floquet zone."""

    values: np.ndarray
    angular_frequency: float

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


def quasienergies(floquet: FloquetOperator) -> QuasienergySpectrum:
    """Quasienergies of a Floquet operator, sorted ascending.

    Eigenvalues exp(-i*eps*T) must lie on the unit circle to 1e-9; the
    eigenphase at the zone edge -omega/2 is folded to +omega/2.
    """
    eigenvalues = np.linalg.eigvals(floquet.matrix)
    moduli = np.abs(eigenvalues)
    worst = float(np.abs(moduli - 1.0).max())
    if worst > EIGENVALUE_MODULUS_TOL:
        raise NumericalError(
            f"Floquet eigenvalue modulus deviates from 1 by {worst:.3e}")
    omega = floquet.angular_frequency
    eps = -np.angle(eigenvalues) / floquet.period     # in [-omega/2, omega/2)
    eps = np.where(eps <= -0.5 * omega, eps + omega, eps)
    return QuasienergySpectrum(np.sort(eps), omega)


def _ratios_from_sorted(values: np.ndarray, degeneracy_tol: float):
    gaps = np.diff(values)
    ratios = []
    discarded = 0
    for k in range(len(gaps) - 1):
        small = min(gaps[k], gaps[k + 1])
        large = max(gaps[k], gaps[k + 1])
        if small < degeneracy_tol or large < degeneracy_tol:
            discarded += 1
            continue
        ratios.append(small / large)
    return ratios, discarded


def gap_ratios(spectra) -> RatioSample:
    """Pool min/max consecutive-gap ratios across one or more spectra.

    Gaps come from the sorted linear sequence inside the zone (no
    wrap-around).  Ratios touching a gap below 1e-12*omega are dropped and
    counted in ``discarded_degenerate`` instead of producing 0 or NaN.
    """
    if isinstance(spectra, QuasienergySpectrum):
        spectra = [spectra]
    all_ratios = []
    discarded = 0
    for spec in spectra:
        if spec.dim < 3:
            raise ValueError("need at least 3 levels per spectrum for gap ratios")
        tol = DEGENERACY_RELATIVE_TOL * spec.angular_frequency
        ratios, dropped = _ratios_from_sorted(spec.values, tol)
        all_ratios.extend(ratios)
        discarded += dropped
    return RatioSample(np.asarray(all_ratios), discarded)


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
    """Mean ratio of the closed-form COE surmise by quadrature on [0, 1].

    The integrand is regular at r=0, where the density vanishes.
    """
    value, _ = quad(lambda r: r * float(coe_density(r)), 0.0, 1.0,
                    points=[1e-6], limit=200)
    return value


@lru_cache(maxsize=8)
def _coe_cdf_table(n_points: int = 8193):
    grid = np.linspace(0.0, 1.0, n_points)
    pdf = np.concatenate([[0.0], coe_density(grid[1:])])
    cdf = np.concatenate([[0.0],
                          np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return grid, cdf


def coe_cdf(r) -> np.ndarray:
    """CDF of the closed-form COE surmise (dense-grid trapezoid table)."""
    grid, cdf = _coe_cdf_table()
    return np.interp(np.asarray(r, dtype=float), grid, cdf)


# ---------------------------------------------------------------------------
# empirical COE reference


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_coe_reference(dim: int, count: int, seed: int = 0) -> RatioSample:
    """Gap ratios of ``count`` COE matrices W^T W with W Haar on U(dim).

    Eigenphases are sorted in (-pi, pi] and treated with the same linear
    (no wrap-around) convention as the quasienergies.
    """
    if dim < 4:
        raise ValueError("need dim >= 4 for meaningful ratio statistics")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    all_ratios = []
    discarded = 0
    tol = DEGENERACY_RELATIVE_TOL * TWO_PI
    for _ in range(count):
        w = haar_unitary(dim, rng)
        symmetric_unitary = w.T @ w
        phases = np.sort(np.angle(np.linalg.eigvals(symmetric_unitary)))
        ratios, dropped = _ratios_from_sorted(phases, tol)
        all_ratios.extend(ratios)
        discarded += dropped
    return RatioSample(np.asarray(all_ratios), discarded)


# ---------------------------------------------------------------------------
# distribution distance


def ks_distance(sample, reference) -> float:
    """Sup-norm distance between empirical CDFs (or empirical vs analytic).

    ``sample`` is a RatioSample or a 1-d array; ``reference`` is a callable
    CDF, a RatioSample, or a 1-d array.
    """
    xs = np.sort(np.asarray(sample.ratios if isinstance(sample, RatioSample)
                            else sample, dtype=float))
    if len(xs) == 0:
        raise ValueError("empty sample")
    n = len(xs)
    if callable(reference):
        ref = np.asarray(reference(xs), dtype=float)
        upper = np.abs(np.arange(1, n + 1) / n - ref).max()
        lower = np.abs(np.arange(0, n) / n - ref).max()
        return float(max(upper, lower))
    ys = np.sort(np.asarray(reference.ratios if isinstance(reference, RatioSample)
                            else reference, dtype=float))
    if len(ys) == 0:
        raise ValueError("empty reference sample")
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / n
    cdf_y = np.searchsorted(ys, pooled, side="right") / len(ys)
    return float(np.abs(cdf_x - cdf_y).max())
