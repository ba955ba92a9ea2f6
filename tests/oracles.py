"""Reference implementations the tests compare the package against.

None of these is on a path the command line runs.  Most are an
independent second way to compute something the package computes.  A few
(``sector_diagonal``, ``sector_hamiltonian``, ``czz_expectation``,
``populations``, ``monodromy_matrix`` and ``monodromy_trace``) are
single-input views of package internals that only the tests call,
``uniform_chain`` builds the tests' one-coupling chains,
``sample_disorder_loop`` is the per-site generator loop the vectorized
disorder draws replaced, kept as their oracle, and
``coe_density_divergent`` is a known-bad transcription kept to document
why it is bad.  ``monodromy_resolution`` refines the monodromy's one step
rule inside a block.  ``serial_half_period_monodromy`` is the
package's monodromy loop written serially, kept to pin its one-chunk path
bit for bit, and ``yoshida_full_period_monodromy`` is the package's former
monodromy scheme, kept as a converged reference at 8x the steps.  They
live here so that the package carries only what its
pipelines use.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from drivenchain.basis import SectorBasis
from drivenchain.errors import NumericalError
from drivenchain.hamiltonian import SectorModel
from drivenchain.model import ChainSpec, DisorderSpec, DriveSpec, PotentialSpec
from drivenchain.observables import _check_pair, _czz
from drivenchain.propagate import (BLANES_MOAN_S6, UNITARITY_TOL, YOSHIDA,
                                   FloquetOperator, _advance, _check_each,
                                   floquet_operator, unitarity_defect)
from drivenchain import semiclassical
from drivenchain.semiclassical import (SRKN_DRIFTS, SRKN_KICKS,
                                       SemiclassicalParams,
                                       _check_determinants, _monodromy_batch)
from drivenchain.spectrum import (DEGENERACY_RELATIVE_TOL, RatioSample,
                                  _ratios_from_sorted)
from drivenchain.units import TWO_PI

_PROBABILITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# uniform chains and site frequencies


def uniform_chain(n_sites: int, coupling: float,
                  onsite_nonlinearity: float = 0.0) -> ChainSpec:
    """Chain with one common nearest-neighbour coupling (rad/ns)."""
    return ChainSpec(n_sites, np.full(n_sites - 1, float(coupling)),
                     onsite_nonlinearity)


def sample_disorder_loop(spec: DisorderSpec,
                         realization_index: int) -> np.ndarray:
    """Disorder offsets of one realization, one numpy generator per site:
    the loop that ``drivenchain.model.sample_disorders`` reproduces."""
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


def diagonal_frequencies(t: float, drive: DriveSpec,
                         potential: PotentialSpec) -> np.ndarray:
    """All N offsets g_l(t) - gbar at time t, in rad/ns."""
    return potential.static_offsets + drive.modulation(t) * drive.spatial_weights


# ---------------------------------------------------------------------------
# instantaneous sector Hamiltonian


def sector_diagonal(model: SectorModel, t: float) -> np.ndarray:
    """Diagonal of H(t): the static diagonal plus f(t) D."""
    static = np.diagonal(model.static_hamiltonians()[0])
    return static + model.drive.modulation(t) * model.drive_diagonal


def sector_hamiltonian(model: SectorModel, t: float) -> np.ndarray:
    """H(t) = H0 + f(t) D; the hopping has no diagonal entries."""
    h = model.hopping.astype(complex)
    np.fill_diagonal(h, sector_diagonal(model, t))
    return h


# ---------------------------------------------------------------------------
# populations and the counting ZZ estimator


def populations(amplitudes: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Per-site mean occupation <n_l>, length N."""
    return np.abs(amplitudes) ** 2 @ basis.states


@dataclass(frozen=True)
class JointProbabilities:
    """Binary joint and marginal occupation probabilities for a site pair."""

    p00: float
    p01: float
    p10: float
    p11: float
    p0_i: float
    p1_i: float
    p0_j: float
    p1_j: float


def joint_probabilities(amplitudes: np.ndarray, basis: SectorBasis,
                        site_i: int, site_j: int) -> JointProbabilities:
    """P_ab(i, j) with a, b in {0, 1}; occupation >= 1 counts as "one"."""
    _check_pair(basis, site_i, site_j)
    weights = np.abs(amplitudes) ** 2
    occ_i = basis.states[:, site_i - 1] >= 1
    occ_j = basis.states[:, site_j - 1] >= 1
    p11 = float(weights[occ_i & occ_j].sum())
    p10 = float(weights[occ_i & ~occ_j].sum())
    p01 = float(weights[~occ_i & occ_j].sum())
    p00 = float(weights[~occ_i & ~occ_j].sum())
    return JointProbabilities(p00, p01, p10, p11,
                              p0_i=p00 + p01, p1_i=p10 + p11,
                              p0_j=p00 + p10, p1_j=p01 + p11)


def czz_from_counts(p00: float, p01: float, p10: float, p11: float,
                    p0_i: float, p1_i: float, p0_j: float, p1_j: float) -> float:
    """ZZ correlation from counting probabilities.

    C = P00 + P11 - P01 - P10 - (P0(i) - P1(i)) (P0(j) - P1(j)).
    """
    total = p00 + p01 + p10 + p11
    if abs(total - 1.0) > _PROBABILITY_TOL:
        raise ValueError(f"joint probabilities sum to {total}, not 1")
    for name, joint, marg in (("i", p10 + p11, p1_i), ("j", p01 + p11, p1_j)):
        if abs(joint - marg) > _PROBABILITY_TOL:
            raise ValueError(f"marginal of site {name} inconsistent with joints")
    if abs(p0_i + p1_i - 1.0) > _PROBABILITY_TOL or abs(p0_j + p1_j - 1.0) > _PROBABILITY_TOL:
        raise ValueError("marginals do not sum to 1")
    return (p00 + p11 - p01 - p10) - (p0_i - p1_i) * (p0_j - p1_j)


def czz_expectation(amplitudes: np.ndarray, basis: SectorBasis,
                    site_i: int, site_j: int) -> float:
    """ZZ correlation as <sz_i sz_j> - <sz_i><sz_j> with sz = 2*[n>=1] - 1."""
    return float(_czz(np.abs(amplitudes) ** 2, basis, site_i, site_j))


def czz(amplitudes: np.ndarray, basis: SectorBasis, site_i: int,
        site_j: int) -> float:
    """ZZ correlation via the counting estimator."""
    jp = joint_probabilities(amplitudes, basis, site_i, site_j)
    return czz_from_counts(jp.p00, jp.p01, jp.p10, jp.p11,
                           jp.p0_i, jp.p1_i, jp.p0_j, jp.p1_j)


# ---------------------------------------------------------------------------
# gap ratios and the empirical COE reference


def ratios_from_sorted_loop(values: np.ndarray, degeneracy_tol: float):
    """Gap ratios of a sorted sequence, one consecutive gap pair at a time."""
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


def ks_distance_two_sample(sample, reference) -> float:
    """Sup-norm distance between the empirical CDFs of two samples.

    Each argument is a RatioSample or a 1-d array.
    """
    xs, ys = (np.sort(np.asarray(s.ratios if isinstance(s, RatioSample) else s,
                                 dtype=float)) for s in (sample, reference))
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("empty sample")
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / len(xs)
    cdf_y = np.searchsorted(ys, pooled, side="right") / len(ys)
    return float(np.abs(cdf_x - cdf_y).max())


# ---------------------------------------------------------------------------
# COE surmise, divergent transcription


def coe_density_divergent(r) -> np.ndarray:
    """Variant transcription of the surmise with cos(v)/(2*pi*r^2) in place
    of cos(v)/(1+r).

    Kept only as a comparison reference: it diverges to -infinity as r -> 0
    and is not normalizable, which the tests document against the empirical
    sampler.  Use :func:`drivenchain.spectrum.coe_density` for anything
    quantitative.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0) or np.any(r > 1):
        raise ValueError("closed form is defined for r in (0, 1]")
    u = TWO_PI * r / (r + 1.0)
    v = TWO_PI / (r + 1.0)
    return (2.0 / 3.0) * (np.sin(u) / (TWO_PI * r ** 2) + 1.0 / (1.0 + r) ** 2
                          + np.sin(v) / TWO_PI
                          - np.cos(v) / (TWO_PI * r ** 2)
                          - np.cos(u) / (r * (r + 1.0)))


# ---------------------------------------------------------------------------
# Floquet operator: full-period product and step-count probe


def full_period_floquet(model: SectorModel, h0: np.ndarray, steps: int,
                        scheme=BLANES_MOAN_S6) -> FloquetOperator:
    """One-period propagators of an ``h0`` stack, ``steps`` steps of the
    splitting ``scheme`` over the whole period.

    The product the package built before it used time-reversal symmetry:
    the same core, but no transpose palindrome assumed, so it holds for any
    drive phase and step count.
    """
    period = model.drive.period
    dim = model.basis.dim
    block = np.broadcast_to(np.eye(dim, dtype=complex), (len(h0), dim, dim))
    matrices = _advance(model, h0, block, scheme, period / steps, steps,
                        [steps])[0]
    _check_each(unitarity_defect(matrices), UNITARITY_TOL,
                "propagator unitarity defect")
    return FloquetOperator(matrices, period)


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of the step-count probe for the Floquet operator."""

    steps_per_period: int
    observed_order: float
    errors: tuple               # (steps, |F_steps - F_2*steps|_max) pairs


def convergence_probe(model: SectorModel, tol: float, start: int = 16,
                      max_steps: int = 1 << 15) -> ConvergenceReport:
    """Smallest power-of-two step count whose halving changes F by < tol.

    The split-operator scheme converges at fourth order, so successive
    errors should shrink by about 16x per doubling; the observed order is
    reported for diagnosis.  Raises if the error floor (roundoff) is reached
    before the tolerance.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    steps = max(1, int(start))
    f_coarse = floquet_operator(model, steps).matrix
    errors = []
    while steps <= max_steps:
        f_fine = floquet_operator(model, 2 * steps).matrix
        err = float(np.abs(f_coarse - f_fine).max())
        errors.append((steps, err))
        if err < tol:
            orders = [np.log2(errors[i][1] / errors[i + 1][1])
                      for i in range(len(errors) - 1)]
            observed = float(np.mean(orders)) if orders else float("nan")
            return ConvergenceReport(steps, observed, tuple(errors))
        if len(errors) >= 2 and err > 0.5 * errors[-2][1] and err < 1e-12:
            break
        f_coarse = f_fine
        steps *= 2
    raise NumericalError(
        f"step probe failed to reach tolerance {tol} below {max_steps} "
        f"steps/period; last error {errors[-1][1]:.3e}")


# ---------------------------------------------------------------------------
# classical trajectories


def classical_rhs(q: float, p: float, t: float, params: SemiclassicalParams,
                  *, ac: float = 0.0, omega: float = 1.0) -> tuple:
    """Scaled canonical equations of motion (dQ/dt, dP/dt) under the drive
    d0 + ac*cos(omega*t); undriven by default."""
    n = params.n_sites
    modulation = params.dc_amplitude + ac * math.cos(omega * t)
    dq = -(8.0 * np.pi * params.hopping / n) * math.sin(p)
    dp = (4.0 * np.pi / n) * modulation * math.sin(q)
    return dq, dp


@dataclass(frozen=True)
class Trajectory:
    """Phase-space samples of one integrated orbit."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray


def integrate_trajectory(q0: float, p0: float, duration: float, step: float,
                         params: SemiclassicalParams, *, ac: float = 0.0,
                         omega: float = 1.0) -> Trajectory:
    """Fixed-step fourth-order (RK4) integration from t = 0 under the drive
    d0 + ac*cos(omega*t); undriven by default."""
    drive = dict(ac=ac, omega=omega)
    if step <= 0:
        raise ValueError("step must be positive")
    n_steps = int(round(duration / step))
    times = np.empty(n_steps + 1)
    qs = np.empty(n_steps + 1)
    ps = np.empty(n_steps + 1)
    q, p = float(q0), float(p0)
    times[0], qs[0], ps[0] = 0.0, q, p
    for k in range(n_steps):
        t = k * step
        k1q, k1p = classical_rhs(q, p, t, params, **drive)
        k2q, k2p = classical_rhs(q + 0.5 * step * k1q, p + 0.5 * step * k1p,
                                 t + 0.5 * step, params, **drive)
        k3q, k3p = classical_rhs(q + 0.5 * step * k2q, p + 0.5 * step * k2p,
                                 t + 0.5 * step, params, **drive)
        k4q, k4p = classical_rhs(q + step * k3q, p + step * k3p,
                                 t + step, params, **drive)
        q += step / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        p += step / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        times[k + 1], qs[k + 1], ps[k + 1] = t + step, q, p
    return Trajectory(times, qs, ps)


# ---------------------------------------------------------------------------
# monodromy of single cells and the full-period integrator


@contextmanager
def monodromy_resolution(min_steps: int):
    """Inside the block, the monodromy takes ``min_steps`` steps per drive
    period or per oscillation, whichever is shorter (the package's
    MIN_STEPS_PER_OSCILLATION); usable under hypothesis's ``@given``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semiclassical, "MIN_STEPS_PER_OSCILLATION", min_steps)
        yield


def monodromy_matrix(omega: float, delta1: float, params: SemiclassicalParams
                     ) -> np.ndarray:
    """One-period monodromy matrix of the linearized flow (2x2)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return _monodromy_batch(np.array([omega], dtype=float),
                            np.array([delta1], dtype=float), params)[0][0]


def monodromy_trace(omega: float, delta1: float, params: SemiclassicalParams
                    ) -> float:
    """|tr M| of the one-period monodromy; stable iff |tr M| <= 2."""
    m = monodromy_matrix(omega, delta1, params)
    _check_determinants(m)
    return float(abs(np.trace(m)))


def _linearized_shears(omega, delta1, params: SemiclassicalParams,
                       steps: int):
    """Identity matrices and in-place kick(t, weight) and drift(weight)
    shears of the linearized flow, over the step h = T / steps."""
    n_sites = params.n_sites
    a = 8.0 * np.pi * params.hopping / n_sites
    c0 = 4.0 * np.pi / n_sites
    h = (TWO_PI / omega) / steps

    m = np.zeros(omega.shape + (2, 2))
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = 1.0

    def kick(t, weight):
        c = c0 * (params.dc_amplitude + delta1 * np.cos(omega * t))
        m[..., 1, :] += (weight * h * c)[..., None] * m[..., 0, :]

    def drift(weight):
        m[..., 0, :] += (-a * weight * h)[..., None] * m[..., 1, :]

    return m, h, kick, drift


def full_period_monodromy(omega, delta1, params: SemiclassicalParams,
                          steps: int) -> np.ndarray:
    """SRKN6b over the whole period, one shear of the palindrome at a time.

    The linearized flow
        d(dQ)/dt = -a * dP,      a = 8*pi*J/N,
        d(dP)/dt = c(t) * dQ,    c(t) = (4*pi/N) * [d0 + d1*cos(omega*t)],
    is split into kicks of dP at the current time and drifts of dQ that
    advance the time; each step is B1 A1 B2 A2 B3 A3 B4 A3 B3 A2 B2 A1 B1.
    Nothing is merged, no symmetry is used, and cos(omega*t) is evaluated
    per cell at the accumulated time: the independent second way to
    compute what the half-period integrator of ``drivenchain.semiclassical``
    returns.
    """
    m, h, kick, drift = _linearized_shears(omega, delta1, params, steps)
    b1, b2, b3, b4 = SRKN_KICKS
    a1, a2, a3 = SRKN_DRIFTS
    kicks = (b1, b2, b3, b4, b3, b2, b1)
    drifts = (a1, a2, a3, a3, a2, a1, 0.0)
    t = np.zeros_like(omega)
    for _ in range(steps):
        for b, a in zip(kicks, drifts):
            kick(t, b)
            if a:
                drift(a)
                t = t + a * h
    return m


def yoshida_full_period_monodromy(omega, delta1, params: SemiclassicalParams,
                                  steps: int) -> np.ndarray:
    """Yoshida triple jump over the whole period, a converged reference.

    The package's former scheme: each step composes three Strang steps
    (half kick, drift, half kick) with the weights (w1, w0, w1).  At equal
    step counts its error in tr M is hundreds of times SRKN6b's, so it
    serves as a reference only at >= 8x the step count it is compared with.
    """
    m, h, kick, drift = _linearized_shears(omega, delta1, params, steps)
    t = np.zeros_like(omega)
    for _ in range(steps):
        for w in YOSHIDA.drifts:
            kick(t, 0.5 * w)
            drift(w)
            t = t + w * h
            kick(t, 0.5 * w)
    return m


def serial_half_period_monodromy(omega, delta1, params: SemiclassicalParams,
                                 steps: int) -> np.ndarray:
    """The half-period integrator as one serial loop over the half period.

    ``drivenchain.semiclassical._integrate_group`` with one chunk must
    reproduce it bit for bit: the same merged B1 kicks at step boundaries,
    and T/2 splitting the last of them, one kick strength at a time.  The
    step count is even, as every count the package integrates is.
    """
    n_sites = params.n_sites
    a = 8.0 * np.pi * params.hopping / n_sites
    c0 = 4.0 * np.pi / n_sites
    dc = c0 * params.dc_amplitude
    h = (TWO_PI / omega) / steps
    b1, b2, b3, b4 = SRKN_KICKS
    a1, a2, a3 = SRKN_DRIFTS
    half = steps // 2

    kicks = (b2, b3, b4, b3, b2, 2.0 * b1)
    drifts = (a1, a2, a3, a3, a2, a1)
    instants = np.array([a1, a1 + a2, 0.5, 1.0 - a1 - a2, 1.0 - a1, 1.0])
    cosines = np.cos(TWO_PI * (np.arange(half)[:, None] + instants) / steps)
    ac_h = c0 * delta1 * h

    q = np.zeros((2,) + omega.shape)
    p = np.zeros_like(q)
    q[0] = 1.0
    p[1] = 1.0
    kappa = np.empty_like(omega)
    tmp = np.empty_like(q)

    def kick(weight, cos):
        np.multiply(ac_h, weight * cos, out=kappa)
        np.add(kappa, (weight * dc) * h, out=kappa)
        np.multiply(q, kappa, out=tmp)
        np.add(p, tmp, out=p)

    def drift(weight):
        np.multiply(p, (-a * weight) * h, out=tmp)
        np.add(q, tmp, out=q)

    kick(b1, 1.0)
    for k in range(half):
        for j, (b, w) in enumerate(zip(kicks, drifts)):
            drift(w)
            if k + 1 == half and j == 5:
                b = b1
            kick(b, cosines[k, j])

    (h11, h12), (h21, h22) = q, p
    m = np.empty(omega.shape + (2, 2))
    m[..., 0, 0] = h11 * h22 + h12 * h21
    m[..., 1, 1] = m[..., 0, 0]
    m[..., 0, 1] = 2.0 * h12 * h22
    m[..., 1, 0] = 2.0 * h11 * h21
    return m
