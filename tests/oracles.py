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
why it is bad.  ``eigvals_quasienergies`` is the general eigensolver route
the quasienergies took before the real symmetric one, and
``cos_degenerate_unitary`` builds a matrix the real route must hand to it.
``monodromy_resolution`` refines the monodromy's one step
rule inside a block, and ``scaled_cells`` gives cells in the (nu, eps)
units the monodromy integrator takes.  ``serial_recurrence_monodromy`` is
the package's monodromy recurrence written serially, kept to pin its
one-chunk path bit for bit; ``serial_half_period_monodromy`` is the same
scheme in the shear form the package stepped before.
``mathieu_stable`` classifies monodromy cells from Mathieu's characteristic
values, sharing no code with the integrator.
``serial_grid_states`` is the serial state scan the package ran before
it read states off the Floquet product's prefixes.
``yoshida_full_period_monodromy`` and ``SRKN6B_KICKS`` /
``SRKN6B_DRIFTS`` are the package's two former monodromy schemes, kept as
references for the current one, and ``yoshida_full_period_floquet`` is
the Yoshida product the package's states stepped with before S6, kept as
the bar the S6 product must clear.  They live here so that the package
carries only what its pipelines use.
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
from drivenchain.propagate import (S6_SUBSTEPS, UNITARITY_TOL, FloquetOperator,
                                   _advance, _check_each, floquet_operator,
                                   unitarity_defect)
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
    the loop that ``drivenchain.model.sample_disorder`` reproduces."""
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


def cos_degenerate_unitary(dim: int, theta: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Q diag(e^{i theta}, e^{-i theta}, e^{i phi_3}, ...) Q^T with Q real
    orthogonal: a symmetric unitary whose Re U has cos(theta) twice."""
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    phases = np.concatenate([[theta, -theta],
                             rng.uniform(-np.pi, np.pi, dim - 2)])
    return (q * np.exp(1j * phases)) @ q.T


def eigvals_quasienergies(matrix: np.ndarray, period: float) -> np.ndarray:
    """Sorted folded quasienergies from ``np.linalg.eigvals`` of a Floquet
    matrix or stack: the route every matrix took before the real one."""
    omega = TWO_PI / period
    eps = -np.angle(np.linalg.eigvals(matrix)) / period
    return np.sort(np.where(eps <= -0.5 * omega, eps + omega, eps), axis=-1)


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


def full_period_floquet(model: SectorModel, h0: np.ndarray,
                        steps: int) -> FloquetOperator:
    """One-period propagators of an ``h0`` stack, ``steps`` S6 steps over
    the whole period.

    The product the package built before it used time-reversal symmetry:
    the same core, but no transpose palindrome assumed, so it holds for any
    drive phase and step count.
    """
    period = model.drive.period
    dim = model.basis.dim
    block = np.broadcast_to(np.eye(dim, dtype=complex), (len(h0), dim, dim))
    matrices = _advance(model, np.linalg.eigh(h0), block, period / steps,
                        steps, [steps])[:, 0]
    _check_each(unitarity_defect(matrices), UNITARITY_TOL,
                "propagator unitarity defect")
    return FloquetOperator(matrices, period)


def serial_grid_states(model: SectorModel, h0: np.ndarray, psi0: np.ndarray,
                       t_samples, step: float):
    """(times, (R, time, dim) amplitudes) of psi0 under an ``h0`` stack,
    stepped serially through every S6 grid step up to the last sample.

    The state scan the package ran before it read grid states off the
    Floquet product: samples snap to n = S6_SUBSTEPS g + l multiples of
    ``step``, the block of states takes g S6 steps of S6_SUBSTEPS ``step``
    as a (R, dim, 1) matrix-vector scan, and a sample with l > 0 takes one
    side step of l ``step`` from the grid, batched over the samples that
    share l.  At the step :func:`drivenchain.propagate.state_grid` rounds
    ``step`` to, it takes the package's grid and side steps.
    """
    requested = np.asarray(list(t_samples), dtype=float)
    psi0 = np.asarray(psi0, dtype=complex)
    sample_steps = np.rint(requested / step).astype(int)
    grid, rest = np.divmod(sample_steps, S6_SUBSTEPS)
    block = np.broadcast_to(psi0[:, None], (len(h0), len(psi0), 1))
    grid_step = S6_SUBSTEPS * step
    eigh = np.linalg.eigh(h0)
    states = _advance(model, eigh, block, grid_step, int(grid[-1]),
                      grid)[..., 0].swapaxes(0, 1)
    for l in np.unique(rest[rest > 0]):
        columns = np.flatnonzero(rest == l)
        states[columns] = _advance(
            model, eigh, states[columns].transpose(1, 2, 0), l * step, 1, [1],
            grid[columns] * grid_step)[:, 0].transpose(2, 0, 1)
    return sample_steps * step, states.swapaxes(0, 1)


#: Yoshida's triple jump (w1, w0, w1): three Strang steps make one step of
#: fourth order
_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
YOSHIDA_WEIGHTS = (_YOSHIDA_W1, 1.0 - 2.0 * _YOSHIDA_W1, _YOSHIDA_W1)


def yoshida_full_period_floquet(model: SectorModel, h0: np.ndarray,
                                steps: int) -> np.ndarray:
    """One-period propagators of an ``h0`` stack, ``steps`` Yoshida steps.

    Each step is three Strang steps exp(-i w h f D/2) exp(-i w h H0)
    exp(-i w h f D/2) with the weights YOSHIDA_WEIGHTS, f frozen at each
    stage's midpoint: the steps the package's states took before S6.
    """
    h = model.drive.period / steps
    lam, vec = np.linalg.eigh(h0)
    flows = {w: (vec * np.exp(-1j * w * h * lam)[..., None, :])
             @ vec.swapaxes(-1, -2) for w in set(YOSHIDA_WEIGHTS)}
    midpoints = np.cumsum(YOSHIDA_WEIGHTS) - 0.5 * np.array(YOSHIDA_WEIGHTS)
    u = np.broadcast_to(np.eye(model.basis.dim, dtype=complex),
                        h0.shape).copy()
    for k in range(steps):
        for w, mid in zip(YOSHIDA_WEIGHTS, midpoints):
            f = model.drive.modulation((k + mid) * h)
            half = np.exp(-0.5j * w * h * f * model.drive_diagonal)[:, None]
            u = half * (flows[w] @ (half * u))
    return u


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


def scaled_cells(omega, delta1, params: SemiclassicalParams) -> tuple:
    """Cells (omega, delta1) of ``params`` as the flat arrays (nu, eps) =
    (omega / Omega, delta1 / d0) the monodromy integrator takes, divided
    as ``stability_grid`` divides them; the inputs broadcast together."""
    omega, delta1 = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                        np.asarray(delta1, dtype=float))
    return (omega.ravel() / params.small_oscillation_frequency,
            delta1.ravel() / params.dc_amplitude)


def monodromy_matrix(omega: float, delta1: float, params: SemiclassicalParams
                     ) -> np.ndarray:
    """One-period monodromy matrix of the linearized flow (2x2), in units
    of Omega as the package integrates it."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return _monodromy_batch(*scaled_cells(omega, delta1, params))[0][0]


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


#: SRKN6b of Blanes and Moan (2002), the package's former fourth-order
#: monodromy scheme: one step is the palindrome
#: B1 A1 B2 A2 B3 A3 B4 A3 B3 A2 B2 A1 B1, with a kick in the middle
_B1, _B2, _B3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
_A1, _A2 = 0.245298957184271, 0.604872665711080
SRKN6B_KICKS = (_B1, _B2, _B3, 1.0 - 2.0 * (_B1 + _B2 + _B3))
SRKN6B_DRIFTS = (_A1, _A2, 0.5 - _A1 - _A2)


def step_shears(kicks, drifts) -> list:
    """One step of a palindromic kick-drift scheme as (is_kick, weight)
    shears: B1 A1 B2 A2 ... up to the last weight of either tuple, then
    mirrored about it.  ``kicks`` has as many weights as ``drifts`` (a
    drift in the middle, as SRKN11b) or one more (a kick, as SRKN6b)."""
    if not 0 <= len(kicks) - len(drifts) <= 1:
        raise ValueError("kicks and drifts do not alternate")
    half = []
    for j, b in enumerate(kicks):
        half.append((True, b))
        if j < len(drifts):
            half.append((False, drifts[j]))
    return half + half[-2::-1]


def full_period_monodromy(omega, delta1, params: SemiclassicalParams,
                          steps: int, kicks=SRKN_KICKS,
                          drifts=SRKN_DRIFTS) -> np.ndarray:
    """A palindromic RKN scheme over the whole period, one shear at a time.

    The linearized flow
        d(dQ)/dt = -a * dP,      a = 8*pi*J/N,
        d(dP)/dt = c(t) * dQ,    c(t) = (4*pi/N) * [d0 + d1*cos(omega*t)],
    is split into kicks of dP at the current time and drifts of dQ that
    advance the time; each step is the palindrome of ``step_shears``, by
    default the package's SRKN11b B1 A1 ... B6 A6 B6 ... A1 B1.  Nothing
    is merged, no symmetry is used, and cos(omega*t) is evaluated per cell
    at the accumulated time: the independent second way to compute what
    the half-period integrator of ``drivenchain.semiclassical`` returns.
    """
    m, h, kick, drift = _linearized_shears(omega, delta1, params, steps)
    shears = step_shears(kicks, drifts)
    t = np.zeros_like(omega)
    for _ in range(steps):
        for is_kick, w in shears:
            if is_kick:
                kick(t, w)
            else:
                drift(w)
                t = t + w * h
    return m


def yoshida_full_period_monodromy(omega, delta1, params: SemiclassicalParams,
                                  steps: int) -> np.ndarray:
    """Yoshida triple jump over the whole period, a converged reference.

    The package's first monodromy scheme: each step composes three Strang
    steps (half kick, drift, half kick) with the weights (w1, w0, w1).  It
    is fourth order with an error constant hundreds of times SRKN6b's, so
    it serves as a reference for SRKN11b only at >= 32x the step count it
    is compared with.
    """
    m, h, kick, drift = _linearized_shears(omega, delta1, params, steps)
    t = np.zeros_like(omega)
    for _ in range(steps):
        for w in YOSHIDA_WEIGHTS:
            kick(t, 0.5 * w)
            drift(w)
            t = t + w * h
            kick(t, 0.5 * w)
    return m


def _half_period_step(nu, steps: int, kicks, drifts):
    """A step of the half-period integrators after the opening B1, as
    (drift, kick) pairs ending on the merged 2 B1, and the kick cosines
    by step and pair; also the step h in units of 1/Omega."""
    shears = step_shears(kicks, drifts)[1:]
    step_drifts = [w for _, w in shears[0::2]]
    step_kicks = [w for _, w in shears[1::2]]
    step_kicks[-1] = 2.0 * kicks[0]
    instants = np.cumsum(step_drifts)
    instants[-1] = 1.0
    cosines = np.cos(TWO_PI * (np.arange(steps // 2)[:, None] + instants)
                     / steps)
    h = (TWO_PI / nu) / steps
    return step_drifts, step_kicks, cosines, h


def _full_period_from_half(q, p) -> np.ndarray:
    """M = R adj(H) R H from the half-period product's rows (q, p)."""
    (h11, h12), (h21, h22) = q, p
    m = np.empty(h11.shape + (2, 2))
    m[..., 0, 0] = h11 * h22 + h12 * h21
    m[..., 1, 1] = m[..., 0, 0]
    m[..., 0, 1] = 2.0 * h12 * h22
    m[..., 1, 0] = 2.0 * h11 * h21
    return m


def serial_half_period_monodromy(nu, eps, steps: int, kicks=SRKN_KICKS,
                                 drifts=SRKN_DRIFTS) -> np.ndarray:
    """The half-period integrator in shear form, as one serial loop.

    The same flow in units of Omega as
    ``drivenchain.semiclassical._integrate_group`` (x' = -p, p' = (1 +
    eps cos(nu tau)) x, cells given as ``scaled_cells`` gives them), the
    same merged B1 kicks at step boundaries, kicks at the cumulative
    drifts with the last at exactly 1, and T/2 splitting the last merged
    kick, but stepping x and p shear by shear, one kick strength at a
    time.  The step count is even, as every count the package integrates
    is.  Any palindrome of ``step_shears`` runs, SRKN6b's too.
    """
    step_drifts, step_kicks, cosines, h = _half_period_step(
        nu, steps, kicks, drifts)
    eps_h = eps * h

    q = np.zeros((2,) + nu.shape)
    p = np.zeros_like(q)
    q[0] = 1.0
    p[1] = 1.0
    kappa = np.empty_like(nu)
    tmp = np.empty_like(q)

    def kick(weight, cos):
        np.multiply(eps_h, weight * cos, out=kappa)
        np.add(kappa, weight * h, out=kappa)
        np.multiply(q, kappa, out=tmp)
        np.add(p, tmp, out=p)

    def drift(weight):
        np.multiply(p, -weight * h, out=tmp)
        np.add(q, tmp, out=q)

    kick(kicks[0], 1.0)
    last = len(step_kicks) - 1
    for k in range(steps // 2):
        for j, (b, w) in enumerate(zip(step_kicks, step_drifts)):
            drift(w)
            if k + 1 == steps // 2 and j == last:
                b = kicks[0]
            kick(b, cosines[k, j])
    return _full_period_from_half(q, p)


def serial_recurrence_monodromy(nu, eps, steps: int) -> np.ndarray:
    """The package's half-period recurrence on positions, as one serial
    loop.

    ``drivenchain.semiclassical._integrate_group`` with one chunk must
    reproduce it bit for bit on the same (nu, eps) cells: x_m = c_m u_m is
    the x = dQ after drift m, and u_{m+1} = alpha_m u_m - u_{m-1} with the
    scales c_m (c_0 = c_1 = 1, c_{m+1} = r_m c_{m-1}, r_m = w_{m+1} / w_m,
    repeating after two steps), one alpha at a time from SRKN_KICKS and
    SRKN_DRIFTS.  p is
    rebuilt from the last two positions and the last kick.  The shear
    form, ``serial_half_period_monodromy``, is the same scheme to roundoff.
    """
    step_drifts, step_kicks, cosines, h = _half_period_step(
        nu, steps, SRKN_KICKS, SRKN_DRIFTS)
    b1 = SRKN_KICKS[0]
    eps_h = eps * h
    eps_hh = h * eps_h
    hh = h * h
    pairs = len(step_drifts)

    def w(m):                                       # drift m's weight
        return step_drifts[(m - 1) % pairs]

    period = 2 * pairs
    c = [1.0, 1.0]
    for m in range(1, period - 1):
        c.append(w(m + 1) / w(m) * c[m - 1])

    f = -w(1) * h
    x_prev = np.zeros((2,) + nu.shape)
    x_prev[0] = 1.0
    x = np.empty_like(x_prev)
    x[0] = 1.0
    x[1] = f
    x[0] += f * (b1 * (h + eps_h))
    end = pairs * (steps // 2)
    for m in range(1, end):
        k, j = divmod(m - 1, pairs)
        scale = c[m % period] / c[(m + 1) % period]
        gain = -(w(m + 1) * step_kicks[j]) * scale
        shift = (1.0 + w(m + 1) / w(m)) * scale
        alpha = eps_hh * (gain * cosines[k, j]) + (gain * hh + shift)
        x, x_prev = alpha * x - x_prev, x

    kick = eps_h * (b1 * cosines[-1, -1]) + b1 * h
    q = c[end % period] * x
    p = (q - c[(end - 1) % period] * x_prev) / f + kick * q
    return _full_period_from_half(q, p)


# ---------------------------------------------------------------------------
# stability from Mathieu's characteristic values


def _sturm_count(modes: np.ndarray, q: np.ndarray, a: np.ndarray,
                 first=0.0, first_coupling: float = 1.0) -> np.ndarray:
    """Characteristic values below ``a`` in one parity family of Mathieu's
    recurrence: the eigenvalues of the symmetric tridiagonal matrix with
    diagonal ``modes``^2 (``first`` added to its first entry) and every
    coupling q (the first times ``first_coupling``), one cell per entry of
    ``q`` and ``a``.

    They are counted as the negative pivots of the LDL^T factors of T - a
    I.  A zero pivot is nudged to the tiniest negative number, so that 0/0
    never arises; a pivot near 0 sends the next one to +-inf and the one
    after back to modes^2 - a, the limit of the exact count.
    """
    tiny = np.finfo(float).tiny
    pivot = modes[0] ** 2 + first - a
    count = np.zeros(a.shape, dtype=int)
    with np.errstate(over="ignore", divide="ignore"):
        for row, mode in enumerate(modes[1:]):
            pivot[pivot == 0.0] = -tiny
            count += pivot < 0
            coupling = q * first_coupling if row == 0 else q
            pivot = (mode ** 2 - a) - coupling * coupling / pivot
    return count + (pivot < 0)


def mathieu_stable(nu, eps) -> np.ndarray:
    """Whether x'' = -(1 + eps cos(nu tau)) x is stable, from Mathieu's
    characteristic values; ``nu`` > 0 and ``eps`` broadcast together.

    With s = nu tau / 2 the equation is y'' + (a - 2 q cos 2s) y = 0, a =
    4/nu^2, q = -2 eps/nu^2, and only |q| matters.  The a_r (even) and b_r
    (odd solutions) are the eigenvalues of four symmetric tridiagonal
    matrices, one per parity family of the Fourier series: cos 2ns (a_2n),
    cos (2n+1)s (a_2n+1), sin (2n+1)s (b_2n+1), sin (2n+2)s (b_2n+2).  A
    cell is stable when N_A - N_B = 1 (a in some (a_r, b_r+1)) and unstable
    when N_A = N_B, with N_A and N_B the a- and b-values below a (DLMF
    28.2, 28.29).  The families keep K rows, K growing as sqrt(a + 2|q|):
    their eigenvectors decay past the mode sqrt(a + 2|q|), so the values
    near a do not feel the cut.  Any other difference means K is too
    small, and fails here.
    """
    nu, eps = np.broadcast_arrays(np.asarray(nu, dtype=float),
                                  np.asarray(eps, dtype=float))
    a = (4.0 / nu ** 2).ravel()
    q = np.abs(2.0 * eps / nu ** 2).ravel()
    k = np.arange(int(np.sqrt((a + 2.0 * q).max()) / 2.0) + 20, dtype=float)
    n_a = (_sturm_count(2.0 * k, q, a, first_coupling=math.sqrt(2.0))
           + _sturm_count(2.0 * k + 1.0, q, a, first=q))
    n_b = (_sturm_count(2.0 * k + 1.0, q, a, first=-q)
           + _sturm_count(2.0 * k + 2.0, q, a))
    difference = n_a - n_b
    assert np.isin(difference, (0, 1)).all(), \
        f"N_A - N_B outside {{0, 1}}: {np.unique(difference)}; raise K"
    return (difference == 1).reshape(nu.shape)
