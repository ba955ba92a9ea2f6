"""Classical companion model of the driven domain.

In scaled canonical coordinates (Q = 2*pi*q/L, P = b*p/hbar with b = 1,
hbar = 1, L = N/2) the driven-domain Hamiltonian reads

    H(Q, P, t) = [d0 + d1*cos(omega*t)] * cos(Q) + 2*J*cos(P),

giving the equations of motion

    dQ/dt = -(8*pi*J/N) * sin(P),
    dP/dt = +(4*pi/N) * [d0 + d1*cos(omega*t)] * sin(Q).

(Q, P) = (2*pi, 0) is a fixed point; linearizing about it yields a
parametrically modulated oscillator with small-oscillation frequency
Omega = (4*pi/N) * sqrt(2*d0*J).  In units of its own oscillation, tau =
Omega*t, it is Hill's equation x'' = -(1 + eps*cos(nu*tau)) x with nu =
omega/Omega and eps = d1/d0, so the one-period monodromy matrix M depends
on nu and eps alone: a model with flipped signs or rescaled d0 and J gives
the same map on the same Omega-relative axes.  The grid and its CSV keep
omega and d1; the integrator sees only (nu, eps).  Driving near omega =
2*Omega/m makes the fixed point unstable (parametric resonance);
stability is classified by the trace of M, computed by direct numerical
integration (SRKN11b, a sixth-order Runge-Kutta-Nystrom splitting into
shears, stepped as its two-term recurrence on positions).

Hill's equation has an even coefficient, and the shear sequence is a
palindrome, so only the half-period product H is integrated: M = R adj(H)
R H with R = diag(1, -1) holds exactly for the discrete scheme, and tr M
= 2 (h11 h22 + h12 h21).  Every cell gets MIN_STEPS_PER_OSCILLATION
steps per drive period or per oscillation, whichever is shorter, rounded
up to a power of two, so T/2 falls on a step boundary.  Eliminating the
momentum turns the drift-kick pairs into a recurrence u_{m+1} = alpha_m
u_m - u_{m-1} on scaled positions, two array operations per pair, and H
is rebuilt from the last two positions.  The kicks sit at fixed fractions
of each cell's period, so their cosines come from one short table per
step-count group.  Groups above CHUNK_STEPS steps hold few cells, so
their half period runs as side-by-side chunks from the identity whose
products fold into H.  The integrator takes the grid's cells as flat
arrays; every group is cut into cache-sized blocks of cells, integrated
one after another on the calling thread.

All frequencies here are angular (rad/ns); the unit bridge from ordinary
MHz inputs is units.rad_ns_from_mhz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .units import TWO_PI

DETERMINANT_TOL = 1e-8
#: the one step rule: steps per drive period or per oscillation of the
#: linearized motion, whichever is shorter
MIN_STEPS_PER_OSCILLATION = 16
#: the most steps per period a cell may take: past it the kick tables alone
#: would reach gigabytes, so such a cell is refused
MAX_MONODROMY_STEPS = 2 ** 20
#: steps per period of one side-by-side chunk: every group loops at most
#: CHUNK_STEPS / 2 times
CHUNK_STEPS = 64
#: classification cushion on |tr M| <= 2: marginally stable cells (the whole
#: zero-modulation column sits at |tr| = 2|cos(Omega T)| <= 2, touching 2 at
#: period points) must not flip on integrator roundoff.  The cushion moves
#: tongue boundaries by orders of magnitude less than one default grid cell.
STABILITY_TOLERANCE = 1e-4
#: chunk x cell columns of one monodromy block: about 0.9 MB of float64
#: kick strengths and state, which stays inside a core's L2 cache
BLOCK_COLUMNS = 6_500


@dataclass(frozen=True)
class SemiclassicalParams:
    """Parameters of the classical driven-domain model (angular units)."""

    n_sites: int
    dc_amplitude: float
    hopping: float

    def __post_init__(self):
        if self.n_sites < 2 or self.n_sites % 2:
            raise ConfigError("n_sites must be even and >= 2")
        # the signs, not the product, which underflows for tiny d0 and J
        d0, hopping = self.dc_amplitude, self.hopping
        if not (math.isfinite(d0) and math.isfinite(hopping)
                and (min(d0, hopping) > 0 or max(d0, hopping) < 0)):
            raise ConfigError("dc amplitude and hopping must be finite, "
                              "with positive product")

    @property
    def small_oscillation_frequency(self) -> float:
        """Omega = (4*pi/N) * sqrt(2 * d0 * J); the default drive of
        :func:`config.resolve` is its resonance m * omega = 2 * Omega."""
        return (4.0 * np.pi / self.n_sites) * math.sqrt(
            2.0 * self.dc_amplitude * self.hopping)


def energy(q, p, params: SemiclassicalParams) -> np.ndarray:
    """Undriven Hamiltonian d0*cos(Q) + 2*J*cos(P) (conserved for d1 = 0)."""
    return (params.dc_amplitude * np.cos(q)
            + 2.0 * params.hopping * np.cos(p))


#: SRKN11b (sixth order) of Blanes and Moan, J. Comput. Appl. Math. 142
#: (2002) 313: kick weights b1..b6 and drift weights a1..a6
_B = (0.0414649985182624, 0.198128671918067, -0.0400061921041533,
      0.0752539843015807, -0.0115113874206879)
_A = (0.123229775946271, 0.290553797799558, -0.127049212625417,
      -0.246331761062075, 0.357208872795928)
SRKN_KICKS = _B + (0.5 - sum(_B),)
SRKN_DRIFTS = _A + (1.0 - 2.0 * sum(_A),)


def _monodromy_steps(nu, eps) -> np.ndarray:
    """Per-cell step count: MIN_STEPS_PER_OSCILLATION per period or per
    oscillation, whichever is shorter, rounded up to a power of two.

    A cell's period 2*pi/nu spans at most sqrt(1 + |eps|) / nu
    oscillations of the linearized motion.  The rounding makes every count
    a power of two >= 2, so T/2 falls on a step boundary and large grids
    fall into a handful of equal-step batches.  Depending only on the
    cell's own parameters keeps grids exactly subsample-consistent.  A
    cell that needs more than MAX_MONODROMY_STEPS raises ValueError,
    before anything is allocated.
    """
    needed = (np.maximum(np.sqrt(1.0 + np.abs(eps)) / nu, 1.0)
              * MIN_STEPS_PER_OSCILLATION)
    worst = int(needed.argmax())
    if not needed[worst] <= MAX_MONODROMY_STEPS:        # NaN or inf too
        raise ValueError(
            f"the cell at omega = {nu[worst]:.6g} Omega needs "
            f"{needed[worst]:.3g} monodromy steps per period, more than "
            f"{MAX_MONODROMY_STEPS}")
    return (2 ** np.ceil(np.log2(needed))).astype(int)


def _integrate_group(nu, eps, steps: int, chunks: int = 1) -> np.ndarray:
    """Sixth-order RKN splitting (SRKN11b) for one batch of cells.

    The linearized flow in units of its own oscillation, tau = Omega*t,
        x' = -p,     p' = c(tau) * x,     c(tau) = 1 + eps*cos(nu*tau),
    is a second-order equation x'' = -c(tau) x, split into shears: kicks
    of p by c(tau) x at the current time and drifts of x by -p that
    advance the time.  Blanes and Moan's SRKN11b palindrome B1 A1 ... B6
    A6 B6 ... A1 B1 is sixth order.  The B1 kicks that end one step and
    open the next act at the same instant and are merged, so a step is the
    drifts a1..a6, a5..a1, each followed by a kick: b2..b6, b6..b2, then
    the merged 2 b1.

    The pairs are stepped in their Stormer form, on positions alone: with
    x_m the x after drift m, f_m = -w_m h and kappa_m the kick after it,
    eliminating p gives x_{m+1} = (1 + r_m + f_{m+1} kappa_m) x_m - r_m
    x_{m-1}, r_m = w_{m+1} / w_m.  With x_m = c_m u_m, c_0 = c_1 = 1 and
    c_{m+1} = r_m c_{m-1}, that is u_{m+1} = alpha_m u_m - u_{m-1}: a
    multiply and a subtract per pair.  A step's ratios multiply to 1, so c
    repeats every two steps.  A chunk starts at x_1 = x_0 + f_1 p_0 and
    ends with q = c_M u_M, p = (q - c_{M-1} u_{M-1}) / f_M + kappa_M q.
    The roundoff of alpha ~ 1 acts as a stiffness of order eps per pair,
    so the error grows as the square of the steps per oscillation: 3e-13
    in the entries at 16 steps, 1.3e-9 at 1024.

    Only the half-period product H is integrated: the period's shear
    sequence is a palindrome and c(tau) is even, so the second half is the
    first mirrored, and since R S^-1 R = S for every shear S (R =
    diag(1, -1)), M = R adj(H) R H.  ``steps`` is a power of two, so T/2
    splits the merged B1 kick at a step boundary.  Kicks sit at fixed
    fractions of the period, so the group shares one cosine table.  The
    half period runs as C = ``chunks`` equal chunks side by side from the
    identity, in (2, C, n) rows updated in place (chunk 0 alone starts at
    tau = 0, the last alone ends at T/2); H = M_{C-1} ... M_0.  A step's K
    alphas are computed together into one (K, C, n) buffer; their
    constant part depends on the kick and the cell only and is broadcast
    over the chunks.
    """
    h = (TWO_PI / nu) / steps
    b1 = SRKN_KICKS[0]

    # a step's (drift, kick) pairs; kick j acts at the sum of drifts 1..j
    drifts = np.array(SRKN_DRIFTS + SRKN_DRIFTS[-2::-1])
    weights = np.array(SRKN_KICKS[1:] + SRKN_KICKS[:0:-1] + (2.0 * b1,))
    instants = np.cumsum(drifts)
    instants[-1] = 1.0
    cosines = np.cos(TWO_PI * (np.arange(steps // 2)[:, None] + instants)
                     / steps)
    # cosines[k, j, i]: kick j of step k of chunk i
    cosines = cosines.reshape(chunks, -1, len(weights)).transpose(1, 2, 0)

    # c_m repeats after the 2K drifts of two steps; drift m is pair
    # (m - 1) % K of its step, so r_m is read by pair
    ratios = np.roll(drifts, -1) / drifts
    c = [1.0, 1.0]
    for m in range(1, 2 * len(drifts) - 1):
        c.append(ratios[(m - 1) % len(drifts)] * c[m - 1])
    c = np.array(c)
    drift = np.arange(1, c.size + 1).reshape(2, -1)   # by step parity, pair
    scale = c[drift % c.size] / c[(drift + 1) % c.size]     # c_m / c_{m+1}
    gain = -(np.roll(drifts, -1) * weights) * scale
    cos_g = (gain[np.arange(len(cosines)) % 2, :, None] * cosines)[..., None]
    eps_h = eps * h
    eps_hh = h * eps_h
    const = np.multiply.outer(gain, h * h)
    const += ((1.0 + ratios) * scale)[..., None]
    const = const[:, :, None]                               # (2, K, 1, n)

    f = -drifts[0] * h                        # drifts 1 and M are both a1
    u_prev = np.zeros((2, chunks) + nu.shape)               # x_0
    u_prev[0] = 1.0
    u = np.empty_like(u_prev)                               # x_1
    u[0] = 1.0
    u[1] = f
    u[0, 0] += f * (b1 * (h + eps_h))                   # tau = 0, cos = 1
    tmp = np.empty_like(u)
    alpha = np.empty((len(weights),) + u.shape[1:])
    rows = list(alpha)                                      # made once

    for k, cos_gains in enumerate(cos_g):
        np.multiply(eps_hh, cos_gains, out=alpha)
        np.add(alpha, const[k % 2], out=alpha)
        for alpha_j in rows if k + 1 < len(cos_g) else rows[:-1]:
            np.multiply(u, alpha_j, out=tmp)
            np.subtract(tmp, u_prev, out=u_prev)
            u, u_prev = u_prev, u

    # each chunk ends on its merged B1 kick, which T/2 halves (exactly)
    kick = eps_h * (weights[-1] * cosines[-1, -1])[:, None] + weights[-1] * h
    kick[-1] *= 0.5
    end = len(weights) * len(cosines)                       # drift M
    q = c[end % c.size] * u
    p = (q - c[(end - 1) % c.size] * u_prev) / f + kick * q

    (h11, h12), (h21, h22) = q[:, 0], p[:, 0]
    for j in range(1, chunks):                       # H <- M_j H
        (a11, a12), (a21, a22) = q[:, j], p[:, j]
        h11, h12, h21, h22 = (a11 * h11 + a12 * h21, a11 * h12 + a12 * h22,
                              a21 * h11 + a22 * h21, a21 * h12 + a22 * h22)
    m = np.empty(nu.shape + (2, 2))
    m[..., 0, 0] = h11 * h22 + h12 * h21
    m[..., 1, 1] = m[..., 0, 0]
    m[..., 0, 1] = 2.0 * h12 * h22
    m[..., 1, 0] = 2.0 * h11 * h21
    return m


def _monodromy_batch(nu: np.ndarray, eps: np.ndarray) -> tuple:
    """Monodromy matrices, shape (n, 2, 2), of n cells given as flat
    ``nu`` = omega/Omega and ``eps`` = delta1/d0 arrays, and their
    step-count groups.

    Each group is cut into blocks of at most BLOCK_COLUMNS chunk x cell
    columns (a single cell may exceed it), so a block's working set stays
    in cache.  A cell's arithmetic does not depend on its block.
    """
    steps = _monodromy_steps(nu, eps)
    result = np.empty((nu.size, 2, 2))
    groups = []
    for count, cells in zip(*np.unique(steps, return_counts=True)):
        count, cells = int(count), int(cells)
        chunks = max(1, count // CHUNK_STEPS)
        pieces = min(cells, -(-cells * chunks // BLOCK_COLUMNS))
        for idx in np.array_split(np.flatnonzero(steps == count), pieces):
            result[idx] = _integrate_group(nu[idx], eps[idx], count, chunks)
        groups.append({"steps": count, "cells": cells, "chunks": chunks,
                       "blocks": pieces})
    return result, groups


def _check_determinants(m: np.ndarray) -> float:
    """Verify det M = 1 to 1e-8 wherever that is measurable, and return the
    worst measured |det M - 1| (0 when no cell is measurable).

    Each integration substep is a shear, so the determinant is preserved
    structurally; the floating-point check is meaningful only while matrix
    entries stay O(1).  Cells whose solutions grew large (unstable, or
    marginal with linear growth over many oscillations) are exempt: there
    the unit determinant cancels between products of order ||M||^2 and is
    not resolvable at 1e-8 by any scheme.  M is taken in units of Omega
    (time tau = Omega*t, momentum p = -dx/dtau), so the exemption bound
    |entry| <= 8 is the same for every model scale.
    """
    m = m.reshape(-1, 4)                # (m11, m12, m21, m22) per cell
    a = np.abs(m)           # a 4-wide max reduction is 9x slower than this
    entries = np.maximum(np.maximum(a[:, 0], a[:, 1]),
                         np.maximum(a[:, 2], a[:, 3]))
    m = m[np.isfinite(entries) & (entries <= 8.0)]
    det = m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]
    worst = float(np.abs(det - 1.0).max(initial=0.0))
    if worst > DETERMINANT_TOL:
        raise NumericalError(f"monodromy determinant deviates by {worst:.3e}")
    return worst


@dataclass(frozen=True)
class StabilityGrid:
    """|tr M| and the stability flag on an (omega, delta1) grid."""

    omega_values: np.ndarray        # length n_omega
    delta1_values: np.ndarray       # length n_delta1
    abs_trace: np.ndarray           # (n_omega, n_delta1)
    stable: np.ndarray              # boolean, same shape
    monodromy_groups: list          # {steps, cells, chunks, blocks} per group
    determinant_defect: float       # worst checked |det M - 1|


def stability_grid(omega_values, delta1_values, params: SemiclassicalParams
                   ) -> StabilityGrid:
    """Monodromy-trace map over a rectangular (omega, delta1) grid."""
    omega_values = np.asarray(omega_values, dtype=float)
    delta1_values = np.asarray(delta1_values, dtype=float)
    if len(omega_values) == 0 or len(delta1_values) == 0:
        raise ValueError("grid axes must be non-empty")
    # M depends on each cell's nu = omega/Omega and eps = delta1/d0 alone
    nu = omega_values / params.small_oscillation_frequency
    eps = delta1_values / params.dc_amplitude
    if not (np.isfinite(nu).all() and np.isfinite(eps).all()):
        raise ValueError("grid axes must be finite in units of Omega and d0")
    if np.any(nu <= 0):
        raise ValueError("omega grid values must be positive")
    nu, eps = np.meshgrid(nu, eps, indexing="ij")
    m, groups = _monodromy_batch(nu.ravel(), eps.ravel())
    defect = _check_determinants(m)
    abs_trace = np.abs(m[:, 0, 0] + m[:, 1, 1]).reshape(nu.shape)
    stable = np.isfinite(abs_trace) & (abs_trace <= 2.0 + STABILITY_TOLERANCE)
    return StabilityGrid(omega_values, delta1_values, abs_trace, stable,
                         groups, defect)


def default_grid_axes(params: SemiclassicalParams, resolution: int = 200):
    """Default axes: omega in (0, 3*Omega], delta1 in [0, 2*d0]."""
    omega_top = 3.0 * params.small_oscillation_frequency
    if not 0 < omega_top < math.inf:    # d0 * J under- or overflowed
        raise ConfigError(f"Omega = {omega_top / 3:g} rad/ns: the small-"
                          "oscillation frequency must be positive and finite")
    omega_values = np.linspace(omega_top / resolution, omega_top, resolution)
    delta1_values = np.linspace(0.0, 2.0 * params.dc_amplitude, resolution)
    return omega_values, delta1_values


def potential_contours(q_values, p_values, params: SemiclassicalParams
                       ) -> np.ndarray:
    """Undriven energy surface sampled on a (Q, P) grid, shape (nq, np)."""
    q_values = np.asarray(q_values, dtype=float)
    p_values = np.asarray(p_values, dtype=float)
    if len(q_values) == 0 or len(p_values) == 0:
        raise ValueError("contour grids must be non-empty")
    qq, pp = np.meshgrid(q_values, p_values, indexing="ij")
    return energy(qq, pp, params)
