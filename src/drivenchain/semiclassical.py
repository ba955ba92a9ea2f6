"""Classical companion model of the driven domain.

In scaled canonical coordinates (Q = 2*pi*q/L, P = b*p/hbar with b = 1,
hbar = 1, L = N/2) the driven-domain Hamiltonian reads

    H(Q, P, t) = [d0 + d1*cos(omega*t)] * cos(Q) + 2*J*cos(P),

giving the equations of motion

    dQ/dt = -(8*pi*J/N) * sin(P),
    dP/dt = +(4*pi/N) * [d0 + d1*cos(omega*t)] * sin(Q).

(Q, P) = (2*pi, 0) is a fixed point; linearizing about it yields a
parametrically modulated oscillator with small-oscillation frequency
Omega = (4*pi/N) * sqrt(2*d0*J).  Driving near omega = 2*Omega/m makes the
fixed point unstable (parametric resonance); stability is classified by the
trace of the one-period monodromy matrix M of the linearized flow, computed
by direct numerical integration (SRKN6b, a fourth-order Runge-Kutta-Nystrom
splitting into shears).

The linearized flow is Hill's equation with an even coefficient c(t), and
the shear sequence is a palindrome, so only the half-period product H is
integrated: M = R adj(H) R H with R = diag(1, -1) holds exactly for the
discrete scheme, and tr M = 2 (h11 h22 + h12 h21).  Every cell gets
MIN_STEPS_PER_OSCILLATION steps per drive period or per oscillation,
whichever is shorter, rounded up to a power of two, so T/2 falls on a step
boundary.  The kicks sit at fixed fractions of each cell's period, so their
cosines come from one short table per step-count group.  Groups above
CHUNK_STEPS steps hold few cells, so their half period runs as side-by-side
chunks from the identity whose products fold into H.  The integrator takes
the grid's cells as flat arrays; every group is cut into cache-sized blocks
of cells, integrated one after another on the calling thread.

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
MIN_STEPS_PER_OSCILLATION = 64
#: steps per period of one side-by-side chunk: every group loops at most
#: CHUNK_STEPS / 2 times
CHUNK_STEPS = 256
#: classification cushion on |tr M| <= 2: marginally stable cells (the whole
#: zero-modulation column sits at |tr| = 2|cos(Omega T)| <= 2, touching 2 at
#: period points) must not flip on integrator roundoff.  The cushion moves
#: tongue boundaries by orders of magnitude less than one default grid cell.
STABILITY_TOLERANCE = 1e-4
#: chunk x cell columns of one monodromy block: about 1.2 MB of float64
#: state and per-cell factors, which stays inside a core's L2 cache
BLOCK_COLUMNS = 12_000


@dataclass(frozen=True)
class SemiclassicalParams:
    """Parameters of the classical driven-domain model (angular units)."""

    n_sites: int
    dc_amplitude: float
    hopping: float

    def __post_init__(self):
        if self.n_sites < 2 or self.n_sites % 2:
            raise ConfigError("n_sites must be even and >= 2")
        if self.dc_amplitude * self.hopping <= 0:
            raise ConfigError("dc amplitude and hopping must have positive product")

    @property
    def small_oscillation_frequency(self) -> float:
        """Omega = (4*pi/N) * sqrt(2 * d0 * J)."""
        return (4.0 * np.pi / self.n_sites) * math.sqrt(
            2.0 * self.dc_amplitude * self.hopping)


def energy(q, p, params: SemiclassicalParams) -> np.ndarray:
    """Undriven Hamiltonian d0*cos(Q) + 2*J*cos(P) (conserved for d1 = 0)."""
    return (params.dc_amplitude * np.cos(q)
            + 2.0 * params.hopping * np.cos(p))


#: SRKN6b of Blanes and Moan, J. Comput. Appl. Math. 142 (2002) 313: one
#: step is the palindrome B1 A1 B2 A2 B3 A3 B4 A3 B3 A2 B2 A1 B1 of kicks
#: (weights b1..b4) and drifts (weights a1..a3)
_B1, _B2, _B3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
_A1, _A2 = 0.245298957184271, 0.604872665711080
SRKN_KICKS = (_B1, _B2, _B3, 1.0 - 2.0 * (_B1 + _B2 + _B3))
SRKN_DRIFTS = (_A1, _A2, 0.5 - _A1 - _A2)


def _monodromy_steps(omega, delta1, params: SemiclassicalParams
                     ) -> np.ndarray:
    """Per-cell step count: MIN_STEPS_PER_OSCILLATION per period or per
    oscillation, whichever is shorter, rounded up to a power of two.

    A cell with period T spans T * Omega_eff / (2*pi) oscillations of the
    linearized motion.  The rounding makes every count a power of two >= 2,
    so T/2 falls on a step boundary and large grids fall into a handful of
    equal-step batches.  Depending only on the cell's own parameters keeps
    grids exactly subsample-consistent.
    """
    n = params.n_sites
    a = 8.0 * np.pi * params.hopping / n
    c_max = (4.0 * np.pi / n) * (abs(params.dc_amplitude) + np.abs(delta1))
    omega_eff = np.sqrt(np.maximum(a * c_max, 0.0))
    oscillations = np.maximum(omega_eff / omega, 1.0)
    needed = oscillations * MIN_STEPS_PER_OSCILLATION
    return (2 ** np.ceil(np.log2(needed))).astype(int)


def _integrate_group(omega, delta1, params: SemiclassicalParams,
                     steps: int, chunks: int = 1) -> np.ndarray:
    """Fourth-order RKN splitting (SRKN6b) for one batch of cells.

    The linearized flow
        d(dQ)/dt = -a * dP,      a = 8*pi*J/N,
        d(dP)/dt = c(t) * dQ,    c(t) = (4*pi/N) * [d0 + d1*cos(omega*t)],
    is a second-order equation y'' = f(y, t), so each substep is a shear
    (exact unit determinant): a kick of dP by c(t) dQ at the current time,
    or a drift of dQ by -a dP that also advances the time.  Blanes and
    Moan's SRKN6b palindrome is fourth order with a far smaller error
    constant than a triple-jump composition.  The B1 kicks that end one
    step and open the next act at the same instant and are merged, so a
    step is six drifts, each followed by a kick.

    Only the half-period product H is integrated: the period's shear
    sequence is a palindrome and c(t) is even, so the second half is the
    first mirrored, and since R S^-1 R = S for every shear S (R =
    diag(1, -1)), M = R adj(H) R H.  ``steps`` is a power of two, so T/2
    splits the merged B1 kick at a step boundary.  Kicks sit at fixed
    fractions of the period, so the group shares one cosine table.  The
    half period runs as C = ``chunks`` equal chunks side by side from the
    identity, in (2, C, n) rows updated in place (chunk 0 alone starts at
    t = 0, the last alone ends at T/2); H = M_{C-1} ... M_0.
    A step's six kick strengths are computed together into one (6, C, n)
    buffer, with the same operations per element as one kick at a time; its
    dc part depends on the kick and the cell only and is broadcast over
    the chunks.
    """
    n_sites = params.n_sites
    a = 8.0 * np.pi * params.hopping / n_sites
    c0 = 4.0 * np.pi / n_sites
    dc = c0 * params.dc_amplitude
    h = (TWO_PI / omega) / steps
    b1, b2, b3, b4 = SRKN_KICKS
    a1, a2, a3 = SRKN_DRIFTS

    # a step's six (drift, kick) pairs; the kicks act at these step fractions
    weights = np.array([b2, b3, b4, b3, b2, 2.0 * b1])
    drifts = [(-a * w) * h for w in (a1, a2, a3)]
    drifts += drifts[::-1]
    instants = np.array([a1, a1 + a2, 0.5, 1.0 - a1 - a2, 1.0 - a1, 1.0])
    cosines = np.cos(TWO_PI * (np.arange(steps // 2)[:, None] + instants)
                     / steps)
    # ac_w[j] holds the (kick, chunk) weights of step j of every chunk
    ac_w = cosines.reshape(chunks, -1, 6).transpose(1, 2, 0)[..., None]
    ac_w = weights[:, None, None] * ac_w
    dc_w = np.multiply.outer(weights * dc, h)[:, None]       # (6, 1, n)
    ac_h = c0 * delta1 * h

    q = np.zeros((2, chunks) + omega.shape)
    p = np.zeros_like(q)
    q[0] = 1.0
    p[1] = 1.0
    p[0, 0] = ac_h * b1 + (b1 * dc) * h                 # t = 0, cos = 1
    tmp = np.empty_like(q)
    kap = np.empty((6,) + q.shape[1:])
    pairs = list(zip(drifts, kap))                  # views made once

    for k, ac_weights in enumerate(ac_w, 1):
        np.multiply(ac_h, ac_weights, out=kap)
        np.add(kap, dc_w, out=kap)
        if k == len(ac_w):               # T/2 halves the merged B1 kick;
            kap[5, -1] *= 0.5            # halving is exact in floating point
        for factor, kappa in pairs:
            np.multiply(p, factor, out=tmp)             # drift
            np.add(q, tmp, out=q)
            np.multiply(q, kappa, out=tmp)              # kick
            np.add(p, tmp, out=p)

    (h11, h12), (h21, h22) = q[:, 0], p[:, 0]
    for j in range(1, chunks):                       # H <- M_j H
        (a11, a12), (a21, a22) = q[:, j], p[:, j]
        h11, h12, h21, h22 = (a11 * h11 + a12 * h21, a11 * h12 + a12 * h22,
                              a21 * h11 + a22 * h21, a21 * h12 + a22 * h22)
    m = np.empty(omega.shape + (2, 2))
    m[..., 0, 0] = h11 * h22 + h12 * h21
    m[..., 1, 1] = m[..., 0, 0]
    m[..., 0, 1] = 2.0 * h12 * h22
    m[..., 1, 0] = 2.0 * h11 * h21
    return m


def _monodromy_batch(omega: np.ndarray, delta1: np.ndarray,
                     params: SemiclassicalParams) -> tuple:
    """Monodromy matrices, shape (n, 2, 2), of n cells given as flat
    ``omega`` and ``delta1`` arrays, and their step-count groups.

    Each group is cut into blocks of at most BLOCK_COLUMNS chunk x cell
    columns (a single cell may exceed it), so a block's working set stays
    in cache.  A cell's arithmetic does not depend on its block.
    """
    steps = _monodromy_steps(omega, delta1, params)
    result = np.empty((omega.size, 2, 2))
    groups = []
    for count, cells in zip(*np.unique(steps, return_counts=True)):
        count, cells = int(count), int(cells)
        chunks = max(1, count // CHUNK_STEPS)
        pieces = min(cells, -(-cells * chunks // BLOCK_COLUMNS))
        for idx in np.array_split(np.flatnonzero(steps == count), pieces):
            result[idx] = _integrate_group(omega[idx], delta1[idx], params,
                                           count, chunks)
        groups.append({"steps": count, "cells": cells, "chunks": chunks,
                       "blocks": pieces})
    return result, groups


def _check_determinants(m: np.ndarray) -> None:
    """Verify det M = 1 to 1e-8 wherever that is measurable.

    Each integration substep is a shear, so the determinant is preserved
    structurally; the floating-point check is meaningful only while matrix
    entries stay O(1).  Cells whose solutions grew large (unstable, or
    marginal with linear growth over many oscillations) are exempt: there
    the unit determinant cancels between products of order ||M||^2 and is
    not resolvable at 1e-8 by any scheme.
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


@dataclass(frozen=True)
class StabilityGrid:
    """|tr M| and the stability flag on an (omega, delta1) grid."""

    omega_values: np.ndarray        # length n_omega
    delta1_values: np.ndarray       # length n_delta1
    abs_trace: np.ndarray           # (n_omega, n_delta1)
    stable: np.ndarray              # boolean, same shape
    monodromy_groups: list          # {steps, cells, chunks, blocks} per group


def stability_grid(omega_values, delta1_values, params: SemiclassicalParams
                   ) -> StabilityGrid:
    """Monodromy-trace map over a rectangular (omega, delta1) grid."""
    omega_values = np.asarray(omega_values, dtype=float)
    delta1_values = np.asarray(delta1_values, dtype=float)
    if len(omega_values) == 0 or len(delta1_values) == 0:
        raise ValueError("grid axes must be non-empty")
    if not (np.isfinite(omega_values).all()
            and np.isfinite(delta1_values).all()):
        raise ValueError("grid axes must be finite")
    if np.any(omega_values <= 0):
        raise ValueError("omega grid values must be positive")
    om, d1 = np.meshgrid(omega_values, delta1_values, indexing="ij")
    m, groups = _monodromy_batch(om.ravel(), d1.ravel(), params)
    _check_determinants(m)
    abs_trace = np.abs(m[:, 0, 0] + m[:, 1, 1]).reshape(om.shape)
    stable = np.isfinite(abs_trace) & (abs_trace <= 2.0 + STABILITY_TOLERANCE)
    return StabilityGrid(omega_values, delta1_values, abs_trace, stable,
                         groups)


def default_grid_axes(params: SemiclassicalParams, resolution: int = 200):
    """Default axes: omega in (0, 3*Omega], delta1 in [0, 2*d0]."""
    omega_top = 3.0 * params.small_oscillation_frequency
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
