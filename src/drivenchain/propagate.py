"""Time-ordered unitary evolution and the one-period Floquet operator.

Only the diagonal depends on time, H(t) = H0 + f(t) D.  A step of size h
is a palindromic splitting D_0 H0(a_0) D_1 ... H0(a_{s-1}) D_s of H0
exponentials exp(-i a h H0) and kicks exp(-i theta D): fourth order,
unitary, and exact for a static H0.  States take Yoshida's triple jump
(w1, w0, w1) at the dynamics step, as Strang steps with f frozen at each
stage midpoint.  The Floquet product takes S6 of Blanes and Moan,
J. Comput. Appl. Math. 142 (2002) 313: H0 on its six inner weights, and
kicks b_j h f(t_j) D on its seven outer ones at the time t_j the H0 flow
has reached, at four times that step.  One eigendecomposition of H0 per
realization gives one exponential per distinct weight; the kick that ends
a step and the one that opens the next are merged.

The core advances a block (R, dim, k) of R realizations that share drive
and basis and differ in H0: k = dim for propagators, k = 1 for states.
The batched functions take H0 as an (R, dim, dim) stack and the single
ones are their R = 1 case; a realization's arithmetic does not depend on
R, so it is bit for bit the same in any batch.  Dynamics steps directly,
so sample times need not fall on whole periods.  Every factor is
symmetric (H0 real symmetric, D real diagonal), so for f even about T/2
and an even step count the Floquet operator is U(T) = V^T V from the
half-period V.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .hamiltonian import SectorModel
from .model import DriveSpec
from .units import TWO_PI

DEFAULT_STEPS_PER_PERIOD = 256
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-10


@dataclass(frozen=True)
class Splitting:
    """One step D_0 H0(a_0) D_1 ... H0(a_{s-1}) D_s of size h.

    H0(a) = exp(-i a h H0) takes a = ``drifts[j]``, and D_j =
    exp(-i theta_j D).  ``kick_angles(f, h, k)`` gives theta_j for the
    step indices in the column k, an (n, 1) array: (n, s + 1).
    """

    drifts: tuple
    kick_angles: Callable


def _midpoint_kicks(drifts) -> Splitting:
    """Strang steps with f frozen at each stage midpoint: D_j merges the
    half-kicks of the stages on either side of it."""
    w = np.asarray(drifts)
    midpoints = np.cumsum(w) - 0.5 * w                  # in units of the step

    def kick_angles(f, h, k):
        half = f((k + midpoints) * h) * (0.5 * h * w)
        return np.concatenate([half[:, :1], half[:, 1:] + half[:, :-1],
                               half[:, -1:]], axis=1)
    return Splitting(tuple(drifts), kick_angles)


def _flow_time_kicks(drifts, kicks) -> Splitting:
    """D_j = exp(-i b_j h f(t_j) D) at the time t_j the H0 flow has reached
    (extended phase space), so the order of the splitting holds for any f."""
    b = np.asarray(kicks)
    times = np.concatenate([[0.0], np.cumsum(drifts)])  # in units of the step

    def kick_angles(f, h, k):
        return f((k + times) * h) * (h * b)
    return Splitting(tuple(drifts), kick_angles)


_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
YOSHIDA = _midpoint_kicks((_YOSHIDA_W1, 1.0 - 2.0 * _YOSHIDA_W1, _YOSHIDA_W1))

#: S6 of Blanes and Moan, J. Comput. Appl. Math. 142 (2002) 313: one step
#: is the palindrome D(b1) H0(a1) D(b2) H0(a2) D(b3) H0(a3) D(b4) H0(a3) ...
#: D(b1), H0 on the six inner weights and the kicks on the seven outer ones
_A1, _A2 = 0.209515106613362, -0.143851773179818
_B1, _B2, _B3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_A3, _B4 = 0.5 - _A1 - _A2, 1.0 - 2.0 * (_B1 + _B2 + _B3)
BLANES_MOAN_S6 = _flow_time_kicks((_A1, _A2, _A3, _A3, _A2, _A1),
                                  (_B1, _B2, _B3, _B4, _B3, _B2, _B1))
_PHASE_CHUNK = DEFAULT_STEPS_PER_PERIOD             # bounds the table's memory


def _phase_table(model: SectorModel, scheme: Splitting, step: float,
                 first: int, count: int):
    """Phases for steps first .. first+count-1.

    Returns the merged phases applied before each H0 exponential,
    (count, len(scheme.drifts), dim, 1), and the kick that completes each
    step, (count, dim, 1).
    """
    steps = np.arange(first - 1, first + count)[:, None]
    angles = scheme.kick_angles(model.drive.modulation, step, steps)
    if first == 0:
        angles[0] = 0.0                 # no step precedes the first one
    merged = angles[1:, :-1].copy()
    merged[:, 0] += angles[:-1, -1]
    diag = model.drive_diagonal[:, None]
    return (np.exp(-1j * merged[..., None, None] * diag),
            np.exp(-1j * angles[1:, -1, None, None] * diag))


def _newton_schulz(x: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step X(3I - X^H X)/2, taken as X + X(I - X^H X)/2
    in place (Higham, Functions of Matrices, SIAM 2008, sec. 8.3).

    It makes an H0 exponential unitary to roundoff: every step applies the
    same few exponentials, so their defects would add up coherently.
    """
    y = x @ (np.eye(x.shape[-1]) - x.conj().swapaxes(-1, -2) @ x)
    y *= 0.5
    x += y
    return x


def _advance(model: SectorModel, h0: np.ndarray, block: np.ndarray,
             scheme: Splitting, step: float, n_steps: int,
             emit_steps) -> np.ndarray:
    """Advance ``block`` (R, dim, k) by ``n_steps`` steps of ``scheme``.

    Realization r evolves under H0 = ``h0[r]`` and the drive of ``model``.
    Returns the block after each step count in the ascending
    ``emit_steps``: (len(emit_steps), R, dim, k).
    """
    lam, vec = np.linalg.eigh(h0)
    # H0 is real symmetric, so its eigenvectors are real: V^H = V^T
    exponentials = {w: _newton_schulz((vec * np.exp(-1j * w * step * lam)
                                       [..., None, :]) @ vec.swapaxes(-1, -2))
                    for w in set(scheme.drifts)}
    unitaries = [exponentials[w] for w in scheme.drifts]
    del lam, vec                # the loop's peak holds every exponential
    out = np.empty((len(emit_steps),) + block.shape, dtype=complex)
    psi, trailing, next_emit = block.copy(), np.ones((block.shape[1], 1)), 0
    for k in range(n_steps + 1):
        while next_emit < len(emit_steps) and emit_steps[next_emit] == k:
            np.multiply(trailing, psi, out=out[next_emit])
            next_emit += 1
        if k == n_steps:
            return out
        if k % _PHASE_CHUNK == 0:
            merged, trail = _phase_table(model, scheme, step, k,
                                         min(_PHASE_CHUNK, n_steps - k))
        for phase, unitary in zip(merged[k % _PHASE_CHUNK], unitaries):
            psi *= phase
            psi = unitary @ psi
        trailing = trail[k % _PHASE_CHUNK]


def _check_each(values: np.ndarray, tol: float, what: str) -> None:
    """Fail on the first realization whose value is not <= tol (NaN fails)."""
    bad = np.flatnonzero(~(values <= tol))
    if bad.size:
        raise NumericalError(f"realization {bad[0]}: {what} "
                             f"{values[bad[0]]:.3e} exceeds {tol}",
                             realization_index=int(bad[0]))


def unitarity_defect(matrix: np.ndarray):
    """max |U^H U - 1| of a matrix, or per matrix of an (R, dim, dim) stack."""
    product = np.swapaxes(matrix.conj(), -1, -2) @ matrix
    return np.abs(product - np.eye(matrix.shape[-1])).max(axis=(-2, -1))


@dataclass(frozen=True)
class FloquetOperator:
    """One-period propagator U(T), or an (R, dim, dim) stack, and its period."""

    matrix: np.ndarray
    period: float

    @property
    def angular_frequency(self) -> float:
        return TWO_PI / self.period


@dataclass(frozen=True)
class StateTrajectory:
    """States sampled along one evolution, or along R of them at once."""

    times: np.ndarray           # actual (step-aligned) emission times
    amplitudes: np.ndarray      # (len(times), dim), or (R, len(times), dim)


def evolve_states(model: SectorModel, h0: np.ndarray, psi0: np.ndarray,
                  t_samples, step: float) -> StateTrajectory:
    """:func:`evolve_state` for the R static parts of an ``h0`` stack from
    :meth:`SectorModel.static_hamiltonians`: amplitudes are (R, time, dim)."""
    if step <= 0:
        raise ValueError("step must be positive")
    requested = np.asarray(list(t_samples), dtype=float)
    if len(requested) == 0:
        raise ValueError("need at least one sample time")
    if np.any(np.diff(requested) < 0):
        raise ValueError("sample times must be ascending")
    if requested[0] < 0:
        raise ValueError("sample times must be >= 0")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.basis.dim,):
        raise ValueError(f"initial state of shape {psi0.shape} does not fit "
                         f"basis dimension {model.basis.dim}")

    sample_steps = np.rint(requested / step).astype(int)
    block = np.broadcast_to(psi0[:, None], (len(h0), len(psi0), 1))
    states = _advance(model, h0, block, YOSHIDA, step,
                      int(sample_steps[-1]), sample_steps)[..., 0]
    # the steps keep psi0's norm, so this also rejects an unnormalized psi0
    drift = np.abs(np.linalg.norm(states, axis=-1) - 1.0).max(axis=0)
    _check_each(drift, NORM_TOL, "norm drift")
    return StateTrajectory(sample_steps * step,
                           np.ascontiguousarray(states.swapaxes(0, 1)))


def evolve_state(model: SectorModel, psi0: np.ndarray, t_samples,
                 step: float) -> StateTrajectory:
    """Propagate the (dim,) amplitudes psi0 from t=0 to the sample times.

    Sample times are snapped to the nearest multiple of ``step``; the
    returned trajectory reports the actual times.  A NumericalError is raised
    unless every emitted state has unit norm to 1e-10, so an unnormalized
    psi0 fails too.
    """
    batch = evolve_states(model, model.static_hamiltonians(), psi0, t_samples,
                          step)
    return replace(batch, amplitudes=batch.amplitudes[0])


def floquet_steps(drive: DriveSpec, steps_per_period: int) -> int:
    """Steps the Floquet product integrates: BLANES_MOAN_S6 at
    max(1, steps_per_period // 4) steps per period, six H0 exponentials
    each, half of them when that count is even and f even about T/2, so
    that U = V^T V."""
    per_period = max(1, steps_per_period // 4)
    if per_period % 2 or math.remainder(drive.effective_phase, math.pi):
        return per_period
    return per_period // 2


def floquet_operators(model: SectorModel, h0: np.ndarray,
                      steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                      ) -> FloquetOperator:
    """:func:`floquet_operator` for the R static parts of an ``h0`` stack;
    V^T V from the half-period product V where :func:`floquet_steps` halves."""
    if steps_per_period < 1:
        raise ValueError("steps_per_period must be >= 1")
    period = model.drive.period
    dim = model.basis.dim
    block = np.broadcast_to(np.eye(dim, dtype=complex), (len(h0), dim, dim))
    per_period = max(1, steps_per_period // 4)
    n_steps = floquet_steps(model.drive, steps_per_period)
    matrices = _advance(model, h0, block, BLANES_MOAN_S6, period / per_period,
                        n_steps, [n_steps])[0]
    if n_steps < per_period:
        matrices = matrices.swapaxes(-1, -2) @ matrices
    _check_each(unitarity_defect(matrices), UNITARITY_TOL,
                "propagator unitarity defect")
    return FloquetOperator(matrices, period)


def floquet_operator(model: SectorModel,
                     steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                     ) -> FloquetOperator:
    """One-period propagator starting at t=0."""
    stack = floquet_operators(model, model.static_hamiltonians(),
                              steps_per_period)
    return replace(stack, matrix=stack.matrix[0])
