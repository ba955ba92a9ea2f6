"""Time-ordered unitary evolution and the one-period Floquet operator.

Only the diagonal depends on time, H(t) = H0 + f(t) D.  Every step is S6 of
Blanes and Moan, J. Comput. Appl. Math. 142 (2002) 313, the palindrome
D_0 H0(a_0) D_1 ... H0(a_5) D_6 of H0 exponentials exp(-i a_j h H0) on its
six inner weights and kicks exp(-i b_j h f(t_j) D) on its seven outer ones,
at the time t_j the H0 flow has reached: fourth order for any f, unitary,
and exact for a static H0.  One eigendecomposition of H0 per realization
gives one exponential per distinct weight; the kick that ends a step and
the one that opens the next are merged.

The core advances a block (R, dim, k) of R realizations that share drive
and basis and differ in H0: k = dim for propagators, k = 1 for states.
:func:`evolve_state` and :func:`floquet_operator` take H0 as an (R, dim,
dim) stack, or run the model's own H0 as R = 1; a realization's arithmetic
does not depend on R, so it is bit for bit the same in any batch.  Both cut
the period into P whole S6 steps of H = T/P, S6_SUBSTEPS fine steps each.
Every factor is symmetric (H0 real symmetric, D real diagonal), so for f
even about T/2 and an even P the Floquet operator is U(T) = V^T V from the
half-period V.  States read that product's prefixes A_r = U(rH, 0): g = mP
+ r grid steps give A_r U^m psi0, and a sample at n = S6_SUBSTEPS g + l
fine steps, l > 0, takes one side step of l fine steps, batched over the
samples sharing l.  Both run the whole block they are given, so the caller
sizes it: :mod:`drivenchain.ensemble` passes one batch of realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .hamiltonian import SectorModel
from .model import DriveSpec
from .units import TWO_PI

DEFAULT_STEPS_PER_PERIOD = 256
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-10
#: an S6 step spans this many fine steps, T / steps_per_period at the default
S6_SUBSTEPS = 4

#: S6's weights: one step is the palindrome D(b1) H0(a1) D(b2) H0(a2) D(b3)
#: H0(a3) D(b4) H0(a3) ... D(b1), H0 on S6_DRIFTS and the kicks on S6_KICKS
_A1, _A2 = 0.209515106613362, -0.143851773179818
_B1, _B2, _B3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_A3, _B4 = 0.5 - _A1 - _A2, 1.0 - 2.0 * (_B1 + _B2 + _B3)
S6_DRIFTS = (_A1, _A2, _A3, _A3, _A2, _A1)
S6_KICKS = (_B1, _B2, _B3, _B4, _B3, _B2, _B1)
#: the kicks' weights, and the time each acts at in units of the step (the
#: H0 flow's so far), as columns against the block's
_KICKS = np.array(S6_KICKS)[:, None]
_KICK_TIMES = np.concatenate([[0.0], np.cumsum(S6_DRIFTS)])[:, None]
_PHASE_CHUNK = DEFAULT_STEPS_PER_PERIOD             # bounds the table's memory


def _phase_table(model: SectorModel, step: float, first: int, count: int,
                 origin=0.0):
    """Phases for steps first .. first+count-1 of the columns' clocks.

    Step k's kicks act at ``origin`` + (k + _KICK_TIMES) ``step``;
    ``origin`` is a scalar or one time per column.  Returns the merged
    phases applied before each H0 exponential, (count, 6, dim, 1 or k),
    and the kick that completes each step, (count, dim, 1 or k).
    """
    steps = np.arange(first - 1, first + count)[:, None, None]
    times = np.reshape(origin, (1, 1, -1)) + (steps + _KICK_TIMES) * step
    angles = model.drive.modulation(times) * (step * _KICKS)
    if first == 0:
        angles[0] = 0.0                 # no step precedes the first one
    merged = angles[1:, :-1].copy()
    merged[:, 0] += angles[:-1, -1]
    diag = model.drive_diagonal[:, None]
    return (np.exp(-1j * merged[:, :, None, :] * diag),
            np.exp(-1j * angles[1:, -1, None, :] * diag))


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


def _advance(model: SectorModel, eigh, block: np.ndarray, step: float,
             n_steps: int, emit_steps, origin=0.0) -> np.ndarray:
    """Advance ``block`` (R, dim, k) by ``n_steps`` S6 steps from the
    ``origin`` of :func:`_phase_table`.

    Realization r evolves under the drive of ``model`` and the H0 whose
    ``np.linalg.eigh`` is ``eigh``, taken at [r].  Returns the block after
    each step count in the ascending ``emit_steps``: (R, len(emit_steps),
    dim, k).
    """
    lam, vec = eigh
    # H0 is real symmetric, so its eigenvectors are real: V^H = V^T
    exponentials = {w: _newton_schulz((vec * np.exp(-1j * w * step * lam)
                                       [..., None, :]) @ vec.swapaxes(-1, -2))
                    for w in set(S6_DRIFTS)}
    unitaries = [exponentials[w] for w in S6_DRIFTS]
    out = np.empty((len(block), len(emit_steps)) + block.shape[1:], complex)
    psi, trailing, next_emit = block.copy(), np.ones((block.shape[1], 1)), 0
    for k in range(n_steps + 1):
        while next_emit < len(emit_steps) and emit_steps[next_emit] == k:
            np.multiply(trailing, psi, out=out[:, next_emit])
            next_emit += 1
        if k == n_steps:
            return out
        if k % _PHASE_CHUNK == 0:
            merged, trail = _phase_table(
                model, step, k, min(_PHASE_CHUNK, n_steps - k), origin)
        for phase, unitary in zip(merged[k % _PHASE_CHUNK], unitaries):
            psi *= phase
            psi = unitary @ psi
        trailing = trail[k % _PHASE_CHUNK]


def _check_each(values: np.ndarray, tol: float, what: str) -> None:
    """Fail on the first realization whose value is not <= tol (NaN fails)."""
    bad = np.flatnonzero(~(values <= tol))
    if bad.size:
        raise NumericalError(f"{what} {values[bad[0]]:.3e} exceeds {tol}",
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
    steps: int                  # S6 grid steps spanned, plus the side steps
    step: float                 # the S6 grid step, S6_SUBSTEPS fine steps


def state_grid(drive: DriveSpec, step: float, t_samples) -> tuple:
    """(P, H, K, h, n): P = max(1, round(T / (S6_SUBSTEPS step))) S6 steps
    of H = T/P per period; the prefix table's K, those of :func:`floquet_steps`
    or fewer if the last sample snaps to an earlier one (0 without samples);
    the fine step h = H / S6_SUBSTEPS; and ``t_samples`` (a time or
    ascending times) snapped to the nearest multiples n of h."""
    per_period = max(1, round(drive.period / (S6_SUBSTEPS * step)))
    grid_step = drive.period / per_period
    fine = grid_step / S6_SUBSTEPS
    snapped = np.rint(np.asarray(t_samples, dtype=float) / fine).astype(int)
    count = min(floquet_steps(drive, S6_SUBSTEPS * per_period)[1],
                int(np.max(snapped, initial=0)) // S6_SUBSTEPS)
    return per_period, grid_step, count, fine, snapped


def _prefixes(model: SectorModel, eigh, per_period: int, count: int,
              emit_steps) -> tuple:
    """The identity block after each of ``emit_steps`` of ``count`` S6 steps
    of T / per_period, (R, len(emit_steps), dim, dim), and U(T) from the
    last: itself, or V^T V where ``count`` is half of ``per_period``."""
    dim = eigh[0].shape[-1]
    table = _advance(model, eigh, np.broadcast_to(
        np.eye(dim, dtype=complex), eigh[1].shape), model.drive.period /
        per_period, count, emit_steps)
    u = table[:, -1]
    return table, (u.swapaxes(-1, -2) @ u if 2 * count == per_period else u)


def _grid_states(model: SectorModel, eigh, psi0: np.ndarray, per_period: int,
                 count: int, grid: np.ndarray, states: np.ndarray) -> None:
    """Write psi0's states at the ascending grid steps ``grid`` into
    ``states``, (R, len(grid), dim): g = mP + r reads A_r U^m psi0 off the
    prefixes A_k, k = 0..count, and past count = P/2 the palindrome's time
    reversal A_r = conj(A_{P-r}) U, as conj(A_{P-r} conj(U^{m+1} psi0))."""
    realizations, dim = eigh[0].shape
    table, u = _prefixes(model, eigh, per_period, count, range(count + 1))
    rows_t = table.reshape(realizations, -1, dim).swapaxes(1, 2)
    whole, residue = np.divmod(grid, per_period)
    mirrored = residue > count
    rows, powers = np.where(mirrored, per_period - residue, residue), \
        whole + mirrored
    # one walk up U^m psi0; samples within dim/2 powers read one product of
    # the table with the rows they use (take's "clip": every index is valid)
    vector, power, first = psi0[None, None].repeat(realizations, 0), 0, 0
    while first < len(grid):
        last = np.searchsorted(powers, powers[first] + max(1, dim // 2))
        used, slot = np.unique(2 * powers[first:last] + mirrored[first:last],
                               return_inverse=True)
        window = []
        for k in used:
            while power < k // 2:
                vector, power = vector @ u.swapaxes(-1, -2), power + 1
            window.append(vector.conj() if k % 2 else vector)
        products = np.concatenate(window, 1) @ rows_t
        np.take(products.reshape(realizations, -1, dim),
                slot * (count + 1) + rows[first:last], axis=1,
                out=states[:, first:last], mode="clip")
        first = last
    np.conjugate(states, out=states, where=mirrored[:, None])


def evolve_state(model: SectorModel, psi0: np.ndarray, t_samples,
                 step: float, h0: np.ndarray | None = None) -> StateTrajectory:
    """Propagate the (dim,) amplitudes psi0 from t=0 to the sample times.

    With ``h0`` omitted the static part is the model's own H0 and the
    amplitudes are (time, dim); an (R, dim, dim) ``h0`` stack from
    :meth:`SectorModel.static_hamiltonians` gives (R, time, dim).  The
    trajectory reports the sample times as :func:`state_grid` snaps them.
    A NumericalError is raised unless every emitted state has unit norm to
    1e-10, so an unnormalized psi0 fails too.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    requested = np.asarray(list(t_samples), dtype=float)
    if len(requested) == 0:
        raise ValueError("need at least one sample time")
    if np.any(np.diff(requested) < 0):
        raise ValueError("sample times must be ascending")
    if requested[0] < 0:
        raise ValueError("sample times must be >= 0")
    psi0, dim = np.asarray(psi0, dtype=complex), model.basis.dim
    if psi0.shape != (dim,):
        raise ValueError(f"initial state of shape {psi0.shape} does not fit "
                         f"basis dimension {dim}")

    per_period, grid_step, count, fine, sample_steps = state_grid(
        model.drive, step, requested)
    grid, rest = np.divmod(sample_steps, S6_SUBSTEPS)
    sides = np.unique(rest[rest > 0])
    eigh = np.linalg.eigh(model.static_hamiltonians() if h0 is None else h0)
    states = np.empty((len(eigh[0]), len(grid), dim), dtype=complex)
    _grid_states(model, eigh, psi0, per_period, count, grid, states)
    # one side step of l fine steps from the grid, the samples that share l
    # as the block's columns, each on its own clock
    for l in sides:
        columns = np.flatnonzero(rest == l)
        states[:, columns] = _advance(
            model, eigh, states[:, columns].swapaxes(1, 2), l * fine, 1, [1],
            grid[columns] * grid_step)[:, 0].swapaxes(1, 2)
    # the steps keep psi0's norm, so this also rejects an unnormalized psi0
    _check_each(np.abs(np.linalg.norm(states, axis=-1) - 1.0).max(axis=-1),
                NORM_TOL, "norm drift")
    return StateTrajectory(sample_steps * fine,
                           states[0] if h0 is None else states,
                           int(grid[-1]) + len(sides), grid_step)


def floquet_steps(drive: DriveSpec, steps_per_period: int) -> tuple:
    """(P, K): the period cut into P = max(1, steps_per_period //
    S6_SUBSTEPS) S6 steps, six H0 exponentials each, and the K of them the
    Floquet product integrates, P/2 when P is even and f even about T/2, so
    that U = V^T V."""
    per_period = max(1, steps_per_period // S6_SUBSTEPS)
    if per_period % 2 or math.remainder(drive.effective_phase, math.pi):
        return per_period, per_period
    return per_period, per_period // 2


def floquet_operator(model: SectorModel,
                     steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
                     h0: np.ndarray | None = None) -> FloquetOperator:
    """One-period propagator starting at t=0, V^T V from the half-period
    product V where :func:`floquet_steps` halves: of the model's own H0,
    (dim, dim), or of each static part of an (R, dim, dim) ``h0`` stack."""
    if steps_per_period < 1:
        raise ValueError("steps_per_period must be >= 1")
    per_period, n_steps = floquet_steps(model.drive, steps_per_period)
    eigh = np.linalg.eigh(model.static_hamiltonians() if h0 is None else h0)
    matrices = _prefixes(model, eigh, per_period, n_steps, [n_steps])[1]
    _check_each(unitarity_defect(matrices), UNITARITY_TOL,
                "propagator unitarity defect")
    return FloquetOperator(matrices[0] if h0 is None else matrices,
                           model.drive.period)
