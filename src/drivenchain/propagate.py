"""Time-ordered unitary evolution and the one-period Floquet operator.

Only the diagonal depends on time, H(t) = H0 + f(t) D.  A step of size h
composes three Strang steps exp(-i f D tau/2) exp(-i H0 tau) exp(-i f D tau/2),
tau = w h, with the Yoshida triple-jump weights (w1, w0, w1) and f frozen at
each substep midpoint: fourth order, unitary by construction, and exact for
a static Hamiltonian.  One eigendecomposition of H0 per realization gives
the two distinct exponentials; adjacent half-phases are merged.

The core advances a block (R, dim, k) of R realizations that share drive
and basis: k = dim for propagators, k = 1 for states.  A realization's
arithmetic does not depend on R, so the batched functions return bit for
bit what the single-realization ones return.  Dynamics steps directly, so
sample times need not fall on whole periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import QuantumState
from .errors import NumericalError
from .hamiltonian import SectorModel
from .semiclassical import YOSHIDA_WEIGHTS
from .units import TWO_PI

DEFAULT_STEPS_PER_PERIOD = 256
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-10

_WEIGHTS = np.array(YOSHIDA_WEIGHTS)
_MIDPOINTS = np.cumsum(_WEIGHTS) - 0.5 * _WEIGHTS   # in units of the step
_PHASE_CHUNK = DEFAULT_STEPS_PER_PERIOD             # bounds the table's memory


def _phase_table(model: SectorModel, step: float, first: int, count: int):
    """Phases for steps first .. first+count-1.

    Returns the merged phases applied before each substep exponential,
    (count, 3, dim, 1), and the half-phase that completes each step,
    (count, dim, 1).
    """
    steps = np.arange(first - 1, first + count)[:, None]
    half = (model.drive.modulation((steps + _MIDPOINTS) * step)
            * (0.5 * step * _WEIGHTS))
    if first == 0:
        half[0] = 0.0                   # no step precedes the first one
    flat = half.ravel()
    merged = (flat[3:] + flat[2:-1]).reshape(count, 3)
    diag = model.drive_diagonal[:, None]
    return (np.exp(-1j * merged[..., None, None] * diag),
            np.exp(-1j * half[1:, 2, None, None] * diag))


def _advance(models, block: np.ndarray, step: float, n_steps: int,
             emit_steps) -> np.ndarray:
    """Advance ``block`` (R, dim, k) by ``n_steps`` steps from t = 0.

    Realization r evolves under ``models[r]``.  Returns the block after each
    step count in the ascending ``emit_steps``: (len(emit_steps), R, dim, k).
    """
    lam, vec = np.linalg.eigh(np.stack([m.static_hamiltonian for m in models]))
    # H0 is real symmetric, so its eigenvectors are real: V^H = V^T
    outer, inner = ((vec * np.exp(-1j * w * step * lam)[..., None, :])
                    @ vec.swapaxes(-1, -2) for w in _WEIGHTS[:2])
    out = np.empty((len(emit_steps),) + block.shape, dtype=complex)
    psi, trailing, next_emit = block.copy(), np.ones((block.shape[1], 1)), 0
    for k in range(n_steps + 1):
        while next_emit < len(emit_steps) and emit_steps[next_emit] == k:
            out[next_emit] = trailing * psi
            next_emit += 1
        if k == n_steps:
            return out
        if k % _PHASE_CHUNK == 0:
            merged, trail = _phase_table(models[0], step, k,
                                         min(_PHASE_CHUNK, n_steps - k))
        for phase, unitary in zip(merged[k % _PHASE_CHUNK], (outer, inner, outer)):
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
    """One-period propagator U(T) together with the drive period used."""

    matrix: np.ndarray
    period: float
    steps_per_period: int

    @property
    def angular_frequency(self) -> float:
        return TWO_PI / self.period


@dataclass(frozen=True)
class StateTrajectory:
    """States sampled along one evolution.

    ``times`` are the actual (step-aligned) emission times; ``requested_times``
    are what the caller asked for before snapping to the step grid.
    """

    requested_times: np.ndarray
    times: np.ndarray
    amplitudes: np.ndarray      # (len(times), dim)
    basis_tag: str


def evolve_states(models, psi0: QuantumState, t_samples, step: float) -> list:
    """:func:`evolve_state` for a batch of models sharing drive and basis."""
    if step <= 0:
        raise ValueError("step must be positive")
    requested = np.asarray(list(t_samples), dtype=float)
    if len(requested) == 0:
        raise ValueError("need at least one sample time")
    if np.any(np.diff(requested) < 0):
        raise ValueError("sample times must be ascending")
    if requested[0] < 0:
        raise ValueError("sample times must be >= 0")
    psi0.check_normalized()

    sample_steps = np.rint(requested / step).astype(int)
    block = np.broadcast_to(psi0.amplitudes.astype(complex)[:, None],
                            (len(models), psi0.basis.dim, 1))
    states = _advance(models, block, step, int(sample_steps[-1]),
                      sample_steps)[..., 0]
    drift = np.abs(np.linalg.norm(states, axis=-1) - 1.0).max(axis=0)
    _check_each(drift, NORM_TOL, "norm drift")
    actual = sample_steps * step
    return [StateTrajectory(requested, actual, amps, models[0].basis.tag)
            for amps in np.ascontiguousarray(states.swapaxes(0, 1))]


def evolve_state(model: SectorModel, psi0: QuantumState, t_samples,
                 step: float) -> StateTrajectory:
    """Propagate psi0 from t=0, emitting states at the sample times.

    Sample times are snapped to the nearest multiple of ``step``; the
    returned trajectory reports both the requested and the actual times.
    Norm conservation is enforced to 1e-10 at every emission.
    """
    return evolve_states([model], psi0, t_samples, step)[0]


def floquet_operators(models, steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                      ) -> list:
    """:func:`floquet_operator` for a batch of models sharing drive and basis."""
    if steps_per_period < 1:
        raise ValueError("steps_per_period must be >= 1")
    period = models[0].drive.period
    dim = models[0].basis.dim
    block = np.broadcast_to(np.eye(dim, dtype=complex), (len(models), dim, dim))
    matrices = _advance(models, block, period / steps_per_period,
                        steps_per_period, [steps_per_period])[0]
    _check_each(unitarity_defect(matrices), UNITARITY_TOL,
                "propagator unitarity defect")
    return [FloquetOperator(m, period, steps_per_period) for m in matrices]


def floquet_operator(model: SectorModel,
                     steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                     ) -> FloquetOperator:
    """One-period propagator starting at t=0."""
    return floquet_operators([model], steps_per_period)[0]
