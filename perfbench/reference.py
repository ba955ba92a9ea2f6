"""Output checks and converged references for the benchmark workloads.

Every reference here is computed by the benchmark itself, never by the
program function being measured:

* quantum workloads: an exponential-midpoint product at ``REFINE`` times
  the program's default steps per period, built from the resolved chain,
  drive and potential specs of the single-excitation sector (hopping on the
  bonds, static offsets plus disorder on the diagonal, the AC drive on the
  driven sites);
* stability grid: DOP853 at tight tolerance on whole grid rows, and the
  analytic zero-modulation column |tr M| = 2|cos(Omega T)|.

``check_<workload>`` returns ``(ref_err, problems)``: the deviation from the
reference over the sampled realizations, jobs or cells, and the failed
output checks as ``(job index, message)`` pairs, where index None fails
every job (an empty list when the outputs are correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp

#: Reference substeps per program step.
REFINE = 32
#: Largest accepted ref_err on every workload: a population, a Floquet
#: matrix element, or a scaled |tr M| off by less than this cannot move a
#: plotted curve visibly or flip a stability flag outside FLAG_CUSHION.
#: Accuracy regressions smaller than this are caught by the ref_err bound.
TOLERANCE = 1e-3
TRACE_CHECK_MAX = 10.0
#: A stability flag is checked only where the reference |tr M| is this far
#: from 2 (the program's own classification cushion is 1e-4).
FLAG_CUSHION = TOLERANCE
NORM_TOL = 1e-9


def read_csv(path) -> np.ndarray:
    """Float rows of a CSV written by the program (header skipped)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# quantum reference


def _sector_sites(basis) -> np.ndarray:
    states = np.asarray(basis.states)
    if not np.all(states.sum(axis=1) == 1):
        raise ValueError("the reference covers the single-excitation sector only")
    return states.argmax(axis=1)


def period_prefixes(run, overlays, steps_per_period: int) -> np.ndarray:
    """Reference U(k*T/steps_per_period) for k = 0..steps_per_period.

    Only the diagonal depends on time, H(t) = A + f(t) D, so each of the
    ``REFINE`` substeps per program step is a Strang splitting
    exp(-i f D h/2) exp(-i A h) exp(-i f D h/2) with f at the substep
    midpoint: one eigendecomposition of A per overlay, then phases and one
    matrix product per substep.  One stack entry per disorder overlay;
    shape (steps+1, K, dim, dim).
    """
    sites = _sector_sites(run.basis)
    n = run.chain.n_sites
    hop = np.zeros((n, n))
    bonds = np.arange(n - 1)
    hop[bonds, bonds + 1] = hop[bonds + 1, bonds] = run.chain.bond_couplings
    static = np.array([(hop + np.diag(run.potential.static_offsets + extra))
                       [np.ix_(sites, sites)] for extra in overlays])
    weights = np.asarray(run.drive.spatial_weights)[sites]
    drive = run.drive
    substeps = steps_per_period * REFINE
    h = drive.period / substeps
    lam, vec = np.linalg.eigh(static)
    hop_step = (vec * np.exp(-1j * h * lam)[:, None, :]) @ vec.transpose(0, 2, 1)
    u = np.broadcast_to(np.eye(len(sites), dtype=complex), static.shape).copy()
    prefixes = [u]
    for j in range(substeps):
        t = (j + 0.5) * h
        f = drive.ac_amplitude * math.cos(
            drive.angular_frequency * (t - drive.time_origin) + drive.phase)
        half = np.exp(-0.5j * h * f * weights)[:, None]
        u = half * (hop_step @ (half * u))
        if (j + 1) % REFINE == 0:
            prefixes.append(u)
    return np.array(prefixes)


def populations_at(prefixes: np.ndarray, step_indices, basis,
                   site: int) -> np.ndarray:
    """Site populations at U(k*step) psi0 for each k; (len, K, n_sites).

    ``psi0`` is the excitation on the 1-based ``site``; one period of
    prefixes covers any k through U(k*step) = U(r*step) F^m.
    """
    column = basis.index_of([1 if l == site - 1 else 0
                             for l in range(basis.n_sites)])
    states = np.asarray(basis.states, dtype=float)
    per_period = len(prefixes) - 1
    columns = {}
    out = []
    for k in step_indices:
        m, r = divmod(int(k), per_period)
        if m not in columns:
            columns[m] = np.linalg.matrix_power(prefixes[-1], m)[..., column]
        amplitudes = np.einsum("kij,kj->ki", prefixes[r], columns[m])
        out.append(np.abs(amplitudes) ** 2 @ states)
    return np.array(out)


def _resolve(path):
    from drivenchain.config import load_config, resolve
    return resolve(load_config(path))


def _overlays(run, indices):
    from drivenchain.model import sample_disorder
    return [sample_disorder(run.disorder, i) for i in indices]


def _step_indices(times, step):
    return np.rint(np.asarray(times) / step).astype(int)


# ---------------------------------------------------------------------------
# per-workload checks


def check_ensemble_flat_w3(wl, config_dir, outputs):
    """evolve_state on every realization, and the mean-population CSV.

    The error is the largest population deviation of any realization or of
    the written mean; the maximum over all R realizations barely depends on
    which disorder the seed drew.
    """
    from drivenchain.basis import fock_state
    from drivenchain.propagate import evolve_state

    run = _resolve(config_dir / "ensemble.cfg")
    problems = []
    data = read_csv(outputs[0] / "ensemble_populations.csv")
    if data.shape != (len(run.sample_times()), run.chain.n_sites + 1):
        return float("nan"), [(None, f"ensemble CSV shape {data.shape}")]
    if np.abs(data[:, 1:].sum(axis=1) - 1.0).max() > NORM_TOL:
        problems.append((None, "ensemble populations do not sum to 1"))

    overlays = _overlays(run, range(run.config.realizations))
    prefixes = period_prefixes(run, overlays, run.config.steps_per_period)
    ref = populations_at(prefixes, _step_indices(data[:, 0], run.step_ns),
                         run.basis, run.config.init_site)
    err = float(np.abs(data[:, 1:] - ref.mean(axis=1)).max())
    psi0 = fock_state(run.basis, run.config.init_site)
    for k, extra in enumerate(overlays):
        model = run.model.with_potential(run.potential.with_overlay(extra))
        traj = evolve_state(model, psi0, run.sample_times(), run.step_ns)
        pops = np.abs(traj.amplitudes) ** 2 @ np.asarray(run.basis.states)
        err = max(err, float(np.abs(pops - ref[:, k]).max()))
    return err, problems


def check_spectrum_flat_w3(wl, config_dir, outputs):
    """Summary and histogram sanity; Floquet operators of sampled realizations.

    The Floquet operator is taken at the program's default steps per period,
    read from ``RunConfig()``.
    """
    from drivenchain.config import RunConfig
    from drivenchain.propagate import floquet_operator

    run = _resolve(config_dir / "spectrum.cfg")
    problems = []
    summary = json.loads((outputs[0] / "spectrum_summary.json").read_text())
    slots = run.config.realizations * (run.basis.dim - 2)
    if summary["pooled_ratio_count"] + summary["discarded_degenerate"] != slots:
        problems.append((None, "pooled + discarded ratios != R*(dim-2)"))
    if not 0.0 < summary["mean_r"] < 1.0:
        problems.append((None, f"mean_r {summary['mean_r']} outside (0, 1)"))
    hist = read_csv(outputs[0] / "ratio_histogram.csv")
    mass = float(np.sum(hist[:, 2] * (hist[:, 1] - hist[:, 0])))
    if abs(mass - 1.0) > 1e-9:
        problems.append((None, f"ratio histogram integrates to {mass}"))

    steps = RunConfig().steps_per_period
    overlays = _overlays(run, wl.sample["realizations"])
    reference = period_prefixes(run, overlays, steps)[-1]
    err = 0.0
    for k, extra in enumerate(overlays):
        model = run.model.with_potential(run.potential.with_overlay(extra))
        matrix = floquet_operator(model, steps).matrix
        err = max(err, float(np.abs(matrix - reference[k]).max()))
    return err, problems


def check_dynamics_sweep(wl, config_dir, outputs):
    """Every job's populations.csv against the reference; czz consistency.

    Each job has its own disorder draw (``--seed``), realization 0.  The
    error is the mean over jobs of each job's largest deviation; every
    job's own largest deviation must stay within TOLERANCE.  In the
    single-excitation sector sz_i sz_j has no doubly occupied states, so
    czz(i, j) = -4 n_i n_j exactly.
    """
    from drivenchain.model import sample_disorder

    problems = []
    options = [dict(zip(argv[1::2], argv[2::2])) for argv in wl.jobs]
    by_config = {}
    for index, opts in enumerate(options):
        by_config.setdefault(opts["--config"], []).append(index)
    errors = []
    for cfg_name, indices in by_config.items():
        run = _resolve(config_dir / cfg_name)
        overlays = [sample_disorder(replace(
            run.disorder, master_seed=int(options[i]["--seed"])), 0)
            for i in indices]
        prefixes = period_prefixes(run, overlays, run.config.steps_per_period)
        for k, index in enumerate(indices):
            site = int(options[index]["--init-site"])
            pops = read_csv(outputs[index] / "populations.csv")
            times = pops[:, 0]
            ref = populations_at(prefixes[:, k:k + 1],
                                 _step_indices(times, run.step_ns),
                                 run.basis, site)[:, 0]
            if pops.shape != (len(run.sample_times()), ref.shape[1] + 1):
                problems.append((index, f"populations shape {pops.shape}"))
                continue
            err = float(np.abs(pops[:, 1:] - ref).max())
            errors.append(err)
            if not err <= TOLERANCE:
                problems.append((index, f"error {err:.3e} exceeds "
                                        f"{TOLERANCE:.0e}"))

            czz = read_csv(outputs[index] / "czz.csv")
            row = np.searchsorted(times, czz[:, 0])
            i, j = czz[:, 1].astype(int), czz[:, 2].astype(int)
            implied = -4.0 * pops[row, i] * pops[row, j]
            if np.abs(czz[:, 3] - implied).max() > NORM_TOL:
                problems.append((index, "czz inconsistent with populations"))
    return (float(np.mean(errors)) if errors else float("nan")), problems


def _row_traces(params, omega: float, delta1: np.ndarray) -> np.ndarray:
    """|tr M| for one omega and many delta1, by DOP853 on the linearized flow."""
    n = params.n_sites
    a = 8.0 * math.pi * params.hopping / n
    c0 = 4.0 * math.pi / n
    d0 = params.dc_amplitude
    cells = len(delta1)

    def rhs(t, y):
        m = y.reshape(4, cells)
        c = c0 * (d0 + delta1 * math.cos(omega * t))
        return np.concatenate([-a * m[2], -a * m[3], c * m[0], c * m[1]])

    y0 = np.concatenate([np.ones(cells), np.zeros(cells), np.zeros(cells),
                         np.ones(cells)])
    sol = solve_ivp(rhs, (0.0, 2.0 * math.pi / omega), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    m = sol.y[:, -1].reshape(4, cells)
    return np.abs(m[0] + m[3])


def check_stability_grid(wl, config_dir, outputs):
    """Sampled rows by DOP853, the delta1 = 0 column analytically.

    The error is |tr_cli - tr_ref| / max(|tr_ref|, 1) on cells with
    |tr_ref| <= 10 (absolute below 1, relative above).
    """
    run = _resolve(config_dir / "stability.cfg")
    params = run.semiclassical_params()
    res = run.config.stability_resolution
    problems = []
    data = read_csv(outputs[0] / "stability_grid.csv")
    if data.shape != (res * res, 4):
        return float("nan"), [(None, f"stability CSV shape {data.shape}")]
    omega, delta1, trace, stable = (data[:, c].reshape(res, res)
                                    for c in range(4))

    n = params.n_sites
    small_omega = math.sqrt((8.0 * math.pi * params.hopping / n)
                            * (4.0 * math.pi / n) * params.dc_amplitude)
    checked = [(trace[:, 0], stable[:, 0],
                2.0 * np.abs(np.cos(small_omega * 2.0 * math.pi / omega[:, 0])))]
    if np.any(delta1[:, 0] != 0.0):
        problems.append((None, "first delta1 column is not zero modulation"))
    for r in wl.sample["rows"]:
        checked.append((trace[r], stable[r],
                        _row_traces(params, float(omega[r, 0]), delta1[r])))

    err = 0.0
    for got, flag, ref in checked:
        mask = ref <= TRACE_CHECK_MAX
        if np.any(mask):
            rel = np.abs(got - ref)[mask] / np.maximum(ref[mask], 1.0)
            err = max(err, float(rel.max()))
        decided = np.abs(ref - 2.0) > FLAG_CUSHION
        if np.any((flag[decided] == 1) != (ref[decided] < 2.0)):
            problems.append((None, "stable flag differs from the reference"))
    return err, problems


CHECKS = {
    "ensemble_flat_w3": check_ensemble_flat_w3,
    "spectrum_flat_w3": check_spectrum_flat_w3,
    "stability_grid": check_stability_grid,
    "dynamics_sweep": check_dynamics_sweep,
}


def check(wl, config_dir, outputs):
    """(ref_err, problems) for the outputs of every job index."""
    err, problems = CHECKS[wl.name](wl, config_dir, outputs)
    if not err <= TOLERANCE:
        problems.append((None, f"ref_err {err:.3e} exceeds tolerance "
                               f"{TOLERANCE:.0e}"))
    return err, problems
