"""Command-line front end.

Subcommands cover the five pipelines: single-shot dynamics, the disorder
ensemble, pooled quasienergy statistics, the semiclassical stability grid,
and the undriven potential contours, plus a device-table checker.  Every
run writes CSV data files and a JSON manifest (config, seeds, output
hashes); data files are byte-identical for identical config and seed.

Exit codes: 0 success, 1 internal error (a defect: the manifest records
its ``error_type``), 2 configuration error, 3 numerical failure.  A failed
check on one disorder realization records its ``realization_index`` in the
manifest.  Every exit code writes the manifest; it holds the config only
once :func:`~drivenchain.config.resolve` has accepted it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ResolvedRun, RunConfig, load_config, resolve
from .device import bundled_table_path, consistency_report, load_device_table
from .ensemble import run_dynamics_ensemble, run_spectrum_ensemble
from .errors import ConfigError, NumericalError
from .model import sample_disorder
from .basis import fock_state
from .observables import observable_series
from .propagate import evolve_state
from .semiclassical import default_grid_axes, potential_contours, stability_grid
from .spectrum import (DEGENERACY_RELATIVE_TOL, coe_cdf, coe_density, coe_mean,
                       ks_distance, poisson_cdf, poisson_density, poisson_mean)
from .units import mhz_from_rad_ns

_FLOAT_FMT = "%.12g"


def _format_row(values) -> str:
    parts = []
    for v in values:
        if isinstance(v, (bool, np.bool_)):
            parts.append("1" if v else "0")
        elif isinstance(v, (int, np.integer)):
            parts.append(str(int(v)))
        else:
            parts.append(_FLOAT_FMT % float(v))
    return ",".join(parts)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(_format_row(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class ManifestWriter:
    """Collects run metadata and guarantees a manifest on every exit path."""

    def __init__(self, out_dir: Path, command: str):
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.data = {
            "tool": "drivenchain",
            "version": __version__,
            "command": command,
            "config": None,
            "outputs": [],
            "status": "running",
        }

    def record_output(self, path: Path) -> None:
        self.data["outputs"].append(
            {"path": path.name, "sha256": _sha256(path)})

    def extra(self, **kwargs) -> None:
        self.data.update(kwargs)

    def finish(self, status: str, error: str = "") -> Path:
        self.data["status"] = status
        if error:
            self.data["error"] = error
        self.data["wall_clock_s"] = round(time.monotonic() - self.started, 6)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")
        return path


def _dynamics_series(run: ResolvedRun, initial_site: int, disorder_index: int = 0):
    """One trajectory (optionally with a single disorder realization)."""
    cfg = run.config
    potential = run.potential
    if cfg.disorder_w_over_j > 0:
        potential = potential.with_overlay(sample_disorder(run.disorder,
                                                           disorder_index))
    model = run.model.with_potential(potential)
    psi0 = fock_state(run.basis, initial_site)
    trajectory = evolve_state(model, psi0, run.sample_times(), run.step_ns)
    ref = cfg.czz_reference_site
    pairs = [(l, ref) for l in range(1, cfg.n_sites + 1) if l != ref]
    return observable_series(trajectory, run.basis, pairs)


def _write_population_csv(path: Path, times, populations,
                          manifest: ManifestWriter) -> None:
    """``time_ns, n_1..n_N`` rows of (time, site) populations."""
    header = ["time_ns"] + [f"n_{l}" for l in range(1, populations.shape[1] + 1)]
    write_csv(path, header, ([t] + list(row) for t, row in zip(times, populations)))
    manifest.record_output(path)


def cmd_dynamics(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    series = _dynamics_series(run, run.config.init_site)
    _write_population_csv(out / "populations.csv", series.times,
                          series.populations, manifest)

    czz_path = out / "czz.csv"
    rows = []
    for (i, j), values in sorted(series.correlations.items()):
        for k, t in enumerate(series.times):
            rows.append([t, i, j, values[k]])
    write_csv(czz_path, ["time_ns", "i", "j", "value"], rows)
    manifest.record_output(czz_path)
    manifest.extra(steps_per_period=run.config.steps_per_period,
                   drive_frequency_mhz=run.drive_frequency_mhz)


def cmd_ensemble(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    cfg = run.config
    result = run_dynamics_ensemble(
        run.model, run.disorder, cfg.init_site, run.sample_times(),
        run.step_ns, keep_realizations=cfg.keep_realizations)
    _write_population_csv(out / "ensemble_populations.csv", result.times,
                          result.mean_populations, manifest)

    if cfg.keep_realizations:
        raw_dir = out / "realizations"
        raw_dir.mkdir(parents=True, exist_ok=True)
        for idx, pops in enumerate(result.per_realization):
            _write_population_csv(raw_dir / f"realization_{idx:04d}.csv",
                                  result.times, pops, manifest)

    manifest.extra(steps_per_period=cfg.steps_per_period,
                   master_seed=cfg.master_seed,
                   drive_frequency_mhz=run.drive_frequency_mhz)


def cmd_spectrum(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    cfg = run.config
    sample = run_spectrum_ensemble(run.model, run.disorder,
                                   steps_per_period=cfg.steps_per_period)
    if sample.count == 0:
        raise ConfigError(f"all {sample.discarded_degenerate} gap ratios touch "
                          f"a degenerate quasienergy gap (below "
                          f"{DEGENERACY_RELATIVE_TOL:g} x the drive frequency), "
                          f"e.g. every coupling is 0: no level statistics")
    edges = np.linspace(0.0, 1.0, cfg.histogram_bins + 1)
    counts, _ = np.histogram(sample.ratios, bins=edges)
    widths = np.diff(edges)
    density = counts / (sample.count * widths)
    centers = 0.5 * (edges[:-1] + edges[1:])

    hist_path = out / "ratio_histogram.csv"
    rows = [[edges[k], edges[k + 1], density[k],
             float(poisson_density(centers[k])), float(coe_density(centers[k]))]
            for k in range(cfg.histogram_bins)]
    write_csv(hist_path, ["r_bin_lo", "r_bin_hi", "empirical_density",
                          "poisson_density", "coe_density"], rows)
    manifest.record_output(hist_path)

    summary = {
        "realizations": cfg.realizations,
        "pooled_ratio_count": sample.count,
        "discarded_degenerate": sample.discarded_degenerate,
        "mean_r": sample.mean(),
        "ks_poisson": ks_distance(sample, poisson_cdf),
        "ks_coe": ks_distance(sample, coe_cdf),
        "poisson_mean": poisson_mean(),
        "coe_mean_closed_form": coe_mean(),
        "drive_frequency_mhz": run.drive_frequency_mhz,
        "sector": cfg.sector,
        "disorder_w_over_j": cfg.disorder_w_over_j,
    }
    summary_path = out / "spectrum_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    manifest.record_output(summary_path)
    manifest.extra(master_seed=cfg.master_seed,
                   steps_per_period=cfg.steps_per_period)


def cmd_stability(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    params = run.semiclassical_params()
    omega_values, delta1_values = default_grid_axes(
        params, run.config.stability_resolution)
    grid = stability_grid(omega_values, delta1_values, params)
    path = out / "stability_grid.csv"
    write_csv(path, ["omega", "delta1", "abs_trace", "stable"],
              grid.iter_rows())
    manifest.record_output(path)
    manifest.extra(small_oscillation_frequency_mhz=mhz_from_rad_ns(
        params.small_oscillation_frequency))


def cmd_contours(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    params = run.semiclassical_params()
    res = run.config.contour_resolution
    q_values = np.linspace(0.0, 2.0 * np.pi, res)
    p_values = np.linspace(-np.pi, np.pi, res)
    field = potential_contours(q_values, p_values, params)
    rows = []
    for i, q in enumerate(q_values):
        for j, p in enumerate(p_values):
            rows.append([q, p, field[i, j]])
    path = out / "contours.csv"
    write_csv(path, ["q", "p", "value"], rows)
    manifest.record_output(path)


def cmd_device_check(table_path, out: Path, manifest: ManifestWriter) -> None:
    path = table_path or bundled_table_path()
    table = load_device_table(path)
    warnings = consistency_report(table)
    report = {
        "table": str(path),
        "n_sites": table.n_sites,
        "rotating_frame_ghz": table.rotating_frame_ghz("cosine"),
        "dc_amplitude_mhz": table.dc_amplitude_mhz("cosine"),
        "couplings_mhz": list(table.couplings_mhz),
        "mean_coupling_mhz": float(np.mean(table.couplings_mhz)),
        "eta_mhz": list(table.eta_mhz),
        "t1_us": list(table.t1_us),
        "t2s_us": list(table.t2s_us),
        "warnings": warnings,
    }
    report_path = out / "device_report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    manifest.record_output(report_path)
    print(f"device table: {path}")
    print(f"  rotating frame {report['rotating_frame_ghz']:.4f} GHz, "
          f"cosine amplitude {report['dc_amplitude_mhz']:.2f} MHz, "
          f"mean coupling {report['mean_coupling_mhz']:.2f} MHz")
    for w in warnings:
        print(f"  warning: {w}")
    if not warnings:
        print("  no inconsistencies found")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenchain",
        description="Driven-chain simulator: dynamics, disorder ensembles, "
                    "quasienergy statistics, and semiclassical stability.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("--seed", dest="master_seed", type=int,
                       help="master seed override")
        p.add_argument("--realizations", type=int, help="ensemble size override")
        p.add_argument("--steps-per-period", type=int,
                       help="propagator steps per drive period")
        p.add_argument("--profile", choices=("cosine", "flat", "table"),
                       help="potential profile override")
        p.add_argument("--disorder-w", dest="disorder_w_over_j", type=float,
                       metavar="W_OVER_J",
                       help="disorder strength in units of the mean coupling")
        p.add_argument("--init-site", type=int, help="initial excitation site")
        p.add_argument("--sector", type=int, help="total excitation number")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: ./out)")
        p.add_argument("--keep-realizations", action="store_true", default=None,
                       help="also dump per-realization data")

    for name, doc in (("dynamics", "single-run populations and ZZ correlations"),
                      ("ensemble", "disorder-averaged population dynamics"),
                      ("spectrum", "pooled quasienergy gap-ratio statistics"),
                      ("stability", "semiclassical stability grid"),
                      ("contours", "undriven semiclassical energy contours")):
        add_common(sub.add_parser(name, help=doc))

    check = sub.add_parser("device-check", help="validate a device table")
    check.add_argument("--table", type=Path, help="device table JSON "
                       "(default: bundled table)")
    check.add_argument("--out", type=Path, default=Path("out"))
    return parser


_COMMANDS = {
    "dynamics": cmd_dynamics,
    "ensemble": cmd_ensemble,
    "spectrum": cmd_spectrum,
    "stability": cmd_stability,
    "contours": cmd_contours,
}


def _check_sector(command: str, run: ResolvedRun) -> None:
    """Reject a sector the command has no initial state or statistics in."""
    if command in ("dynamics", "ensemble") and run.basis.total_excitations != 1:
        raise ConfigError(f"{command} starts from a single excitation: "
                          f"it needs sector = 1")
    if command == "spectrum" and run.basis.dim < 3:
        raise ConfigError("spectrum needs a sector with at least 3 states")


def _fail(manifest: ManifestWriter, label: str, exc: Exception, code: int) -> int:
    print(f"{label}: {exc}", file=sys.stderr)
    manifest.extra(error_type=type(exc).__name__)
    manifest.finish("failed", str(exc))
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out: Path = args.out
    manifest = ManifestWriter(out, args.command)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "device-check":
            cmd_device_check(args.table, out, manifest)
        else:
            config = load_config(args.config) if args.config else RunConfig()
            # a flag left out is None and never overrides the file
            run = resolve(replace(config, **{
                f.name: getattr(args, f.name) for f in fields(RunConfig)
                if getattr(args, f.name, None) is not None}))
            manifest.extra(config=run.config.to_dict())
            _check_sector(args.command, run)
            _COMMANDS[args.command](run, out, manifest)
    except ConfigError as exc:
        return _fail(manifest, "config error", exc, 2)
    except NumericalError as exc:
        if exc.realization_index is not None:
            manifest.extra(realization_index=exc.realization_index)
        return _fail(manifest, "numerical failure", exc, 3)
    except Exception as exc:        # a defect: report it, never lose the manifest
        traceback.print_exc()
        return _fail(manifest, "internal error", exc, 1)
    manifest.finish("success")
    return 0


if __name__ == "__main__":
    sys.exit(main())
