"""Command-line front end.

Subcommands cover the five pipelines: single-shot dynamics, the disorder
ensemble, pooled quasienergy statistics, the semiclassical stability grid,
and the undriven potential contours, plus a device-table checker.  Every
run writes CSV data files and a JSON manifest (config, seeds, output
hashes); data files are byte-identical for identical config and seed.

Exit codes: 0 success, 1 internal error (a defect: the manifest records
its ``error_type``), 2 configuration error, 3 numerical failure.  Every exit
code writes the manifest, except a usage error and an output directory
that cannot be made; it holds the config only once
:func:`~drivenchain.config.resolve` has accepted it.

A runner writes its facts (steps, health, batch size, a failed check's
``realization_index``) into the run record, ``ManifestWriter.record``, as
it learns them; ``finish`` merges it on every exit path, ``batch_size``
into ``environment`` and every other key at the top level.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import sys
import time
import traceback
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ResolvedRun, RunConfig, load_config, parse_value, resolve
from .device import bundled_table_path, consistency_report, load_device_table
from .ensemble import run_dynamics_ensemble, run_spectrum_ensemble
from .errors import ConfigError, NumericalError
from .semiclassical import (MIN_STEPS_PER_OSCILLATION, default_grid_axes,
                            potential_contours, stability_grid)
from .spectrum import (coe_cdf, coe_density, coe_mean, ks_distance,
                       poisson_cdf, poisson_density, poisson_mean)
from .units import mhz_from_rad_ns

_FLOAT_FMT = "%.12g"


#: rows of one formatted block of a table: bounds the flat value list
BLOCK_ROWS = 1024


def write_csv(path: Path, header, fmt: str, *columns) -> None:
    """Write the header line, then the rows of equal-length ``columns``,
    BLOCK_ROWS rows to one ``%`` operation.

    ``fmt`` holds one %-conversion per column: ``%.12g`` for floats, ``%d``
    for integers and flags, ``%s`` for values given as text.  Columns are
    lists, or 1-d arrays read through ``.tolist()``.  A block's slices are
    interleaved into one flat list, row by row, and formatted through
    ``fmt`` repeated once per row.
    """
    line, k = fmt + "\n", len(columns)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), BLOCK_ROWS):
            block = [column[lo:lo + BLOCK_ROWS] for column in columns]
            flat = [None] * (k * len(block[0]))
            for j, column in enumerate(block):
                flat[j::k] = (column.tolist() if isinstance(column, np.ndarray)
                              else column)
            f.write((line * len(block[0])) % tuple(flat))


def _grid_text(x_values, y_values) -> tuple:
    """The x and y columns of an x-major grid as text, each distinct value
    formatted once through _FLOAT_FMT, so the row format takes them with
    ``%s``."""
    x_text = [_FLOAT_FMT % x for x in x_values.tolist()]
    y_text = [_FLOAT_FMT % y for y in y_values.tolist()]
    return [x for x in x_text for _ in y_text], y_text * len(x_text)


def _sha256(path: Path) -> str:
    """The file's sha256, read in 1 MiB chunks, never whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity call on this OS
        return os.cpu_count() or 1


def _environment() -> dict:
    """What the run ran on: Python, numpy and its BLAS, the CPUs, and the
    BLAS thread settings (None where unset)."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
        blas = build["blas"]["name"]
    except (TypeError, KeyError):           # numpy < 1.26 has no dict mode
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
            **{name: os.environ.get(name)
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


class ManifestWriter:
    """Collects run metadata and the runners' ``record``, and writes the
    manifest on every exit path."""

    def __init__(self, out_dir: Path, command: str):
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.data = {
            "tool": "drivenchain",
            "version": __version__,
            "command": command,
            "config": None,
            "environment": _environment(),
            "outputs": [],
            "status": "running",
        }
        self.record = {}

    def record_output(self, path: Path) -> None:
        self.data["outputs"].append(
            {"path": path.name, "sha256": _sha256(path)})

    def finish(self, status: str, error: str = "") -> None:
        for key, value in self.record.items():
            (self.data["environment"] if key == "batch_size"
             else self.data)[key] = value
        self.data["status"] = status
        if error:
            self.data["error"] = error
        self.data["wall_clock_s"] = round(time.monotonic() - self.started, 6)
        (self.out_dir / "manifest.json").write_text(
            json.dumps(self.data, indent=2, sort_keys=True) + "\n")


def _write_population_csv(path: Path, times, populations) -> Path:
    """``time_ns, n_1..n_N`` rows of (time, site) populations."""
    n_sites = populations.shape[1]
    header = ["time_ns"] + [f"n_{l}" for l in range(1, n_sites + 1)]
    write_csv(path, header, ",".join([_FLOAT_FMT] * (n_sites + 1)),
              times, *populations.T)
    return path


def cmd_dynamics(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    cfg = run.config
    # realization 0's own rows (R = 1): a sum would turn -0.0 into 0.0
    ref, batches = cfg.czz_reference_site, []
    times = run_dynamics_ensemble(
        run.model, run.disorder, cfg.init_site, run.sample_times(),
        run.step_ns, lambda *batch: batches.append(batch),
        [(l, ref) for l in range(1, cfg.n_sites + 1) if l != ref],
        manifest.record)
    _, _, populations, correlations = batches[0]
    manifest.record_output(_write_population_csv(
        out / "populations.csv", times, populations[0]))

    czz_path = out / "czz.csv"
    # pair-major rows; each time and each pair formatted once
    pairs = sorted(correlations)
    times = [_FLOAT_FMT % t for t in times.tolist()]
    write_csv(czz_path, ["time_ns", "i", "j", "value"], f"%s,%s,{_FLOAT_FMT}",
              times * len(pairs),
              [text for i, j in pairs for text in [f"{i},{j}"] * len(times)],
              np.concatenate([correlations[pair][0] for pair in pairs]))
    manifest.record_output(czz_path)


def cmd_ensemble(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    cfg = run.config
    # a sum from row 0, row by row in order, over R: bitwise mean(axis=0)
    total, kept, raw_dir = [None], [], out / "realizations"

    def each(batch, times, populations, _):
        for index, row in enumerate(populations, batch.start):
            total[0] = total[0] + row if index else row
            if cfg.keep_realizations:
                raw_dir.mkdir(exist_ok=True)
                kept.append(_write_population_csv(
                    raw_dir / f"realization_{index:04d}.csv", times, row))
    try:
        times = run_dynamics_ensemble(
            run.model, run.disorder, cfg.init_site, run.sample_times(),
            run.step_ns, each, record=manifest.record)
        manifest.record_output(_write_population_csv(
            out / "ensemble_populations.csv", times,
            total[0] / cfg.realizations))
    finally:    # the realizations after the mean, or those a failed run wrote
        for path in kept:
            manifest.record_output(path)


def cmd_spectrum(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    cfg = run.config
    sample = run_spectrum_ensemble(run.model, run.disorder,
                                   cfg.steps_per_period, manifest.record)
    edges = np.linspace(0.0, 1.0, cfg.histogram_bins + 1)
    counts, _ = np.histogram(sample.ratios, bins=edges)
    widths = np.diff(edges)
    density = counts / (sample.count * widths)
    centers = 0.5 * (edges[:-1] + edges[1:])

    hist_path = out / "ratio_histogram.csv"
    write_csv(hist_path, ["r_bin_lo", "r_bin_hi", "empirical_density",
                          "poisson_density", "coe_density"],
              ",".join([_FLOAT_FMT] * 5), edges[:-1], edges[1:], density,
              poisson_density(centers), coe_density(centers))
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


def cmd_stability(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    params = run.semiclassical_params()
    omega_values, delta1_values = default_grid_axes(
        params, run.config.stability_resolution)
    grid = stability_grid(omega_values, delta1_values, params)
    path = out / "stability_grid.csv"
    write_csv(path, ["omega", "delta1", "abs_trace", "stable"],
              f"%s,%s,{_FLOAT_FMT},%d",
              *_grid_text(grid.omega_values, grid.delta1_values),
              grid.abs_trace.ravel(), grid.stable.ravel())
    manifest.record_output(path)
    manifest.record.update(small_oscillation_frequency_mhz=mhz_from_rad_ns(
        params.small_oscillation_frequency),
        monodromy_steps_floor=MIN_STEPS_PER_OSCILLATION,
        monodromy_groups=grid.monodromy_groups, health=grid.health)


def cmd_contours(run: ResolvedRun, out: Path, manifest: ManifestWriter) -> None:
    params = run.semiclassical_params()
    res = run.config.contour_resolution
    q_values = np.linspace(0.0, 2.0 * np.pi, res)
    p_values = np.linspace(-np.pi, np.pi, res)
    field = potential_contours(q_values, p_values, params)
    path = out / "contours.csv"
    write_csv(path, ["q", "p", "value"], f"%s,%s,{_FLOAT_FMT}",
              *_grid_text(q_values, p_values), field.ravel())
    manifest.record_output(path)


def cmd_device_check(table_path, out: Path, manifest: ManifestWriter) -> None:
    path = table_path or bundled_table_path()
    table = load_device_table(path)
    warnings = consistency_report(table)
    report = {
        "table": path.name,
        "table_sha256": _sha256(path),
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


_COMMANDS = {
    "dynamics": (cmd_dynamics, "single-run populations and ZZ correlations"),
    "ensemble": (cmd_ensemble, "disorder-averaged population dynamics"),
    "spectrum": (cmd_spectrum, "pooled quasienergy gap-ratio statistics"),
    "stability": (cmd_stability, "semiclassical stability grid"),
    "contours": (cmd_contours, "undriven semiclassical energy contours"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it.  Value flags keep their text for the config parser."""
    parser = argparse.ArgumentParser(
        prog="drivenchain",
        description="Driven-chain simulator: dynamics, disorder ensembles, "
                    "quasienergy statistics, and semiclassical stability.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("--seed", dest="master_seed", help="master seed override")
        p.add_argument("--realizations", help="ensemble size override")
        p.add_argument("--steps-per-period",
                       help="quantum propagator steps per drive period "
                            "(stability's monodromy has its own step rule)")
        p.add_argument("--profile", help="potential profile override")
        p.add_argument("--disorder-w", dest="disorder_w_over_j",
                       metavar="W_OVER_J",
                       help="disorder strength in units of the mean coupling")
        p.add_argument("--init-site", help="initial excitation site")
        p.add_argument("--sector", help="total excitation number")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: ./out)")
        p.add_argument("--keep-realizations", action="store_const",
                       const="true", help="also dump per-realization data")

    check = sub.add_parser("device-check", help="validate a device table")
    check.add_argument("--table", type=Path, help="device table JSON "
                       "(default: bundled table)")
    check.add_argument("--out", type=Path, default=Path("out"))
    return parser


def _fail(manifest: ManifestWriter, label: str, exc: Exception, code: int) -> int:
    print(f"{label}: {exc}", file=sys.stderr)
    manifest.data["error_type"] = type(exc).__name__
    manifest.finish("failed", str(exc))
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out: Path = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:          # no directory, so no manifest either
        print(f"config error: cannot create output directory {out}: {exc}",
              file=sys.stderr)
        return 2
    manifest = ManifestWriter(out, args.command)
    try:
        if args.command == "device-check":
            cmd_device_check(args.table, out, manifest)
        else:
            config = load_config(args.config) if args.config else RunConfig()
            # a flag left out is None and never overrides the file
            config = replace(config, **{
                f.name: parse_value(f.name, getattr(args, f.name))
                for f in fields(RunConfig)
                if getattr(args, f.name, None) is not None})
            if args.command == "dynamics":
                config.realizations = 1     # the one trajectory it runs
            run = resolve(config)
            manifest.data.update(config=asdict(run.config),
                                 drive_frequency_mhz=run.drive_frequency_mhz)
            _COMMANDS[args.command][0](run, out, manifest)
    except ConfigError as exc:
        return _fail(manifest, "config error", exc, 2)
    except NumericalError as exc:
        return _fail(manifest, "numerical failure", exc, 3)
    except Exception as exc:        # a defect: report it, never lose the manifest
        traceback.print_exc()
        return _fail(manifest, "internal error", exc, 1)
    manifest.finish("success")
    return 0


if __name__ == "__main__":
    sys.exit(main())
