"""drivenchain benchmark: one workload, one seed, one closed-loop run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ensemble_flat_w3, spectrum_flat_w3, stability_grid,
dynamics_sweep (see perfbench/README.md).  The run drives
``drivenchain.cli.main`` in-process from ``src/``, one job after another
(closed loop, one client), and stops starting jobs once ``--seconds`` have
passed.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is the result JSON; the full record (quartiles,
sample counts, provenance) goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import reference
import tracing
from workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quartiles(values):
    """(q1, median, q3) of the samples; a single sample gives itself thrice."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it."""
    q1, med, q3 = quartiles(values)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def measure_setup(config_paths, repeats: int, env) -> list:
    """Fresh-interpreter import + resolve, once untimed (byte-compiles)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           *map(str, config_paths)]
    samples = []
    for i in range(repeats + 1):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        if i:
            samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_job(main, argv, out: Path) -> dict:
    """One timed ``main(argv)`` call and the identity of its data files."""
    record = {"rc": None, "status": None, "problems": []}
    start = time.perf_counter()
    try:
        record["rc"] = main(argv)
    except Exception:  # a crashing job is a failed job; the loop goes on
        traceback.print_exc()
    record["seconds"] = time.perf_counter() - start
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        record["problems"].append(f"manifest unreadable: {exc}")
        return record
    record["status"] = manifest.get("status")
    record["hashes"] = {}
    for entry in manifest.get("outputs", []):
        actual = sha256(out / entry["path"])
        if actual != entry["sha256"]:
            record["problems"].append(f"{entry['path']}: manifest hash differs")
        record["hashes"][entry["path"]] = actual
    if record["rc"] != 0:
        record["problems"].append(f"exit code {record['rc']}")
    if record["status"] != "success":
        record["problems"].append(f"manifest status {record['status']}")
    return record


class Loop:
    """Closed loop over a workload's jobs; job k always writes to job<k>."""

    def __init__(self, main, wl, run_dir: Path):
        self.main, self.wl, self.run_dir = main, wl, run_dir
        self.jobs = []
        self.first_hashes = {}

    def out(self, index: int) -> Path:
        return self.run_dir / f"job{index}"

    def run(self, index: int, round_: int, traced: bool = False) -> dict:
        out = self.out(index)
        shutil.rmtree(out, ignore_errors=True)
        record = run_job(self.main, self.wl.argv(index, self.run_dir, out), out)
        record.update(index=index, round=round_, traced=traced)
        if "hashes" in record:
            first = self.first_hashes.setdefault(index, record["hashes"])
            if record["hashes"] != first:
                record["problems"].append("data files differ from the first "
                                          "job on identical inputs")
        self.jobs.append(record)
        return record


def warm_up(main, name, seed, defaults, run_dir: Path):
    """One untimed round at tiny sizes: imports, caches, lazy set-up."""
    tiny = make_workload(name, seed, defaults, tiny=True)
    tiny_dir = run_dir / "warmup"
    tiny.write_configs(tiny_dir)
    for k in range(len(tiny.jobs)):
        main(tiny.argv(k, tiny_dir, tiny_dir / f"job{k}"))


def provenance(found_env, seed: int, wl) -> dict:
    import numpy
    import scipy
    from drivenchain import ensemble
    from drivenchain.config import RunConfig
    git_sha = None              # the benchmark checkout is not a git tree
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True,
                                     timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "drivenchain").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    worker_count = getattr(ensemble, "worker_count", None)
    return {
        "seed": seed,
        "master_seed": wl.master_seed,
        "reference_sample": wl.sample,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ensemble_workers": (worker_count(None, RunConfig().realizations)
                             if worker_count else None),
        "env_found": found_env,
    }


def closed_loop(loop, seconds: float, tracer=None) -> None:
    """Rounds over every job until ``seconds`` have passed.

    With a tracer, each round is an untraced pass followed by a traced
    pass over the same inputs.
    """
    jobs = range(len(loop.wl.jobs))
    start = time.perf_counter()
    round_ = 0
    while True:
        for k in jobs:
            loop.run(k, round_)
        if tracer is not None:
            with tracer.installed():
                for k in jobs:
                    with tracer.span("cli.main"):
                        loop.run(k, round_, traced=True)
        if time.perf_counter() - start >= seconds:
            return
        round_ += 1


def low_omega_row_s(config_path) -> float:
    """Median of three public stability_grid calls on the lowest-omega row."""
    from drivenchain.config import load_config, resolve
    from drivenchain.semiclassical import default_grid_axes, stability_grid
    run = resolve(load_config(config_path))
    params = run.semiclassical_params()
    omega, delta1 = default_grid_axes(params, run.config.stability_resolution)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        stability_grid(omega[:1], delta1, params)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(loop, setup, ref_err, peak_rss_mb):
    """The bounded metrics of an untraced run, with their sample details.

    A ``job_s`` sample is the mean job time of one round.  The sweep's jobs
    differ in cost by profile, so the median over single jobs would sit on
    the edge between two cost groups and jump with small speed changes.
    """
    setup_s = [s["import_s"] + s["resolve_s"] for s in setup]
    rounds = {}
    for r in loop.jobs:
        rounds.setdefault(r["round"], []).append(r["seconds"])
    job_s = [statistics.fmean(times) for times in rounds.values()]
    metrics = {"setup_s": statistics.median(setup_s),
               "job_s": statistics.median(job_s),
               "ref_err": ref_err if math.isfinite(ref_err) else None,
               "peak_rss_mb": peak_rss_mb}
    return metrics, {"setup_s": summary(setup_s), "job_s": summary(job_s)}


def per_layer(loop, setup, tracer, wl, config_paths):
    """Layer metrics of the traced jobs, set-up split, tracing overhead."""
    plain = {}
    for r in loop.jobs:
        if not r["traced"]:
            plain.setdefault(r["index"], []).append(r["seconds"])
    traced = [r for r in loop.jobs if r["traced"]]
    overhead = [r["seconds"] - statistics.median(plain[r["index"]])
                for r in traced]
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
    metrics["config.resolve_s"] = statistics.median(
        s["resolve_s"] for s in setup)
    metrics["semiclassical.low_omega_row_s"] = (
        low_omega_row_s(config_paths[0]) if wl.name == "stability_grid"
        else 0.0)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    return metrics, {"trace.overhead_s": summary(overhead)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "drivenchain" / "__init__.py").is_file():
        print(f"benchmark: no drivenchain sources under {SRC}", file=sys.stderr)
        return 2
    found_env = {k: os.environ.get(k)
                 for k in ("DRIVENCHAIN_WORKERS", "OPENBLAS_NUM_THREADS")}
    # Measure the shipped default worker count, not an inherited override.
    os.environ.pop("DRIVENCHAIN_WORKERS", None)
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    import drivenchain.cli
    from drivenchain.config import RunConfig

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = make_workload(args.workload, args.seed, RunConfig(), tiny=args.tiny)
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        config_paths = wl.write_configs(run_dir)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        setup = measure_setup(config_paths, 1 if args.tiny else SETUP_REPEATS,
                              env)
        warm_up(drivenchain.cli.main, wl.name, args.seed, RunConfig(), run_dir)

        loop = Loop(drivenchain.cli.main, wl, run_dir)
        tracer = tracing.Tracer() if args.trace else None
        closed_loop(loop, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        try:
            outputs = {k: loop.out(k) for k in range(len(wl.jobs))}
            ref_err, problems = reference.check(wl, run_dir, outputs)
        except Exception as exc:  # an unreadable output fails every job
            traceback.print_exc()
            ref_err = float("nan")
            problems = [(None, f"output check crashed: {exc!r}")]
        for record in loop.jobs:
            record["problems"].extend(message for index, message in problems
                                      if index in (None, record["index"]))
        failed = sum(1 for r in loop.jobs if r["problems"])
        attempted = len(loop.jobs)

        if args.trace:
            metrics, detail = per_layer(loop, setup, tracer, wl, config_paths)
            spans_path = WORK / "traces" / f"{wl.name}-seed{args.seed}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(tracer.spans))
        else:
            metrics, detail = end_to_end(loop, setup, ref_err, peak_rss_mb)

        units = {m["name"]: m["unit"] for m in declared[
            "per_layer" if args.trace else "end_to_end"]}
        prov = provenance(found_env, args.seed, wl)
        print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
              f"closed loop, 1 client, {attempted} jobs")
        for name, value in metrics.items():
            extra = " ".join(f"{k} {v:.6g}"
                             for k, v in detail.get(name, {}).items())
            print(f"  {name:40s} {value!s:<22} {units[name]:6s} {extra}")
        print(f"  check: ref_err {ref_err:.6g}, tolerance {reference.TOLERANCE}")
        print(f"  {'failed_ratio':40s} {failed / attempted:<22.6g} "
              f"({failed}/{attempted})")
        for problem, count in Counter(p for r in loop.jobs
                                      for p in r["problems"]).items():
            print(f"  {count} job(s) failed: {problem}")
        print("provenance " + json.dumps(prov, sort_keys=True))

        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed,
                  "metrics": {name: {"value": value, "unit": units[name]}
                              for name, value in metrics.items()}}
        record_path = WORK / "results" / (
            f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(
            {**result, "failed_ratio": failed / attempted, "detail": detail,
             "ref_err": ref_err, "ref_err_tolerance": reference.TOLERANCE,
             "provenance": prov}, indent=2))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
