"""Seeded contract fuzzer: many random configs through ``cli.main``.

Usage (from the repository root):

    PYTHONPATH=src python tests/fuzz_contract.py [--configs N] [--seed S]
                                                 [--log PATH]

Each config runs one of the five quantum and semiclassical commands on one
of the three profiles, over the shrunken ``BASE``, with one to three keys
drawn from the float keys and ``coupling_mhz``, each set to an extreme or
a moderate value, and zero to two integer keys (``realizations``,
``sector`` and ``n_sites`` among them) set to small or extreme values; one
config in 50 sets ``steps_per_period`` next to the Floquet product's step
bound.
The script prints the count of each exit code, per command and in total,
each distinct exit 1 with the first config that gave it, each distinct
warning raised during a run with its first config (the manifest records no
warnings, so each one is a warning it misses), and the count of manifests
that lack a run-record key their command and exit code promise
(``PROMISED``; an exit 3 whose error opens "realization i: " promises
``realization_index`` = i and ``environment.batch_size``), with each
missing key and its first config.  It exits 1 if any config exits 1,
raises a warning or lacks a promised key, and 0 otherwise.  With
``--log`` it also writes one JSON line per config (index, command,
settings, exit code, error), so two trees can be compared config by config.
The same seed gives the same configs.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import sys
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

from drivenchain import cli
from drivenchain.config import RunConfig

COMMANDS = ("dynamics", "ensemble", "spectrum", "stability", "contours")
PROFILES = ("cosine", "flat", "table")
FLOAT_KEYS = sorted(f.name for f in fields(RunConfig)
                    if isinstance(f.default, float)) + ["coupling_mhz"]
INT_KEYS = sorted(f.name for f in fields(RunConfig) if type(f.default) is int)
EXTREMES = ["nan", "inf", "-inf", "0.0", "-1.0", "1e300", "1e-300",
            "1e-160", "1e-320", "1e154", "1.797e308", "-11.5"]
#: half the float values drawn, so that more configs get past resolve
MODERATE = ["0.25", "0.5", "1.0", "2.0", "3.0", "10.0", "100.0"]
INTS = [-1, 0, 1, 2, 3, 50, 10**9]
#: steps_per_period at the Floquet product's bound of P = 32,768 S6 steps
#: per period (ensemble.MAX_FLOQUET_STEPS): P - 1, P twice, and P + 1 and
#: P + 2, which the default drive does not halve and halves
EDGE_STEPS = [131_068, 131_072, 131_075, 131_076, 131_080]
#: every key not drawn stays here, so a nominal config runs in milliseconds
BASE = dict(t_max_ns=20, sample_dt_ns=5.0, steps_per_period=16,
            realizations=2, stability_resolution=4, contour_resolution=5)
#: the run-record keys (``environment.`` nested) a success of each command
#: promises
PROMISED = {"dynamics": ("state_steps_integrated", "state_step_ns",
                         "environment.batch_size"),
            "spectrum": ("floquet_steps_integrated", "health",
                         "environment.batch_size"),
            "stability": ("health", "monodromy_groups")}
PROMISED["ensemble"] = PROMISED["dynamics"]


def draw(rng: random.Random) -> tuple:
    """(command, settings) of one config."""
    command, profile = rng.choice(COMMANDS), rng.choice(PROFILES)
    settings = dict(BASE, profile=profile)
    def value():
        return rng.choice(MODERATE if rng.random() < 0.5 else EXTREMES)

    for key in rng.sample(FLOAT_KEYS, rng.randint(1, 3)):
        if key == "coupling_mhz" and rng.random() < 0.5:   # one per bond
            settings[key] = ",".join(value() for _ in range(11))
        else:
            settings[key] = value()
    for key in rng.sample(INT_KEYS, rng.randint(0, 2)):
        settings[key] = rng.choice(INTS)
    if rng.random() < 0.02:
        settings["steps_per_period"] = rng.choice(EDGE_STEPS)
    return command, settings


def run(command: str, settings: dict) -> tuple:
    """(exit code, manifest, warnings, stderr) of one config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(cfg), "--out",
                             str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
    return code, manifest, caught, err.getvalue()


def missing_keys(command: str, code: int, manifest: dict) -> list:
    """The promised run-record keys that ``manifest`` lacks, or holds with
    another realization index than its error names."""
    keys, missing = PROMISED.get(command, ()) if code == 0 else (), []
    failed = re.match(r"realization (\d+): ", manifest.get("error") or "")
    if code == 3 and failed:
        keys = ("environment.batch_size",)
        if manifest.get("realization_index") != int(failed[1]):
            missing.append("realization_index")
    for key in keys:
        scope, _, name = key.rpartition(".")
        if name not in (manifest[scope] if scope else manifest):
            missing.append(key)
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--log", type=Path)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    codes, per_command = Counter(), {c: Counter() for c in COMMANDS}
    internal, unrecorded, unkept, timings = {}, {}, {}, []
    lacking = 0
    log = args.log.open("w") if args.log else None
    for index in range(args.configs):
        command, settings = draw(rng)
        started = time.perf_counter()
        code, manifest, caught, stderr = run(command, settings)
        timings.append((time.perf_counter() - started, index, command))
        codes[code] += 1
        per_command[command][code] += 1
        error = manifest.get("error")
        if code == 1:
            key = (manifest.get("error_type"), error)
            internal.setdefault(key, (index, command, settings,
                                      stderr.strip().splitlines()[-3:]))
        for w in caught:
            key = (w.category.__name__, str(w.message))
            unrecorded.setdefault(key, [index, command, settings, 0])[3] += 1
        missing = missing_keys(command, code, manifest)
        lacking += bool(missing)
        for key in missing:
            unkept.setdefault((command, code, key), [index, settings, 0])[2] += 1
        if log:
            log.write(json.dumps({"index": index, "command": command,
                                  "settings": settings, "code": code,
                                  "error": error}) + "\n")
    if log:
        log.close()

    print(f"{args.configs} configs, seed {args.seed}")
    print("exit code counts: " + ", ".join(f"{c}: {n}"
                                           for c, n in sorted(codes.items())))
    for command, counts in per_command.items():
        print(f"  {command:9s} " + ", ".join(
            f"{c}: {n}" for c, n in sorted(counts.items())))
    print(f"distinct exit 1: {len(internal)}")
    for (kind, error), (index, command, settings, tail) in internal.items():
        print(f"  [{index}] {command} {settings}: {kind}: {error}")
        for line in tail:
            print(f"      {line}")
    print(f"distinct warnings the manifest does not record: {len(unrecorded)}")
    for (kind, message), (index, command, settings, n) in unrecorded.items():
        print(f"  {kind}: {message} ({n} runs; first [{index}] {command} "
              f"{settings})")
    print(f"manifests missing a record key: {lacking}")
    for (command, code, key), (index, settings, n) in unkept.items():
        print(f"  {command} exit {code} lacks {key} ({n} runs; first "
              f"[{index}] {settings})")
    print("slowest configs: " + "; ".join(
        f"[{index}] {command} {seconds:.2f} s"
        for seconds, index, command in sorted(timings, reverse=True)[:5]))
    return 1 if internal or unrecorded or lacking else 0


if __name__ == "__main__":
    sys.exit(main())
