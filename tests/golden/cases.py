"""Golden output cases: one small command-line run per case, its outputs
read back as numbers, and the rule that compares two such readings.

A case's reading holds every data file the run wrote, parsed (CSV columns
as numbers, JSON as loaded), and its manifest without what depends on the
host or the clock (``wall_clock_s``, ``environment``, the outputs' hashes).
Two readings agree when their keys, flags and counts are equal and every
float agrees within FLOAT_TOL * max(1, |x|).  A JSON value, written in
full, moves by its own last bits, which FLOAT_TOL absorbs.  A CSV value is
written at ``%.12g``, so a last-bit change either leaves its text alone or,
across a rounding boundary, flips the text's 12th significant digit by one
unit; FLOAT_TOL fails such a flip for every |x| >= 1 and, by the roundoff
of the difference, for some |x| in [0.1, 1).  A flip is not a regression:
rerun ``tests/golden/regenerate.py`` and record the case and its largest
change in CHANGES.md (``regenerate.py --check`` counts the flips per case,
:func:`digit_flip`).  ``stability``'s ``abs_trace`` is compared only where
the golden's is at most ABS_TRACE_CEILING: unstable cells amplify a
last-bit change of the model by orders of magnitude.

``tests/golden/regenerate.py`` rewrites the golden files from these cases;
``tests/test_golden.py`` runs each case against its file.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from pathlib import Path

from drivenchain.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent
FLOAT_TOL = 1e-12
ABS_TRACE_CEILING = 10.0
#: manifest fields that depend on the host or the clock, not on the run
VOLATILE = ("wall_clock_s", "environment")

_W3 = ["--disorder-w", "3"]
#: name -> command-line arguments (without --out)
CASES = {
    **{f"dynamics_{profile}_w3_site{site}":
       ["dynamics", "--profile", profile, *_W3, "--init-site", str(site),
        "--config", str(GOLDEN_DIR / "dynamics.cfg")]
       for profile in ("cosine", "flat", "table") for site in (1, 7)},
    "ensemble_flat_w3_r7": ["ensemble", "--profile", "flat", *_W3,
                            "--realizations", "7", "--keep-realizations",
                            "--config", str(GOLDEN_DIR / "dynamics.cfg")],
    "spectrum_flat_w3_r40": ["spectrum", "--profile", "flat", *_W3,
                             "--realizations", "40"],
    "spectrum_default": ["spectrum"],
    "stability_res40": ["stability", "--config",
                        str(GOLDEN_DIR / "stability.cfg")],
    "contours_res21": ["contours", "--config",
                       str(GOLDEN_DIR / "contours.cfg")],
    "device_check": ["device-check"],
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_csv(path: Path) -> dict:
    """{column name: list of numbers}; an integer text reads as an int."""
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    columns = list(zip(*(row.split(",") for row in rows))) or [()] * len(names)
    return {name: [_number(text) for text in column]
            for name, column in zip(names, columns)}


def run_case(name: str, out: Path) -> dict:
    """Run case ``name`` into ``out`` and read its outputs back."""
    code = main([*CASES[name], "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    files = {}
    for output in manifest["outputs"]:
        path = out / output["path"]
        if not path.exists():                   # a per-realization file
            path = out / "realizations" / output["path"]
        files[output["path"]] = (_read_csv(path) if path.suffix == ".csv"
                                 else json.loads(path.read_text()))
        del output["sha256"]
    for key in VOLATILE:
        manifest.pop(key, None)
    return {"exit_code": code, "manifest": manifest, "files": files}


def _skip(path: str, golden) -> bool:
    return ("abs_trace" in path and isinstance(golden, float)
            and not abs(golden) <= ABS_TRACE_CEILING)


def differences(golden, actual, tol: float = FLOAT_TOL, path: str = ""):
    """Yield (path, golden, actual, change) wherever ``actual`` departs
    from ``golden`` by more than ``tol``: change is a float's |difference|
    / max(1, |x|), and inf for a key, type, length, flag or count that
    differs.  A negative ``tol`` yields every compared float."""
    if isinstance(golden, dict) and isinstance(actual, dict):
        if sorted(golden) != sorted(actual):
            yield path, sorted(golden), sorted(actual), math.inf
            return
        for key in golden:
            yield from differences(golden[key], actual[key], tol,
                                   f"{path}/{key}")
    elif isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            yield path, len(golden), len(actual), math.inf
            return
        for index, (g, a) in enumerate(zip(golden, actual)):
            yield from differences(g, a, tol, f"{path}[{index}]")
    elif isinstance(golden, float) or isinstance(actual, float):
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (golden, actual))
        if not numbers:
            yield path, golden, actual, math.inf
        elif (_skip(path, golden) or golden == actual
              or (math.isnan(golden) and math.isnan(actual))):
            return
        else:
            change = abs(golden - actual) / max(1.0, abs(golden))
            if not change <= tol:           # NaN against a number fails too
                yield path, golden, actual, change
    elif type(golden) is not type(actual) or golden != actual:
        yield path, golden, actual, math.inf


def largest_change(golden, actual) -> float:
    """The largest change :func:`differences` sees, tolerated or not."""
    return max((change for *_, change in differences(golden, actual, -1.0)),
               default=0.0)


def digit_flip(golden, actual) -> bool:
    """Whether two numbers read from ``%.12g`` texts differ by exactly one
    unit in the 12th significant digit (of the smaller, across a decade)."""
    if not all(isinstance(x, float) and math.isfinite(x) and x
               for x in (golden, actual)):
        return False
    g, a = Decimal(repr(golden)), Decimal(repr(actual))
    return abs(g - a) == Decimal(1).scaleb(min(g.adjusted(), a.adjusted())
                                           - 11)
