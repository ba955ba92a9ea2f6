"""Rewrite the golden output files and print the largest change per file.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [--check] [case ...]

With no case names every case of ``cases.CASES`` is rerun.  Each line
gives a case, the largest relative change of any float against the file
it replaces (inf where a key, flag or count changed, "new" where there was
no file), the number of values beyond the test's tolerance, and how many of
those are one-unit flips of the 12th significant digit of a ``%.12g`` text
(``cases.digit_flip``).  With ``--check`` the same lines are printed and no
file is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import (CASES, differences, digit_flip, golden_path,  # noqa: E402
                   largest_change, run_case)


def main(args) -> int:
    check = "--check" in args
    names = [a for a in args if a != "--check"]
    for name in names or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            reading = run_case(name, Path(tmp) / "out")
        path = golden_path(name)
        if path.exists():
            old = json.loads(path.read_text())
            failing = list(differences(old, reading))
            flips = sum(digit_flip(g, a) for _, g, a, _ in failing)
            print(f"{name}: largest change {largest_change(old, reading):.3g}, "
                  f"{len(failing)} beyond tolerance, {flips} of them "
                  f"12th-digit flips")
        else:
            print(f"{name}: new")
        if not check:
            path.write_text(json.dumps(reading, separators=(",", ":"),
                                       sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
