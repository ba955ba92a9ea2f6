"""Rewrite the golden output files and print the largest change per file.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [--check] [case ...]

With no case names every case of ``cases.CASES`` is rerun.  Each line
gives a case, the largest relative change of any float against the file
it replaces (inf where a key, flag or count changed, "new" where there was
no file), and the number of values beyond the test's tolerance.  With
``--check`` the same lines are printed and no file is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import CASES, differences, golden_path, largest_change, run_case  # noqa: E402


def main(args) -> int:
    check = "--check" in args
    names = [a for a in args if a != "--check"]
    for name in names or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            reading = run_case(name, Path(tmp) / "out")
        path = golden_path(name)
        if path.exists():
            old = json.loads(path.read_text())
            failing = sum(1 for _ in differences(old, reading))
            print(f"{name}: largest change {largest_change(old, reading):.3g}, "
                  f"{failing} beyond tolerance")
        else:
            print(f"{name}: new")
        if not check:
            path.write_text(json.dumps(reading, separators=(",", ":"),
                                       sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
