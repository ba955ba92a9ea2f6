"""Every golden case reproduces its recorded outputs (tests/golden/)."""

import json

import pytest

from golden.cases import CASES, differences, digit_flip, golden_path, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_golden(tmp_path, name):
    golden = json.loads(golden_path(name).read_text())
    reading = run_case(name, tmp_path / "out")
    found = list(differences(golden, reading))
    flips = sum(digit_flip(g, a) for _, g, a, _ in found)
    assert not found, (
        f"{len(found)} values differ, {flips} of them one-unit flips of the "
        f"12th significant digit of a %.12g text; first: path, golden, "
        f"actual, change = {found[:5]}.  A roundoff flip is not a "
        f"regression: rerun tests/golden/regenerate.py and record the case "
        f"and its largest change in CHANGES.md")
