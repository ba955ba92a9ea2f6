"""Every golden case reproduces its recorded outputs (tests/golden/)."""

import json

import pytest

from golden.cases import CASES, differences, golden_path, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_golden(tmp_path, name):
    golden = json.loads(golden_path(name).read_text())
    reading = run_case(name, tmp_path / "out")
    found = list(differences(golden, reading))
    assert not found, (f"{len(found)} values differ, first: path, golden, "
                       f"actual, change = {found[:5]}")
