"""Smoke test of the benchmark itself.

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload once untraced and once traced at tiny sizes (R=2, an
8x8 stability grid, a 20 ns horizon) and asserts that each result names
every metric of BENCHMARK.json with its unit and that no job failed.
Exits 0 when all runs pass.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    failures = 0
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
                expected = {m["name"]: m["unit"] for m in declared[kind]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert done.returncode == 0, f"exit code {done.returncode}"
                assert got == expected, f"metrics {got} != {expected}"
                assert all(isinstance(v["value"], (int, float))
                           for v in result["metrics"].values()), "non-numeric value"
                assert result["attempted"] >= 1, "no job attempted"
                assert result["failed"] == 0, "failed_ratio is not 0"
                assert result["correct"] is True, "outputs not correct"
            except (AssertionError, IndexError, ValueError) as exc:
                failures += 1
                print(f"FAIL {name} trace {trace}: {exc}\n{done.stdout}"
                      f"{done.stderr}")
                continue
            print(f"ok   {name} trace {trace}: {result['attempted']} jobs, "
                  f"failed_ratio 0")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
