"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest length (--seconds 1, one unit) on a fixed
seed, untraced and traced, and asserts that every metric of BENCHMARK.json is
printed by name with its unit and that every non-probe command passed its
check. Then asserts that, in a directory holding only BENCHMARK.json and the
benchmark, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, f"{workload}: a check failed\n{proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted), f"{workload}: metric names differ: {set(got) ^ set(wanted)}"
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, f"{workload}: {name} has unit {got[name]['unit']}, want {unit}"
        value = got[name]["value"]
        assert isinstance(value, numbers.Real) and not isinstance(value, bool), f"{workload}: {name} = {value!r}"
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} commands")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), "sweep", 0)
        assert proc.returncode != 0, "benchmark succeeded without the program's sources"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program's sources"
    print("ok  exits non-zero without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, workload["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
