"""The benchmark in `bench/` runs end to end on small cohorts.

Each workload named in BENCHMARK.json runs once in `--smoke` mode (a few
hundred patients, no AUROC threshold), so a library change that breaks the
benchmark's calls or output checks fails here. There is no timing bound.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_smoke_run_is_correct(workload):
    run = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = run.communicate(timeout=600)
    finally:
        run.kill()
        run.wait()
        # The run keeps its record in .bench_work/<workload>-<seed>-<pid>/.
        shutil.rmtree(ROOT / ".bench_work" / f"{workload}-5-{run.pid}", ignore_errors=True)
    assert run.returncode == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True, stdout
    assert result["failed"] == 0
