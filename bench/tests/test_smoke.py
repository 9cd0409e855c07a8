"""Smoke tests of the benchmark at tiny cohort sizes. Nothing is timed against a bound.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, self_times, traced  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(lines[-2]), result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, result = result_of(run_bench(workload, 0))
    assert result["correct"] is True, record["problems"]
    assert result["attempted"] == 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["sizes"]["patients_kept"] <= record["sizes"]["patients"]
    assert record["environment"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize(
    "workload, exercised, idle",
    [
        ("evaluate_4k", ["evaluation.concordance.self_s", "evaluation.run_cv.self_s",
                         "survival.label_hidden_states.us_per_patient", "survival.newton_iterations"],
         ["hmm.models_io.self_s"]),
        ("predict_16k", ["hmm.score_patients.us_per_patient", "cohort.load_cohort.rows_per_s",
                         "hmm.models_io.self_s"],
         ["survival.label_hidden_states.self_s", "features.pam_cluster.self_s",
          "evaluation.concordance.self_s"]),
    ],
)
def test_traced_run(workload, exercised, idle):
    record, result = result_of(run_bench(workload, 1))
    # `correct` also requires the traced command's artefacts to equal the untraced one's.
    assert result["correct"] is True, record["problems"]
    assert [op["traced"] for op in record["ops"]] == [False, True]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(values[name] > 0 for name in exercised)
    assert all(values[name] == 0 for name in idle)
    assert 0 < values["cohort.filter_cohort.kept_share"] <= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_wraps_and_restores_every_namespace():
    import icurisk.cli
    import icurisk.cohort
    import icurisk.evaluation
    import icurisk.hmm
    import icurisk.survival

    labels, load = icurisk.survival.label_hidden_states, icurisk.cohort.load_cohort
    scored = icurisk.evaluation.ScoredSet(
        scores=[0.2, 0.9, 0.5], labels=[0, 1, 0], times=[5.0, 1.0, 3.0], events=[0, 1, 0]
    )
    tracer = Tracer()
    with traced(tracer):
        assert icurisk.hmm.label_hidden_states is icurisk.survival.label_hidden_states is not labels
        assert icurisk.cli.load_cohort is icurisk.cohort.load_cohort is not load
        assert icurisk.evaluation.concordance(scored) == 1.0
    assert icurisk.hmm.label_hidden_states is icurisk.survival.label_hidden_states is labels
    assert icurisk.cli.load_cohort is icurisk.cohort.load_cohort is load
    assert [span[0] for span in tracer.spans] == ["evaluation.concordance"]


def test_self_time_subtracts_children():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, {"patients": 3}],
        ["inner", 5.0, 6.0, 0, {"patients": 2}],
        ["leaf", 2.0, 3.0, 1, None],
    ]
    own, total, counts = self_times(spans)
    assert own == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert total["inner"] == 4.0
    assert counts["inner"]["patients"] == 5
