"""Child process of the benchmark: builds a workload's inputs, or runs one command.

    python3 bench/worker.py setup <spec.json> <result.json>
    python3 bench/worker.py op <spec.json> <result.json>

`run.py` writes the spec, starts this script with icurisk's `src` on
PYTHONPATH and BLAS pinned to one thread, and reads the result file. Each
command runs in a fresh process, as a user's `icurisk <command>` does, so its
peak RSS is its own.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from tracing import COMMAND_SPAN, Tracer, layer_metrics, traced
from workloads import CV_FOLDS, MIN_MODEL_AUROC, SYNTH_DEFAULTS, TARGET_DAYS, WINDOW_HOURS, Workload

METHODS = ("chf_ar_hmm", "saps", "logistic", "exp_survival")
METRICS = ("auroc", "aucpr", "cstat")
BASELINES = METHODS[1:]
ARTEFACTS = {
    "evaluate": ("report.json", "metrics.csv"),
    "predict": ("predictions.csv",),
}


def _n_rows(cohort) -> int:
    return sum(len(obs) for obs in cohort.patients.values())


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC with mid-ranks for tied scores."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    u = sum(r for r, y in zip(ranks, labels) if y) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def died_by(outcome, day) -> int:
    """Death at or before the target day's horizon, as the pipeline labels it."""
    return int(bool(outcome[1]) and outcome[0] <= 24.0 * day)


def mean_auroc_by_day(etas, outcomes) -> float:
    """Mean over target days of the AUROC of {day: {pid: eta}} against outcomes."""
    values = []
    for day in TARGET_DAYS:
        pids = sorted(etas[day])
        values.append(auroc([etas[day][p] for p in pids], [died_by(outcomes[p], day) for p in pids]))
    return sum(values) / len(values)


# --------------------------------------------------------------------------
# Setup: the command's inputs, built several times so set-up time is a median
# --------------------------------------------------------------------------

def _synth(n_patients, seed, directory: Path, times: dict):
    from icurisk.cohort import SynthConfig, generate_synthetic_cohort, write_observations, write_outcomes

    directory.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    cohort = generate_synthetic_cohort(SynthConfig(n_patients=n_patients, seed=seed, **SYNTH_DEFAULTS))
    t1 = time.perf_counter()
    write_observations(cohort, directory / "observations.csv")
    t2 = time.perf_counter()
    write_outcomes(cohort, directory / "outcomes.csv")
    times["generate_synthetic_cohort_s"] += t1 - t0
    times["write_observations_s"] += t2 - t1
    return cohort


def check_model(problems) -> None:
    """The model `train` wrote in set-up has every target day and reloads."""
    from icurisk.hmm import models_from_obj

    with open("out/model.json", encoding="utf-8") as f:
        obj = json.load(f)
    if sorted(obj["days"]) != sorted(str(d) for d in TARGET_DAYS):
        problems.append(f"model.json has days {sorted(obj['days'])}")
    models, _ = models_from_obj(obj)
    if sorted(models) != list(TARGET_DAYS):
        problems.append("model.json does not reload through models_from_obj")


def setup(spec: dict) -> dict:
    from icurisk.cli import main
    from icurisk.cohort import filter_cohort

    w = Workload(**spec["workload"])
    seed = spec["seed"]
    inputs = [Path("cohort/observations.csv"), Path("cohort/outcomes.csv")]
    if w.train_patients:
        inputs.append(Path("out/model.json"))
    reps = []
    problems: list[str] = []
    cohort = None
    for _ in range(spec["setup_reps"]):
        cohort = None  # release the previous copy before building the next
        times = {"generate_synthetic_cohort_s": 0.0, "write_observations_s": 0.0}
        t0 = time.perf_counter()
        cohort = _synth(w.n_patients, seed, Path("cohort"), times)
        if w.train_patients:
            _synth(w.train_patients, seed + 1, Path("train_cohort"), times)
            if main(["train", "--config", "train_config.json"]) != 0:
                raise RuntimeError("training the model for predict failed")
        times["setup_s"] = time.perf_counter() - t0
        times["inputs_sha256"] = sha256_files(inputs)
        reps.append(times)
    if w.train_patients:
        check_model(problems)
    kept = filter_cohort(cohort, window_hours=WINDOW_HOURS)
    return {
        "reps": reps,
        "problems": problems,
        "sizes": {
            "patients": cohort.n_patients,
            "rows": _n_rows(cohort),
            "patients_kept": kept.n_patients,
            "rows_kept": _n_rows(kept),
        },
    }


# --------------------------------------------------------------------------
# One command, then checks of what it wrote
# --------------------------------------------------------------------------

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_evaluate(spec, problems) -> float:
    with open("out/report.json", encoding="utf-8") as f:
        report = json.load(f)
    aurocs = []
    for day in TARGET_DAYS:
        block = report.get(str(day), {})
        for method in METHODS:
            for metric in METRICS:
                cell = block.get(method, {}).get(metric, {})
                if not all(_finite(cell.get(k)) for k in ("mean", "ci_low", "ci_high")):
                    problems.append(f"report.json lacks day {day} {method} {metric}")
        for baseline in BASELINES:
            for metric in METRICS:
                if metric not in report["p_values"].get(str(day), {}).get(baseline, {}):
                    problems.append(f"report.json lacks p-value day {day} {baseline} {metric}")
        aurocs.append(block.get(METHODS[0], {}).get("auroc", {}).get("mean", float("nan")))
    if not spec["smoke"] and not all(a > MIN_MODEL_AUROC for a in aurocs):
        problems.append(f"model AUROC not above {MIN_MODEL_AUROC} on every day: {aurocs}")
    with open("out/metrics.csv", encoding="utf-8") as f:
        n_rows = sum(1 for _ in f) - 1
    w = Workload(**spec["workload"])
    expected = len(TARGET_DAYS) * len(METHODS) * len(METRICS) * CV_FOLDS * w.cv_repeats
    if n_rows != expected:
        problems.append(f"metrics.csv has {n_rows} rows, expected {expected}")
    return sum(aurocs) / len(aurocs)


def check_predict(spec, problems) -> float:
    etas = {day: {} for day in TARGET_DAYS}
    with open("out/predictions.csv", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        if next(reader) != ["patient_id", "target_day", "eta"]:
            problems.append("predictions.csv has a wrong header")
        n_rows = 0
        for pid, day, eta in reader:
            n_rows += 1
            value = float(eta)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"eta out of [0, 1] for {pid} day {day}: {eta}")
            etas[int(day)][pid] = value
    expected = spec["sizes"]["patients_kept"] * len(TARGET_DAYS)
    if n_rows != expected or sum(len(v) for v in etas.values()) != expected:
        problems.append(f"predictions.csv has {n_rows} rows, expected {expected} (kept x days)")
    with open("cohort/outcomes.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))[1:]
    outcomes = {pid: (float(hours), int(flag)) for pid, hours, flag in rows}
    return mean_auroc_by_day(etas, outcomes)


CHECKS = {"evaluate": check_evaluate, "predict": check_predict}


def op(spec: dict) -> dict:
    from icurisk import cli

    w = Workload(**spec["workload"])
    argv = [w.command, "--config", "config.json"]
    tracer = Tracer()
    if spec["trace"]:
        with traced(tracer):
            command = tracer.wrap(COMMAND_SPAN, cli.main)
            t0 = time.perf_counter()
            code = command(argv)
            wall = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"exit_code": code, "wall_s": wall, "peak_rss_mb": peak_rss_mb, "traced": spec["trace"]}
    problems: list[str] = []
    if code == 0:
        result["model_auroc"] = CHECKS[w.command](spec, problems)
        result["artefacts_sha256"] = sha256_files(Path("out") / name for name in ARTEFACTS[w.command])
    else:
        problems.append(f"icurisk {w.command} exited with {code}")
    result["problems"] = problems
    if spec["trace"]:
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = tracer.spans
    return result


def main(argv) -> int:
    mode, spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    result = {"setup": setup, "op": op}[mode](spec)
    result["environment"] = environment()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "icurisk_file": sys.modules["icurisk"].__file__,
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
