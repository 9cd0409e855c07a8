"""Benchmark of the icurisk CLI on seeded synthetic cohorts.

    python3 bench/run.py --workload evaluate_4k --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that has `src/icurisk`. The script builds
the workload's inputs in a set-up process (several times; set-up time is the
median), then runs the workload's CLI command in a fresh process, again and
again, as often as fits in `--seconds` (at least once). Commands run one after
another from this one caller (a closed loop with one client); BLAS is pinned
to one thread.

With `--trace 0` the last line of stdout reports the end-to-end metrics; with
`--trace 1` untraced and traced commands alternate and it reports per-layer
metrics from the traced ones. The line before it is a JSON record of the run:
environment, seeds, input sizes and every command's figures. `--smoke` uses
tiny cohorts and skips the AUROC threshold; nothing is timed against a bound.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import LAYER_UNITS
from workloads import CV_FOLDS, K_CLUSTERS, TARGET_DAYS, WINDOW_HOURS, WORKLOADS, workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0      # no command starts that would likely end after this


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny cohorts, no AUROC threshold")
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same set iteration order, so the same work, in every process
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    return env


def _dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _run_child(mode, spec, run_dir: Path, deadline: float) -> dict:
    spec_path, result_path = run_dir / f"{mode}_spec.json", run_dir / f"{mode}_result.json"
    _dump(spec, spec_path)
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, str(spec_path), str(result_path)],
            cwd=run_dir,
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process timed out"}
    if proc.returncode != 0:
        return {"error": f"{mode} process exited with {proc.returncode}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def _write_configs(run_dir: Path, w, seed: int) -> None:
    def config(cohort_dir):
        return {
            "paths": {
                "observations": f"{cohort_dir}/observations.csv",
                "outcomes": f"{cohort_dir}/outcomes.csv",
                "out_dir": "out",
            },
            "window_hours": WINDOW_HOURS,
            "k_clusters": K_CLUSTERS,
            "target_days": list(TARGET_DAYS),
            "cv": {"folds": CV_FOLDS, "repeats": max(w.cv_repeats, 1)},
            "seed": seed,
        }

    _dump(config("cohort"), run_dir / "config.json")
    if w.train_patients:
        _dump(config("train_cohort"), run_dir / "train_config.json")


def _environment() -> dict:
    return {
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **{var: BLAS_THREADS for var in BLAS_THREAD_VARS},
        "PYTHONHASHSEED": "0",
        "load_model": "closed loop, one client, one command at a time",
    }


def measure(args, run_dir: Path) -> tuple[dict, dict]:
    """Set up, run the command until time is up, and return (record, result)."""
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    w = workload(args.workload, args.smoke)
    _write_configs(run_dir, w, args.seed)
    spec = {
        "workload": w.to_json_obj(),
        "seed": args.seed,
        "smoke": args.smoke,
        # A traced run does not report set-up time, so it builds its inputs once.
        "setup_reps": 1 if args.trace else w.setup_reps,
    }
    setup = _run_child("setup", spec, run_dir, deadline)
    if "error" in setup:
        raise BenchError(setup["error"])
    problems = list(setup["problems"])
    if len({rep["inputs_sha256"] for rep in setup["reps"]}) != 1:
        problems.append("set-up built different inputs from the same seed")
    spec["sizes"] = setup["sizes"]

    # Commands (with --trace 1, untraced-traced pairs) run back to back. Another
    # one starts only if it would likely end within --seconds, judged by the
    # last one's time; at least one always runs.
    ops: list[dict] = []
    t0 = step_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        op_start = time.monotonic()
        result = _run_child("op", {**spec, "trace": traced}, run_dir, deadline)
        result.setdefault("problems", [result.get("error", "")])
        result["traced"] = traced
        ops.append(result)
        now = time.monotonic()
        if not args.trace or len(ops) % 2 == 0:
            if now + (now - step_start) > t0 + args.seconds:
                break
            step_start = now
        if now + (now - op_start) > deadline:
            break

    src = str(ROOT / "src")
    for op in ops:
        where = op.get("environment", {}).get("icurisk_file", "")
        if where and not where.startswith(src):
            problems.append(f"icurisk imported from {where}, not from {src}")
    ok = [op for op in ops if not op["problems"]]
    if not ok:
        raise BenchError(f"every command failed: {ops[0]['problems']}")
    if len({op["artefacts_sha256"] for op in ok}) != 1:
        problems.append("artefacts differ between runs of the same inputs")
    untraced = [op for op in ok if not op["traced"]]
    traced_ops = [op for op in ok if op["traced"]]

    if args.trace:
        if not traced_ops or not untraced:
            raise BenchError("no traced and untraced command pair completed")
        metrics = {
            name: {"value": median(op["layers"][name] for op in traced_ops), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        for key, name in (("generate_synthetic_cohort_s", "cohort.generate_synthetic_cohort.s"),
                          ("write_observations_s", "cohort.write_observations.s")):
            metrics[name] = {"value": median(rep[key] for rep in setup["reps"]), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": median(op["wall_s"] for op in traced_ops) - median(op["wall_s"] for op in untraced),
            "unit": "s",
        }
    else:
        metrics = {
            "wall_s": {"value": median(op["wall_s"] for op in untraced), "unit": "s"},
            "setup_s": {"value": median(rep["setup_s"] for rep in setup["reps"]), "unit": "s"},
            "peak_rss_mb": {"value": median(op["peak_rss_mb"] for op in untraced), "unit": "MB"},
            "model_auroc": {"value": median(op["model_auroc"] for op in untraced), "unit": "auroc"},
            "ok_ops_share": {"value": len(ok) / len(ops), "unit": "share"},
        }
    result = {
        "correct": not problems and len(ok) == len(ops),
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "workload_spec": w.to_json_obj(),
        "seeds": {
            "cohort": args.seed,
            "cv_and_pam": args.seed,
            **({"train_cohort": args.seed + 1} if w.train_patients else {}),
        },
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {**_environment(), **ok[0]["environment"]},
        "sizes": setup["sizes"],
        "setup_reps": setup["reps"],
        "ops": [{k: v for k, v in op.items() if k not in ("spans", "environment")} for op in ops],
        "problems": problems + [p for op in ops for p in op["problems"]],
        "elapsed_s": time.monotonic() - started,
    }
    _dump([op.get("spans", []) for op in ops if op["traced"]], run_dir / "spans.json")
    return record, result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "icurisk" / "__init__.py").is_file():
        print(f"error: no icurisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        record, result = measure(args, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in ("cohort", "train_cohort"):
            shutil.rmtree(run_dir / name, ignore_errors=True)
    _dump(record, run_dir / "record.json")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
