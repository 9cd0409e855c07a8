"""Workload definitions shared by `run.py` and its worker processes.

Stdlib only: `run.py` imports this module without importing icurisk.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

TARGET_DAYS = (2, 3, 4, 5)
WINDOW_HOURS = 12
K_CLUSTERS = 4
CV_FOLDS = 3
# The acceptance threshold on the model's AUROC for every target day.
MIN_MODEL_AUROC = 0.70
SYNTH_DEFAULTS = {
    "n_variables": 5,
    "prevalence_target": 0.15,
    "missing_rate": 0.1,
    "sampling_rate_per_hour": 1.0,
}


@dataclass(frozen=True)
class Workload:
    command: str              # the CLI subcommand that is timed
    n_patients: int           # size of the cohort the command reads
    train_patients: int = 0   # predict only: size of the separate training cohort
    cv_repeats: int = 0       # evaluate only
    setup_reps: int = 2       # set-up time is the median over this many builds

    def to_json_obj(self) -> dict:
        return asdict(self)


WORKLOADS = {
    "evaluate_4k": Workload("evaluate", 4000, cv_repeats=2, setup_reps=3),
    "predict_16k": Workload("predict", 16000, train_patients=4000),
}

# Tiny cohorts for the smoke mode: every code path runs, nothing is timed
# against a bound, and the AUROC threshold is not applied.
SMOKE_WORKLOADS = {
    "evaluate_4k": Workload("evaluate", 500, cv_repeats=1),
    "predict_16k": Workload("predict", 500, train_patients=400),
}


def workload(name: str, smoke: bool) -> Workload:
    return (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
