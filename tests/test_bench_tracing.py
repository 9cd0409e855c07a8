"""The functions the benchmark traces still exist, take the arguments it
counts, and return what its counts read.

`bench/tracing.py` wraps each function in its `TARGETS` by name, and its
counts read some arguments by position or keyword and some return values
(the fits' `.iterations`, a cohort's `.patients`). The smoke runs use
`--trace 0`, so without these tests a renamed function or parameter, or a
changed return value, would break only traced benchmark runs.
"""

import importlib
import inspect
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from icurisk import cli, evaluation
from icurisk.cohort import SynthConfig, generate_synthetic_cohort, window_tables, write_observations, write_outcomes
from icurisk.features import load_default_score_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import COMMAND_SPAN, LAYER_UNITS, TARGETS, Tracer, layer_metrics, traced  # noqa: E402
from workloads import CV_FOLDS, K_CLUSTERS, SYNTH_DEFAULTS, TARGET_DAYS, WINDOW_HOURS  # noqa: E402

# (module, function, position, parameter) of each argument a count in TARGETS reads.
COUNTED_ARGUMENTS = [
    ("cohort", "filter_cohort", 0, "cohort"),
    ("features", "build_feature_matrix", 0, "cohort"),
    ("survival", "label_hidden_states", 0, "matrix"),
    ("hmm", "score_patients", 1, "matrix"),
]


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _, _ in TARGETS])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"icurisk.{module}"), function, None))


@pytest.mark.parametrize("module, function, position, name", COUNTED_ARGUMENTS)
def test_counted_argument_is_that_parameter(module, function, position, name):
    fn = getattr(importlib.import_module(f"icurisk.{module}"), function)
    assert list(inspect.signature(fn).parameters)[position] == name


def test_traced_commands_give_every_layer_metric(tmp_path, monkeypatch):
    """`evaluate` (one CV repeat), `train` and `predict` run in-process under
    the benchmark's tracer, on a 4,000-patient synthetic cohort with the
    benchmark's settings, and each gives every per-layer metric, finite."""
    cohort = generate_synthetic_cohort(SynthConfig(n_patients=4000, seed=47, **SYNTH_DEFAULTS))
    write_observations(cohort, tmp_path / "observations.csv")
    write_outcomes(cohort, tmp_path / "outcomes.csv")
    (tmp_path / "config.json").write_text(json.dumps({
        "paths": {"observations": "observations.csv", "outcomes": "outcomes.csv", "out_dir": "out"},
        "window_hours": WINDOW_HOURS,
        "k_clusters": K_CLUSTERS,
        "target_days": list(TARGET_DAYS),
        "cv": {"folds": CV_FOLDS, "repeats": 1},
        "seed": 47,
    }))
    monkeypatch.chdir(tmp_path)
    for command in ("evaluate", "train", "predict"):
        tracer = Tracer()
        with traced(tracer):
            assert tracer.wrap(COMMAND_SPAN, cli.main)([command, "--config", "config.json"]) == 0
        metrics = layer_metrics(tracer.spans)
        assert sorted(metrics) == sorted(LAYER_UNITS), command
        assert all(math.isfinite(value) for value in metrics.values()), (command, metrics)
        assert metrics["cohort.load_cohort.rows_per_s"] > 0, command
        assert metrics["features.build_feature_matrix.us_per_row"] > 0, command
        assert 0 < metrics["cohort.filter_cohort.kept_share"] <= 1, command
        if command != "predict":
            assert metrics["survival.newton_iterations"] > 0, command
    for name in ("report.json", "metrics.csv", "model.json", "predictions.csv"):
        assert (tmp_path / "out" / name).stat().st_size > 0


def test_cv_calls_every_traced_function(small_cohort, monkeypatch):
    """A one-repeat `run_cv` on one usable CPU, under the benchmark's tracer,
    calls the traced functions its method, metric and design code reaches.
    `layer_metrics` reads a span that is never opened as 0.0, so only this
    count shows a table that holds a function object from before tracing."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tables = window_tables(small_cohort, WINDOW_HOURS, load_default_score_table())
    tracer = Tracer()
    with traced(tracer):
        evaluation.run_cv(tables, repeats=1, seed=5)
    calls = Counter(name for name, *_ in tracer.spans)
    for span in ("evaluation.concordance", "evaluation.rank_metrics", "evaluation.baselines",
                 "survival.compute_priors", "survival.label_hidden_states", "survival.fit_window_regressions"):
        assert calls[span] > 0, span
