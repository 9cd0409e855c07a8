"""Spans around icurisk's public functions, installed from outside the package.

`traced(tracer)` replaces each function in `TARGETS` with a timing wrapper in
every loaded `icurisk.*` namespace that holds it. The package's modules use
`from .x import y`, so a function has to be replaced where it is called (for
example `icurisk.hmm.label_hidden_states`, `icurisk.cli.load_cohort`), not
only where it is defined. The originals are put back when the block exits.

Spans are kept in memory as (name, start, end, parent, counts) and turned into
per-layer metrics by `layer_metrics` after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _n_rows(cohort) -> int:
    return sum(len(obs) for obs in cohort.patients.values())


# (module, function, span name, counts taken at the call boundary).
# Functions sharing a span name are reported together.
TARGETS = [
    ("cohort", "load_cohort", "cohort.load_cohort",
     lambda a, k, r: {"rows": _n_rows(r), "patients": r.n_patients}),
    ("cohort", "filter_cohort", "cohort.filter_cohort",
     lambda a, k, r: {"patients": _arg(a, k, 0, "cohort").n_patients, "kept": r.n_patients}),
    ("features", "build_feature_matrix", "features.build_feature_matrix",
     lambda a, k, r: {"rows": _n_rows(_arg(a, k, 0, "cohort"))}),
    ("features", "pam_cluster", "features.pam_cluster", None),
    ("features", "encode_observations", "features.encode_observations", None),
    ("features", "impute_median", "features.impute_median", None),
    ("survival", "label_hidden_states", "survival.label_hidden_states",
     lambda a, k, r: {"patients": _arg(a, k, 0, "matrix").n_patients}),
    ("survival", "fit_window_regressions", "survival.fit_window_regressions",
     lambda a, k, r: {"iterations": sum(f.iterations for f in r)}),
    ("survival", "compute_priors", "survival.compute_priors", None),
    ("hmm", "fit_feature_stage", "hmm.fit_feature_stage", None),
    ("hmm", "estimate_emissions", "hmm.estimate_emissions", None),
    ("hmm", "score_patients", "hmm.score_patients",
     lambda a, k, r: {"patients": _arg(a, k, 1, "matrix").n_patients}),
    ("hmm", "models_to_obj", "hmm.models_io", None),
    ("hmm", "models_from_obj", "hmm.models_io", None),
    ("evaluation", "concordance", "evaluation.concordance", None),
    ("evaluation", "auroc", "evaluation.rank_metrics", None),
    ("evaluation", "aucpr", "evaluation.rank_metrics", None),
    ("evaluation", "first_day_max_scores", "evaluation.first_day_max_scores", None),
    ("evaluation", "baseline_saps_scores", "evaluation.baselines", None),
    ("evaluation", "baseline_logistic_scores", "evaluation.baselines", None),
    ("evaluation", "baseline_exp_survival_scores", "evaluation.baselines", None),
    ("evaluation", "run_cv", "evaluation.run_cv", None),
]

COMMAND_SPAN = "cli.command"


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, counts]
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install a wrapper for every function in TARGETS for the block's duration."""
    replaced = []
    try:
        for module_name, fn_name, span_name, count in TARGETS:
            original = getattr(importlib.import_module(f"icurisk.{module_name}"), fn_name)
            wrapper = tracer.wrap(span_name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "icurisk" and getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    replaced.append((mod, fn_name, original))
        yield tracer
    finally:
        for mod, fn_name, original in reversed(replaced):
            setattr(mod, fn_name, original)


def self_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: total self time, total time, and summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: dict = defaultdict(float)
    total: dict = defaultdict(float)
    counts: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, span_counts) in enumerate(spans):
        own[name] += (end - start) - child_time[i]
        total[name] += end - start
        for key, value in (span_counts or {}).items():
            counts[name][key] += value
    return own, total, counts


def _ratio(num, den) -> float:
    return num / den if den else 0.0


SELF_TIME_SPANS = [
    "cohort.load_cohort", "cohort.filter_cohort",
    "features.build_feature_matrix", "features.pam_cluster",
    "features.encode_observations", "features.impute_median",
    "survival.label_hidden_states", "survival.fit_window_regressions",
    "survival.compute_priors",
    "hmm.fit_feature_stage", "hmm.estimate_emissions", "hmm.score_patients",
    "hmm.models_io",
    "evaluation.concordance", "evaluation.rank_metrics",
    "evaluation.first_day_max_scores", "evaluation.baselines", "evaluation.run_cv",
    COMMAND_SPAN,
]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced command, in the benchmark's names."""
    own, total, counts = self_times(spans)
    m = {f"{name}.self_s": own.get(name, 0.0) for name in SELF_TIME_SPANS}
    load = counts["cohort.load_cohort"]
    m["cohort.load_cohort.rows_per_s"] = _ratio(load["rows"], total.get("cohort.load_cohort", 0.0))
    flt = counts["cohort.filter_cohort"]
    m["cohort.filter_cohort.kept_share"] = _ratio(flt["kept"], flt["patients"])
    m["features.build_feature_matrix.us_per_row"] = 1e6 * _ratio(
        own.get("features.build_feature_matrix", 0.0), counts["features.build_feature_matrix"]["rows"]
    )
    m["survival.label_hidden_states.us_per_patient"] = 1e6 * _ratio(
        own.get("survival.label_hidden_states", 0.0), counts["survival.label_hidden_states"]["patients"]
    )
    m["survival.newton_iterations"] = counts["survival.fit_window_regressions"]["iterations"]
    m["hmm.score_patients.us_per_patient"] = 1e6 * _ratio(
        own.get("hmm.score_patients", 0.0), counts["hmm.score_patients"]["patients"]
    )
    return m


# Units of the metrics `layer_metrics` returns.
LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_SPANS},
    "cohort.load_cohort.rows_per_s": "1/s",
    "cohort.filter_cohort.kept_share": "share",
    "features.build_feature_matrix.us_per_row": "us",
    "survival.label_hidden_states.us_per_patient": "us",
    "survival.newton_iterations": "count",
    "hmm.score_patients.us_per_patient": "us",
}
