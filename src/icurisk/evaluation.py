"""Evaluation harness: ranking metrics, reference baselines, paired tests,
and the repeated stratified cross-validation protocol."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc
from scipy.stats import rankdata

from .cohort import DEFAULT_REQUIRED_VARIABLES, RawCohort, filter_cohort
from .features import FeatureSpec, ScoreTable, build_feature_matrix
from .hmm import fit_feature_stage, fit_risk_model, score_patients
from .survival import (
    TargetSpec,
    censor_by_target,
    fit_exponential_regression,
    hazard,
    newton_maximize,
)

METHOD_MODEL = "chf_ar_hmm"
METHOD_SAPS = "saps"
METHOD_LOGISTIC = "logistic"
METHOD_EXP_SURVIVAL = "exp_survival"
ALL_METHODS = (METHOD_MODEL, METHOD_SAPS, METHOD_LOGISTIC, METHOD_EXP_SURVIVAL)
ALL_METRICS = ("aucpr", "cstat", "auroc")


@dataclass
class ScoredSet:
    """Scores plus the survival ground truth needed by all three metrics."""

    scores: np.ndarray
    labels: np.ndarray    # death by target, 0/1
    times: np.ndarray     # hours, censored at the target
    events: np.ndarray    # 0/1, same as labels under by-target censoring

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.times = np.asarray(self.times, dtype=float)
        self.events = np.asarray(self.events, dtype=int)
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if np.any((self.labels != 0) & (self.labels != 1)):
            raise ValueError("labels must be 0/1")


def auroc(s: ScoredSet) -> float:
    """Mann-Whitney AUROC: share of positive/negative pairs ranked correctly,
    ties counted half."""
    pos = s.labels == 1
    n_pos = int(pos.sum())
    n_neg = s.labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes")
    ranks = rankdata(s.scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def aucpr(s: ScoredSet) -> float:
    """Average precision over positives in descending-score order.

    Ties are broken by the original (stable) order; the random-classifier
    reference value equals the positive prevalence.
    """
    n_pos = int((s.labels == 1).sum())
    if n_pos == 0:
        raise ValueError("AUCPR needs at least one positive")
    order = np.argsort(-s.scores, kind="stable")
    labels = s.labels[order]
    precision = np.cumsum(labels) / np.arange(1, labels.size + 1)
    return float(precision[labels == 1].sum() / n_pos)


def concordance(s: ScoredSet) -> float:
    """Fraction of comparable pairs where the shorter survivor scores higher.

    A pair is comparable when its strictly shorter-time member had an event;
    score ties credit half. Censored-before-event pairs are incomparable.
    """
    t = s.times
    shorter_event = (t[:, None] < t[None, :]) & (s.events[:, None] == 1)
    n_comparable = int(shorter_event.sum())
    if n_comparable == 0:
        raise ValueError("no comparable pairs")
    diff = s.scores[:, None] - s.scores[None, :]
    credit = np.where(diff > 0, 1.0, np.where(diff == 0, 0.5, 0.0))
    return float((credit * shorter_event).sum() / n_comparable)


def paired_t_test_one_tailed(a, b) -> float:
    """Upper-tail p-value of the paired t-test for H1: mean(a) > mean(b).

    The Student-t CDF is evaluated through the regularized incomplete beta
    function.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate paired test: zero-variance differences")
    m = d.size
    t = float(d.mean()) / (sd / math.sqrt(m))
    nu = m - 1
    x = nu / (nu + t * t)
    tail = 0.5 * float(betainc(nu / 2.0, 0.5, x))
    return tail if t >= 0 else 1.0 - tail


# --------------------------------------------------------------------------
# Baselines on per-variable worst-case scores
# --------------------------------------------------------------------------

def first_day_max_scores(cohort: RawCohort, variables, table: ScoreTable) -> np.ndarray:
    """Per-patient, per-variable maximum bin score over the full first day.

    Unlike the windowed features, this covers all of [0, 1440) minutes even
    when the window size does not divide 24 h. Unobserved variables score 0.
    """
    column = {v: j for j, v in enumerate(variables)}
    out = np.zeros((cohort.n_patients, len(variables)))
    for i, obs in enumerate(cohort.patients.values()):
        for o in obs:
            j = column.get(o.variable)
            if j is None or o.beyond_first_day:
                continue
            score = table.score_value(o.variable, o.value)
            if score > out[i, j]:
                out[i, j] = score
    return out


def baseline_saps_scores(max_features: np.ndarray) -> np.ndarray:
    """Summed worst-case scores, used directly as the risk score."""
    return np.asarray(max_features, dtype=float).sum(axis=1)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loglik(beta, X, y) -> float:
    z = X @ beta
    # log p for y=1, log(1-p) for y=0, written stably
    return float(np.sum(y * z - np.logaddexp(0.0, z)))


def logistic_grad(beta, X, y) -> np.ndarray:
    return X.T @ (y - _sigmoid(X @ beta))


def fit_logistic(X, y) -> np.ndarray:
    """Logistic MLE by damped Newton (newton_maximize)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.min() == y.max():
        raise ValueError("logistic fit needs both classes")

    def hessian_weights(beta):
        p = _sigmoid(X @ beta)
        return p * (1.0 - p)

    beta, _, _ = newton_maximize(
        lambda b: logistic_loglik(b, X, y),
        lambda b: logistic_grad(b, X, y),
        hessian_weights,
        X,
        np.zeros(X.shape[1]),
        max_iter=200,
    )
    return beta


def baseline_logistic_scores(train_X, train_y, test_X) -> np.ndarray:
    X = np.column_stack([np.ones(len(train_X)), train_X])
    beta = fit_logistic(X, train_y)
    return _sigmoid(np.column_stack([np.ones(len(test_X)), test_X]) @ beta)


def baseline_exp_survival_scores(train_X, times, events, test_X, target_hours) -> np.ndarray:
    """Death probability by the target from an exponential fit on max scores."""
    X = np.column_stack([np.ones(len(train_X)), train_X])
    fit = fit_exponential_regression(X, times, events)
    lam = hazard(fit.beta, np.column_stack([np.ones(len(test_X)), test_X]))
    return -np.expm1(-np.atleast_1d(lam) * target_hours)


# --------------------------------------------------------------------------
# Cross-validation protocol
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricRecord:
    day: int
    method: str
    metric: str
    repeat: int
    fold: int
    value: float


@dataclass
class EvaluationReport:
    records: list[MetricRecord]
    summary: dict            # day -> method -> metric -> {mean, ci_low, ci_high}
    p_values: dict           # day -> baseline -> metric -> p (None if degenerate)
    metadata: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {str(day): block for day, block in self.summary.items()}
        obj["p_values"] = {
            str(day): block for day, block in self.p_values.items()
        }
        obj["metadata"] = self.metadata
        return obj

    def metric_values(self, day: int, method: str, metric: str) -> np.ndarray:
        return np.array(
            [
                r.value
                for r in self.records
                if r.day == day and r.method == method and r.metric == metric
            ]
        )

    def csv_rows(self):
        yield "day,method,metric,repeat,fold,value"
        for r in self.records:
            yield f"{r.day},{r.method},{r.metric},{r.repeat},{r.fold},{r.value!r}"


def _stratified_folds(rng, strata: np.ndarray, n_folds: int) -> np.ndarray:
    """Fold id per subject; each stratum is shuffled and dealt round-robin."""
    fold_of = np.empty(strata.size, dtype=int)
    offset = 0
    for value in np.unique(strata):
        idx = np.flatnonzero(strata == value)
        rng.shuffle(idx)
        fold_of[idx] = (np.arange(idx.size) + offset) % n_folds
        offset += idx.size  # stagger so small strata spread across folds
    return fold_of


def _draw_valid_folds(seed, repeat, death_flag, day_events, n_folds, max_attempts=20):
    """Redraw until every fold and its complement hold both classes per day."""
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, repeat, attempt])
        fold_of = _stratified_folds(rng, death_flag, n_folds)
        ok = True
        for fold in range(n_folds):
            test = fold_of == fold
            for events in day_events.values():
                for part in (events[test], events[~test]):
                    if part.size == 0 or part.min() == part.max():
                        ok = False
        if ok:
            return fold_of
    raise ValueError(
        f"could not draw folds with both outcome classes everywhere "
        f"in {max_attempts} attempts (repeat {repeat})"
    )


def run_cv(
    cohort: RawCohort,
    score_table: ScoreTable,
    *,
    target_days=(2, 3, 4, 5),
    window_hours: int = 12,
    k_clusters: int = 4,
    smoothing_alpha: float = 1.0,
    folds: int = 3,
    repeats: int = 30,
    seed: int = 0,
    duration_mode: str = "as_printed",
    required_variables=DEFAULT_REQUIRED_VARIABLES,
) -> EvaluationReport:
    """Repeated stratified k-fold comparison of the model against baselines.

    Per repeat, one outcome-stratified fold split is drawn (redrawn up to 20
    times if any fold lacks an outcome class for some target day). All fitting
    (medians, medoids, survival coefficients, state labels, emissions, and the
    baseline regressions) happens on training folds only.
    """
    cohort = filter_cohort(cohort, required_variables, window_hours)
    if cohort.n_patients == 0:
        raise ValueError("no patients left after filtering")
    variables = sorted({o.variable for obs in cohort.patients.values() for o in obs})
    spec = FeatureSpec(tuple(variables), window_hours)
    matrix = build_feature_matrix(cohort, spec, score_table)

    outcomes = [cohort.outcomes[pid] for pid in matrix.patient_ids]
    death_flag = np.array([o.death_flag for o in outcomes], dtype=int)
    targets = {
        day: TargetSpec(day, window_hours, duration_mode) for day in target_days
    }
    day_censoring = {
        day: censor_by_target(outcomes, t.target_hours) for day, t in targets.items()
    }
    day_events = {day: ev for day, (_, ev) in day_censoring.items()}
    baseline_features = first_day_max_scores(cohort, variables, score_table)
    saps = baseline_saps_scores(baseline_features)

    records: list[MetricRecord] = []
    metric_fns = {"aucpr": aucpr, "cstat": concordance, "auroc": auroc}
    for repeat in range(repeats):
        fold_of = _draw_valid_folds(seed, repeat, death_flag, day_events, folds)
        for fold in range(folds):
            test = fold_of == fold
            train_idx = np.flatnonzero(~test)
            test_idx = np.flatnonzero(test)
            train_matrix = matrix.subset(train_idx)
            stage = fit_feature_stage(train_matrix, k_clusters, seed=[seed, repeat, fold])
            test_matrix = matrix.subset(test_idx)
            for day in target_days:
                times, events = day_censoring[day]
                model = fit_risk_model(
                    train_matrix,
                    cohort.outcomes,
                    targets[day],
                    score_table,
                    k_clusters=k_clusters,
                    smoothing_alpha=smoothing_alpha,
                    stage=stage,
                )
                eta = np.array([s.eta for s in score_patients(model, test_matrix)])
                method_scores = {
                    METHOD_MODEL: eta,
                    METHOD_SAPS: saps[test_idx],
                    METHOD_LOGISTIC: baseline_logistic_scores(
                        baseline_features[train_idx],
                        events[train_idx],
                        baseline_features[test_idx],
                    ),
                    METHOD_EXP_SURVIVAL: baseline_exp_survival_scores(
                        baseline_features[train_idx],
                        times[train_idx],
                        events[train_idx],
                        baseline_features[test_idx],
                        targets[day].target_hours,
                    ),
                }
                for method, scores in method_scores.items():
                    scored = ScoredSet(
                        scores=scores,
                        labels=events[test_idx],
                        times=times[test_idx],
                        events=events[test_idx],
                    )
                    for metric, fn in metric_fns.items():
                        records.append(
                            MetricRecord(day, method, metric, repeat, fold, fn(scored))
                        )

    return _aggregate(records, target_days, day_events, folds, repeats, seed)


def _aggregate(records, target_days, day_events, folds, repeats, seed) -> EvaluationReport:
    summary: dict = {}
    p_values: dict = {}
    by_key: dict = {}
    for r in records:
        by_key.setdefault((r.day, r.method, r.metric), []).append(r.value)

    for day in target_days:
        summary[day] = {}
        for method in ALL_METHODS:
            summary[day][method] = {}
            for metric in ALL_METRICS:
                values = np.array(by_key[(day, method, metric)])
                mean = float(values.mean())
                half = (
                    1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
                    if values.size > 1
                    else 0.0
                )
                summary[day][method][metric] = {
                    "mean": mean,
                    "ci_low": mean - half,
                    "ci_high": mean + half,
                }
        p_values[day] = {}
        for baseline in (METHOD_SAPS, METHOD_LOGISTIC, METHOD_EXP_SURVIVAL):
            p_values[day][baseline] = {}
            for metric in ALL_METRICS:
                a = np.array(by_key[(day, METHOD_MODEL, metric)])
                b = np.array(by_key[(day, baseline, metric)])
                try:
                    p = paired_t_test_one_tailed(a, b)
                except ValueError:
                    p = None  # zero-variance differences
                p_values[day][baseline][metric] = p

    metadata = {
        "folds": folds,
        "repeats": repeats,
        "seed": seed,
        "ci_method": "normal approximation over CV values",
        "aucpr_estimator": "average precision, stable descending-score tie order",
        "aucpr_baseline": {
            str(day): float(np.mean(events)) for day, events in day_events.items()
        },
        "paired_test": "one-tailed paired t-test, model vs baseline",
    }
    return EvaluationReport(records=records, summary=summary, p_values=p_values, metadata=metadata)
