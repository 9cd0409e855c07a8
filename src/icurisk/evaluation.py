"""Evaluation harness: ranking metrics, reference baselines, paired tests,
and the repeated stratified cross-validation protocol."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cohort import DEFAULT_REQUIRED_VARIABLES, WindowTables, filter_cohort, map_in_children, usable_cpus
from .features import build_feature_matrix, distinct_rows, window_hours_of
from .hmm import fit_feature_stage, fit_risk_model, normal_band, score_patients
from .survival import (
    TargetSpec,
    _spanning_columns,
    censor_by_target,
    death_prior,
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
        if np.any(np.isnan(self.times)):
            raise ValueError("times must not be NaN")
        if np.any((self.labels != 0) & (self.labels != 1)):
            raise ValueError("labels must be 0/1")


def auroc(s: ScoredSet) -> float:
    """Mann-Whitney AUROC: share of positive/negative pairs ranked correctly,
    ties counted half.

    Tied scores share their mid-rank. Mid-ranks are half-integers, exact in
    float64, so the rank sum is what `scipy.stats.rankdata` gives.
    """
    pos = s.labels == 1
    n_pos = int(pos.sum())
    n_neg = s.labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes")
    _, inverse, count = np.unique(s.scores, return_inverse=True, return_counts=True)
    first = np.cumsum(count) - count   # sorted position of each distinct score's first copy
    ranks = (first + 1 + (count - 1) / 2.0)[inverse]
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

    O(N log^2 N) time and O(N) memory, with no N x N array. Times and
    scores become dense ranks g and r, with G time groups. For an event i,
    each j with r_j < r_i has one highest bit b where r_j and r_i differ, and
    r_i has the 1 there, so r_j >> b == (r_i >> b) - 1 with r_i >> b odd. Per
    bit, one sort of the keys (r >> b) * G + g and two binary searches per
    event count the j with that prefix and a strictly later time group;
    score ties are the same count on the key r_i itself. Concordant, tied and
    comparable pairs are integer counts combined once, and every partial sum
    of the pairwise 1 and 1/2 credits is exact in float64, so the result
    equals the pairwise sum bit for bit.
    """
    time_rank = np.unique(s.times, return_inverse=True)[1]
    score_rank = np.unique(s.scores, return_inverse=True)[1]
    event = s.events == 1
    g, r = time_rank[event], score_rank[event]
    n_comparable = int((s.times.size - np.searchsorted(np.sort(time_rank), g, side="right")).sum())
    if n_comparable == 0:
        raise ValueError("no comparable pairs")
    n_groups = int(time_rank.max()) + 1

    def later_with_key(keys, wanted, group):
        """Number of (event, j) pairs with keys[j] == wanted[event] and j in a
        later time group than group[event]."""
        packed = np.sort(keys * n_groups + time_rank)
        upper = np.searchsorted(packed, (wanted + 1) * n_groups, side="left")
        lower = np.searchsorted(packed, wanted * n_groups + group, side="right")
        return int((upper - lower).sum())

    tied = later_with_key(score_rank, r, g)
    concordant = 0
    for b in range(int(score_rank.max()).bit_length()):
        prefix = r >> b
        odd = (prefix & 1) == 1
        concordant += later_with_key(score_rank >> b, prefix[odd] - 1, g[odd])
    return (2 * concordant + tied) / 2 / n_comparable


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and x in
    [0, 1]: the continued fraction of Numerical Recipes' `betacf`, evaluated
    by the modified Lentz method, for I_x(a, b) below x = (a + 1) / (a + b + 2)
    and for 1 - I_(1-x)(b, a) above it, where each converges fastest."""
    if not 0.0 < x < 1.0:
        return x if x in (0.0, 1.0) else math.nan
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny, eps = 1e-300, 2.0**-52

    def lentz(value):   # keeps a Lentz factor away from zero
        return value if abs(value) > tiny else tiny

    c, d = 1.0, 1.0 / lentz(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, 10_000):
        for term in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / lentz(1.0 + term * d)
            c = lentz(1.0 + term / c)
            fraction *= c * d
        if abs(c * d - 1.0) <= eps:
            log_front = a * math.log(x) + b * math.log1p(-x)
            if a + b < 171.0:
                # math.gamma is finite here. The lgamma sum below loses about
                # 2e-13 of the log when a + b and b are near 130 (lgamma near 500).
                log_front -= math.log(math.gamma(a) / math.gamma(a + b) * math.gamma(b))
            else:
                log_front += math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            return math.exp(log_front) * fraction / a
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def _t_upper_tail(t: float, nu: int) -> float:
    """P(T > t) for Student's t with nu degrees of freedom: half the
    regularized incomplete beta I_x(nu / 2, 1 / 2) at x = nu / (nu + t^2),
    mirrored for t < 0."""
    tail = 0.5 * _betainc(nu / 2.0, 0.5, nu / (nu + t * t))
    return tail if t >= 0 else 1.0 - tail


def paired_t_test_one_tailed(a, b) -> float:
    """Upper-tail p-value of the paired t-test for H1: mean(a) > mean(b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate paired test: zero-variance differences")
    m = d.size
    return _t_upper_tail(float(d.mean()) / (sd / math.sqrt(m)), m - 1)


# --------------------------------------------------------------------------
# Baselines on per-variable worst-case scores
# --------------------------------------------------------------------------

def first_day_max_scores(cohort: WindowTables, variables) -> np.ndarray:
    """Per-patient, per-variable maximum bin score over the full first day.

    One window of [0, 1440) minutes, even when the window size does not
    divide 24 h: the max over the tables' windows, scored with their score
    table; the tables pass `window_hours_of`. Unobserved variables score 0.
    """
    window_hours_of(cohort)
    return np.maximum(cohort.scores(variables).max(axis=1), 0).astype(float)


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


def logistic_loglik(beta, X, y, counts=1.0) -> float:
    z = X @ beta
    # sum of log p over y positives and log(1-p) over counts - y negatives, written stably
    return float(np.sum(y * z - counts * np.logaddexp(0.0, z)))


def logistic_grad(beta, X, y, counts=1.0) -> np.ndarray:
    return X.T @ (y - counts * _sigmoid(X @ beta))


def fit_logistic(X, y, counts=None) -> np.ndarray:
    """Logistic MLE by damped Newton (newton_maximize).

    Row i of X stands for counts[i] subjects (one each by default), y[i] of
    them positive, so a design's distinct rows with summed outcomes give the
    same MLE as its full rows: the log-likelihood is
    sum(y * z - counts * log(1 + e^z)). Coefficients of aliased columns are
    exactly 0.0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    counts = np.ones_like(y) if counts is None else np.asarray(counts, dtype=float)
    if not 0.0 < y.sum() < counts.sum():
        raise ValueError("logistic fit needs both classes")

    def hessian_weights(beta):
        p = _sigmoid(X @ beta)
        return counts * p * (1.0 - p)

    beta, _, _ = newton_maximize(
        lambda b: logistic_loglik(b, X, y, counts),
        lambda b: logistic_grad(b, X, y, counts),
        hessian_weights,
        X,
        _spanning_columns(X),
        np.zeros(X.shape[1]),
        max_iter=200,
    )
    return beta


def baseline_logistic_scores(train_X, train_y, test_X, *, counts=None) -> np.ndarray:
    """Logistic probabilities for test_X, fit on train_X rows with `fit_logistic`'s
    y and counts."""
    X = np.column_stack([np.ones(len(train_X)), train_X])
    beta = fit_logistic(X, train_y, counts)
    return _sigmoid(np.column_stack([np.ones(len(test_X)), test_X]) @ beta)


def baseline_exp_survival_scores(train_X, times, events, test_X, target_hours) -> np.ndarray:
    """Death probability by the target, `death_prior` over target_hours,
    from an exponential fit on max scores (train_X rows with
    `fit_exponential_regression`'s times and events)."""
    X = np.column_stack([np.ones(len(train_X)), train_X])
    fit = fit_exponential_regression(X, times, events)
    return death_prior(hazard(fit.beta, np.column_stack([np.ones(len(test_X)), test_X])), target_hours)


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


def _draw_valid_folds(seed, repeat, died, day_events, n_folds, max_attempts=20):
    """Redraw until every fold and its complement hold both classes per day."""
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, repeat, attempt])
        fold_of = _stratified_folds(rng, died, n_folds)
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
    cohort: WindowTables,
    *,
    target_days=(2, 3, 4, 5),
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

    `cohort` is WindowTables: `load_cohort`, as `icurisk evaluate` does, or
    `window_tables` of rows in memory. Their window size and score table are
    the model's (`window_hours_of`). The patients are filtered on the
    tables; the model's window scores and the first-day baselines are read
    from them.

    The (repeat, fold) units depend only on the tables, `seed` and their own
    indexes, so they run in n = min(usable CPUs, units) blocks of consecutive
    units, here and in forked children (`map_in_children`); the records join
    in unit order, bit for bit the serial ones, a child's warnings are shown
    in unit order and an error is the serial one. With one usable CPU
    (`taskset -c 0`) the units run here in turn.
    """
    tables = filter_cohort(cohort, required_variables, window_hours_of(cohort))
    del cohort
    if tables.n_patients == 0:
        raise ValueError("no patients left after filtering")
    variables = tables.variables
    matrix = build_feature_matrix(tables, variables)

    targets = {day: TargetSpec(day, duration_mode) for day in target_days}
    day_targets = [targets[day] for day in target_days]  # a repeated day is an error
    day_censoring = {
        day: censor_by_target(tables.event_hours, tables.died, t.target_hours)
        for day, t in targets.items()
    }
    day_events = {day: ev for day, (_, ev) in day_censoring.items()}
    baseline_features = first_day_max_scores(tables, variables)
    saps = baseline_saps_scores(baseline_features)
    # The baselines are fit on distinct first-day rows: grouped once here, regrouped per fold.
    first, baseline_group = distinct_rows(baseline_features)

    metric_fns = {"aucpr": aucpr, "cstat": concordance, "auroc": auroc}

    def block_records(block) -> list[MetricRecord]:
        """The records of consecutive (repeat, fold) units, in unit order."""
        records = []
        for repeat, fold in block:
            if fold == 0 or (repeat, fold) == block[0]:
                fold_of = _draw_valid_folds(seed, repeat, tables.died, day_events, folds)
            test = fold_of == fold
            train_idx = np.flatnonzero(~test)
            test_idx = np.flatnonzero(test)
            train_matrix = matrix.subset(train_idx)
            stage = fit_feature_stage(train_matrix, k_clusters, seed=[seed, repeat, fold])
            test_matrix = matrix.subset(test_idx)
            present, train_group = np.unique(baseline_group[train_idx], return_inverse=True)
            train_rows, train_counts = baseline_features[first[present]], np.bincount(train_group)
            model = fit_risk_model(stage, day_targets, smoothing_alpha=smoothing_alpha)
            model_scores = score_patients(model, test_matrix)
            for day in target_days:
                times, events = day_censoring[day]
                train_events = np.bincount(train_group, weights=events[train_idx])
                method_scores = {
                    METHOD_MODEL: model_scores[day].eta,
                    METHOD_SAPS: saps[test_idx],
                    METHOD_LOGISTIC: baseline_logistic_scores(
                        train_rows,
                        train_events,
                        baseline_features[test_idx],
                        counts=train_counts,
                    ),
                    METHOD_EXP_SURVIVAL: baseline_exp_survival_scores(
                        train_rows,
                        np.bincount(train_group, weights=times[train_idx]),
                        train_events,
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
        return records

    units = [(repeat, fold) for repeat in range(repeats) for fold in range(folds)]
    n = min(usable_cpus(), len(units))
    blocks = [units[i * len(units) // n:(i + 1) * len(units) // n] for i in range(n)]
    records = [r for block in map_in_children(block_records, blocks) or [block_records(units)] for r in block]
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
                mean, half = normal_band(np.array(by_key[(day, method, metric)]))
                summary[day][method][metric] = {"mean": mean, "ci_low": mean - half, "ci_high": mean + half}
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
