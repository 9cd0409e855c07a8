"""Evaluation harness: ranking metrics, reference baselines, paired tests,
and the repeated stratified cross-validation protocol."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cohort import DEFAULT_REQUIRED_VARIABLES, WindowTables, filter_cohort, map_in_children, usable_cpus
from .features import build_feature_matrix, distinct_rows, window_hours_of
from .hmm import fit_feature_stage, fit_risk_model, normal_band, score_patients
from .survival import (
    TargetSpec,
    _fit_exponential,
    _spanning_columns,
    censor_by_target,
    death_prior,
    hazard,
    newton_maximize,
)

METHOD_MODEL = "chf_ar_hmm"
METHOD_SAPS = "saps"
METHOD_LOGISTIC = "logistic"
METHOD_EXP_SURVIVAL = "exp_survival"
ALL_METHODS = (METHOD_MODEL, METHOD_SAPS, METHOD_LOGISTIC, METHOD_EXP_SURVIVAL)
ALL_METRICS = ("aucpr", "cstat", "auroc")


def _dense_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(values, return_inverse=True, return_counts=True)[1:]` of
    1-D values without NaN: each value's rank among the distinct values
    (equal values, -0.0 and 0.0 among them, share one) and each rank's
    count, from one sort."""
    order = np.argsort(values)
    ordered = values[order]
    first = np.ones(values.size, dtype=bool)   # each distinct value's first copy, in sorted order
    first[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(values.size, dtype=np.intp)
    rank[order] = np.cumsum(first) - 1
    return rank, np.diff(np.flatnonzero(np.append(first, True)))


class Outcomes:
    """The survival ground truth of a set of subjects, checked and ranked
    once for every ScoredSet on it: labels (death by target, 0/1), times
    (hours, censored at the target) and events (0/1, the labels under
    by-target censoring). Each subject's band is the number of events
    before its time, so subject j outlives an event i exactly when
    band[j] > band[i]; `n_comparable` counts concordance's pairs, and
    `band_keys`, `start` and `even` are the parts of its keys and queries
    that do not depend on the scores."""

    def __init__(self, labels, times, events):
        self.labels = np.asarray(labels, dtype=int)
        self.times = np.asarray(times, dtype=float)
        self.events = np.asarray(events, dtype=int)
        if np.any(np.isnan(self.times)):
            raise ValueError("times must not be NaN")
        if np.any((self.labels != 0) & (self.labels != 1)):
            raise ValueError("labels must be 0/1")
        self.positive = self.labels == 1
        self.event = self.events == 1
        n, event_times = self.times.size, np.sort(self.times[self.event])
        band = np.searchsorted(event_times, self.times, side="left")
        later = n - np.cumsum(np.bincount(band, minlength=event_times.size + 1))
        self.n_comparable = int(later[band[self.event]].sum())
        # per bit b, the keys (band >> b) * n, offset above every key of the bits before
        bit = np.arange(max(event_times.size.bit_length(), 1))[:, None]
        offset = bit * ((event_times.size + 2) * n)
        self.band_keys = (band >> bit) * n + offset
        prefix = band[self.event] >> bit
        self.even = (prefix & 1) == 0
        self.start = (offset + (prefix + 1) * n)[self.even]


class ScoredSet:
    """Scores plus the survival ground truth (`Outcomes`) needed by all three
    metrics, with the scores ranked once for all of them: `rank` and `count`
    are `_dense_ranks` of the scores."""

    def __init__(self, scores, labels, times, events):
        self._rank(scores)
        self.outcomes = Outcomes(labels, times, events)

    @classmethod
    def sharing(cls, outcomes: Outcomes, scores) -> "ScoredSet":
        """Scores on the subjects of `outcomes`, which several sets share."""
        scored = cls.__new__(cls)
        scored._rank(scores)
        scored.outcomes = outcomes
        return scored

    def _rank(self, scores) -> None:
        self.scores = np.asarray(scores, dtype=float)
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        self.rank, self.count = _dense_ranks(self.scores)

    labels = property(lambda self: self.outcomes.labels)
    times = property(lambda self: self.outcomes.times)
    events = property(lambda self: self.outcomes.events)


def auroc(s: ScoredSet) -> float:
    """Mann-Whitney AUROC: share of positive/negative pairs ranked correctly,
    ties counted half.

    Tied scores share their mid-rank. Mid-ranks are half-integers, exact in
    float64, so the rank sum is what `scipy.stats.rankdata` gives.
    """
    pos = s.outcomes.positive
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes")
    first = np.cumsum(s.count) - s.count   # sorted position of each distinct score's first copy
    ranks = (first + 1 + (s.count - 1) / 2.0)[s.rank]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def aucpr(s: ScoredSet) -> float:
    """Average precision over positives in descending-score order.

    Ties are broken by the original (stable) order; the random-classifier
    reference value equals the positive prevalence.
    """
    n_pos = int(s.outcomes.positive.sum())
    if n_pos == 0:
        raise ValueError("AUCPR needs at least one positive")
    n = s.rank.size
    # descending score rank, then ascending index: distinct keys, so any sort is stable
    order = np.sort((s.count.size - 1 - s.rank) * n + np.arange(n)) % n
    labels = s.labels[order]
    precision = np.cumsum(labels) / np.arange(1, labels.size + 1)
    return float(precision[labels == 1].sum() / n_pos)


def concordance(s: ScoredSet) -> float:
    """Fraction of comparable pairs where the shorter survivor scores higher.

    A pair is comparable when its strictly shorter-time member had an event;
    score ties credit half. Censored-before-event pairs are incomparable.

    O(N log^2 N) time and O(N log N) memory, with no N x N array. Scores
    are dense ranks r (`ScoredSet.rank`, below N) and times are bands k
    (`Outcomes`): j outlives an event i when k_j > k_i. Each such j has one
    highest bit b where k_j and k_i differ, and k_j has the 1 there, so
    k_j >> b == (k_i >> b) + 1 with k_i >> b even. One sort of the keys
    (k >> b) * N + r of every bit, offset per bit, and binary searches per
    event and bit count those j with a lower score rank (keys in [P * N,
    P * N + r_i) for that prefix P) and with a tied one (the key P * N + r_i).
    Concordant, tied and comparable pairs are integer counts combined once,
    and every partial sum of the pairwise 1 and 1/2 credits is exact in
    float64, so the result equals the pairwise sum bit for bit.
    """
    truth = s.outcomes
    if truth.n_comparable == 0:
        raise ValueError("no comparable pairs")
    packed = np.sort((truth.band_keys + s.rank).ravel())
    own = truth.start + np.broadcast_to(s.rank[truth.event], truth.even.shape)[truth.even]

    def below(keys):
        """The number of (query, packed key) pairs with the key below the query."""
        return int(np.searchsorted(packed, np.sort(keys)).sum())

    # twice the concordant keys, in [start, own), plus the tied ones, own itself
    return (below(own) + below(own + 1) - 2 * below(truth.start)) / 2 / truth.n_comparable


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
    return _logistic_loglik(X @ beta, y, counts)[0]


def logistic_grad(beta, X, y, counts=1.0) -> np.ndarray:
    return X.T @ _logistic_slope(X @ beta, y, counts)[0]


def _logistic_loglik(z, y, counts):
    """The log-likelihood at the linear predictor z = X beta, and z for
    `_logistic_slope`."""
    # sum of log p over y positives and log(1-p) over counts - y negatives, written stably
    return float(np.sum(y * z - counts * np.logaddexp(0.0, z))), z


def _logistic_slope(z, y, counts):
    """(r, w) at z: the gradient is X^T r and the negative Hessian
    X^T diag(w) X, w = counts * p * (1 - p)."""
    p = _sigmoid(z)
    expected = counts * p
    return y - expected, expected * (1.0 - p)


def fit_logistic(X, y, counts=None) -> np.ndarray:
    """Logistic MLE by damped Newton (newton_maximize).

    Row i of X stands for counts[i] subjects (one each by default), y[i] of
    them positive, so a design's distinct rows with summed outcomes give the
    same MLE as its full rows: the log-likelihood is
    sum(y * z - counts * log(1 + e^z)). Coefficients of aliased columns are
    exactly 0.0.
    """
    X = np.asarray(X, dtype=float)
    return _fit_logistic(X, _spanning_columns(X), y, counts)


def _fit_logistic(X, keep, y, counts=None) -> np.ndarray:
    """`fit_logistic` of a 2-D float X with `keep` = `_spanning_columns(X)`."""
    y = np.asarray(y, dtype=float)
    counts = np.ones_like(y) if counts is None else np.asarray(counts, dtype=float)
    if not 0.0 < y.sum() < counts.sum():
        raise ValueError("logistic fit needs both classes")
    beta, _, _ = newton_maximize(
        lambda z: _logistic_loglik(z, y, counts),
        lambda z: _logistic_slope(z, y, counts),
        X,
        keep,
        np.zeros(X.shape[1]),
        max_iter=200,
    )
    return beta


class BaselineDesign(NamedTuple):
    """The designs [1, max scores] of the regression baselines: the training
    rows' with the columns a fit keeps (`_spanning_columns`), and the rows
    to score. A CV unit builds them once for every target day."""

    train: np.ndarray
    keep: np.ndarray
    test: np.ndarray


def baseline_design(train_X, test_X) -> BaselineDesign:
    train = np.column_stack([np.ones(len(train_X)), train_X])
    return BaselineDesign(train, _spanning_columns(train), np.column_stack([np.ones(len(test_X)), test_X]))


def baseline_logistic_scores(design: BaselineDesign, train_y, *, counts=None) -> np.ndarray:
    """Logistic probabilities for the design's test rows, fit on its
    training rows with `fit_logistic`'s y and counts."""
    return _sigmoid(design.test @ _fit_logistic(design.train, design.keep, train_y, counts))


def baseline_exp_survival_scores(design: BaselineDesign, times, events, target_hours) -> np.ndarray:
    """Death probability by the target, `death_prior` over target_hours, of
    the design's test rows, from an exponential fit on its training rows
    with `fit_exponential_regression`'s times and events."""
    fit = _fit_exponential(design.train, design.keep, times, events)
    return death_prior(hazard(fit.beta, design.test), target_hours)


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
    ordered = np.sort(strata)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    for value in ordered[first]:   # the distinct strata, ascending
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
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
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
            train_counts = np.bincount(train_group)
            design = baseline_design(baseline_features[first[present]], baseline_features[test_idx])
            model = fit_risk_model(stage, day_targets, smoothing_alpha=smoothing_alpha)
            model_scores = score_patients(model, test_matrix)
            for day in target_days:
                times, events = day_censoring[day]
                train_events = np.bincount(train_group, weights=events[train_idx])
                method_scores = {
                    METHOD_MODEL: model_scores[day].eta,
                    METHOD_SAPS: saps[test_idx],
                    METHOD_LOGISTIC: baseline_logistic_scores(design, train_events, counts=train_counts),
                    METHOD_EXP_SURVIVAL: baseline_exp_survival_scores(
                        design,
                        np.bincount(train_group, weights=times[train_idx]),
                        train_events,
                        targets[day].target_hours,
                    ),
                }
                outcomes = Outcomes(events[test_idx], times[test_idx], events[test_idx])
                for method, scores in method_scores.items():
                    scored = ScoredSet.sharing(outcomes, scores)
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
