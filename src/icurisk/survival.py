"""Censored exponential survival regression and hidden-state labeling.

Each time window gets its own log-linear hazard fit. The per-window death
prior is the cumulative-hazard probability 1 - exp(-lambda * V), and training
state labels come from a supervised density-ratio normalization of those
priors (`normalize_death_share`), thresholded at 0.5.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .features import distinct_rows

MAX_LOG_HAZARD = 700.0
SEPARATION_LIMIT = 30.0
NEWTON_TOL = 1e-8
# A design column whose part outside the span of the columns before it is
# below this share of its norm is aliased (the tolerance of R's glm.fit).
ALIAS_TOL = 1e-11
BANDWIDTH_FLOOR = 1e-3

AS_PRINTED = "as_printed"
REMAINING = "remaining"


@dataclass(frozen=True)
class TargetSpec:
    """Prediction horizon and how per-window exposure durations are formed."""

    target_day: int
    duration_mode: str = AS_PRINTED

    def __post_init__(self):
        if self.target_day < 1:
            raise ValueError("target_day must be a positive integer")
        if self.duration_mode not in (AS_PRINTED, REMAINING):
            raise ValueError(f"unknown duration_mode {self.duration_mode!r}")

    @property
    def target_hours(self) -> float:
        return 24.0 * self.target_day

    def exposure_duration(self, t: int, window_hours: int) -> float:
        """Exposure V_t (hours) for 1-based window t of `window_hours` hours.

        The default mode adds elapsed window time to the horizon; the
        alternative subtracts it (time remaining until the target).
        """
        if t < 1:
            raise ValueError("window index is 1-based")
        elapsed = float(window_hours * t)
        if self.duration_mode == AS_PRINTED:
            return self.target_hours + elapsed
        if elapsed >= self.target_hours:
            raise ValueError(
                f"window {t} leaves no remaining exposure before hour {self.target_hours}"
            )
        return self.target_hours - elapsed


def censor_by_target(event_hours, died, target_hours: float):
    """Death-by-target events and right-censored exposure times.

    Per patient of the aligned `event_hours` and `died`: death at or before
    the horizon is an event at its own time; everyone else (discharged
    alive, died later, or still in) is censored at min(event_hours, target_hours).
    """
    hours = np.asarray(event_hours, dtype=float)
    # an event's time is its own, which is the minimum too
    times = np.minimum(hours, target_hours)
    events = (np.asarray(died, dtype=bool) & (hours <= target_hours)).astype(np.uint8)
    return times, events


@dataclass(frozen=True)
class SurvivalFit:
    beta: np.ndarray
    iterations: int
    grad_norm: float


def _exponential_loglik(xb, times, events):
    """The log-likelihood at the linear predictor xb = X beta, and the rates
    exp(xb) `_exponential_slope` takes."""
    with np.errstate(over="ignore"):
        lam = np.exp(xb)
    return float(events @ xb - lam @ times), lam


def _exponential_slope(lam, times, events):
    """(r, w) at the rates lam: the gradient is X^T r and the negative
    Hessian X^T diag(w) X."""
    exposure = lam * times
    return events - exposure, exposure


def _spanning_columns(X) -> np.ndarray:
    """Mask of the columns of X a fit keeps: in order, each column that
    raises the rank of the columns kept before it.

    Modified Gram-Schmidt: each kept column, normalised, is projected out of
    every later column. A column whose part left over is at most ALIAS_TOL
    of its own norm does not raise the rank (an all-zero column, or an
    all-ones indicator after the intercept) and is projected out of
    nothing, so it cannot hide a later column.
    """
    rest = np.array(X.T, dtype=float)   # one row per column of X
    limit = ALIAS_TOL**2 * (rest * rest).sum(axis=1)
    keep = np.zeros(rest.shape[0], dtype=bool)
    for j, column in enumerate(rest):
        size = float(column @ column)
        if size > limit[j]:
            keep[j] = True
            q = column / math.sqrt(size)
            rest[j + 1:] -= (rest[j + 1:] @ q)[:, None] * q
    return keep


def newton_maximize(loglik, slope, X, keep, beta, max_iter: int, trace=None):
    """Maximize a concave log-likelihood of the linear predictor X beta by
    damped Newton.

    `loglik(z)` returns the log-likelihood at z = X beta and what `slope`
    takes (z, or its exp), and `slope` returns (r, w): the gradient is
    X^T r and the negative Hessian X^T diag(w) X. Each iterate computes
    X beta, its log-likelihood and its slope once.
    Columns of X outside `keep` (`_spanning_columns(X)`: the intercept comes
    first) are aliased: their coefficients are set to, and stay, exactly
    0.0, so the fit and its result do not depend on the order of the rows.
    On the kept columns the negative Hessian is positive definite away from
    separation, and each Newton step is an `np.linalg.solve` with it. Steps
    are halved until the log-likelihood does not drop. Convergence is
    gradient max-norm <= NEWTON_TOL. `trace`, when a list, collects the
    log-likelihood after every iteration.

    Returns (beta, iterations, gradient max-norm). Raises ValueError when a
    line-searched step takes a coefficient past SEPARATION_LIMIT in
    magnitude, and RuntimeError when all 60 halvings of a Newton step lower
    the log-likelihood (the line search stalls) or max_iter iterations do
    not converge.
    """
    kept = X[:, keep]
    beta = np.where(keep, beta, 0.0)
    ll, at = loglik(X @ beta)
    for iteration in range(1, max_iter + 1):
        r, w = slope(at)
        g = X.T @ r
        grad_norm = float(np.abs(g).max())
        if grad_norm <= NEWTON_TOL:
            return beta, iteration - 1, grad_norm

        step = np.zeros(beta.shape)
        step[keep] = np.linalg.solve(kept.T @ (w[:, None] * kept), g[keep])

        if 0.5 * float(g @ step) < 1e-9:
            # Predicted gain is below log-likelihood resolution: a line search
            # cannot see it, but the full Newton step still kills the gradient.
            beta = beta + step
            ll, at = loglik(X @ beta)
            if trace is not None:
                trace.append(ll)
            continue

        scale = 1.0
        for _ in range(60):
            trial = beta + scale * step
            trial_ll, trial_at = loglik(X @ trial)
            if trial_ll >= ll:
                break
            scale *= 0.5
        else:
            raise RuntimeError(
                f"line search stalled at iteration {iteration}, grad max-norm {grad_norm:.3e}"
            )
        beta, ll, at = trial, trial_ll, trial_at
        if trace is not None:
            trace.append(ll)
        if np.abs(beta).max() > SEPARATION_LIMIT:
            raise ValueError("quasi-separation: coefficient magnitude exceeded 30")

    grad_norm = float(np.max(np.abs(X.T @ slope(at)[0])))
    raise RuntimeError(
        f"no convergence after {max_iter} iterations (grad max-norm {grad_norm:.3e})"
    )


def fit_exponential_regression(X, times, events, *, trace=None) -> SurvivalFit:
    """Maximize the censored exponential log-likelihood by damped Newton.

    The log-likelihood is concave, so newton_maximize converges to the MLE.
    A row may stand for one subject or for a group of subjects that share
    the design row, with the group's summed exposure and event count: the
    log-likelihood events . (X beta) - exp(X beta) . times has the same form
    either way, so fitting a design's distinct rows changes only the order
    of the sums. Coefficients of aliased columns are exactly 0.0.

    Parameters
    ----------
    X : (n, d) design matrix; the caller supplies the intercept column.
    times : (n,) positive exposure durations in hours, summed per row.
    events : (n,) deaths per row: 1 or 0 for one subject, the count for a group.
    trace : optional list collecting the log-likelihood after every iteration.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one subject")
    return _fit_exponential(X, _spanning_columns(X), times, events, trace)


def _fit_exponential(X, keep, times, events, trace=None) -> SurvivalFit:
    """`fit_exponential_regression` of a 2-D X with `keep` = `_spanning_columns(X)`."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    if np.any(times <= 0):
        raise ValueError("exposure times must be positive")
    n_events = float(events.sum())
    if n_events == 0:
        raise ValueError("no events to fit")

    beta = np.zeros(X.shape[1])
    beta[0] = math.log(n_events / float(times.sum()))  # closed-form intercept start
    beta, iterations, grad_norm = newton_maximize(
        lambda xb: _exponential_loglik(xb, times, events),
        lambda lam: _exponential_slope(lam, times, events),
        X,
        keep,
        beta,
        max_iter=500,
        trace=trace,
    )
    return SurvivalFit(beta=beta, iterations=iterations, grad_norm=grad_norm)


def hazard(beta, features):
    """lambda = exp(beta . y), events per hour.

    Accepts a single feature vector or a stack of them. The linear predictor
    is summed one column at a time, so a row's rate does not depend on the
    rows scored with it. Linear predictors above 700 raise; below -700 the
    rate is clamped to the smallest positive normal.
    """
    beta = np.asarray(beta, dtype=float)
    features = np.asarray(features, dtype=float)
    score = sum(column * b for column, b in zip(np.moveaxis(features, -1, 0), beta, strict=True))
    if np.any(score > MAX_LOG_HAZARD):
        raise ValueError("hazard overflow: linear predictor exceeds 700")
    low = score < -MAX_LOG_HAZARD
    if np.any(low):
        warnings.warn("hazard underflow: clamping rate to the smallest positive normal")
    out = np.where(low, np.finfo(float).tiny, np.exp(np.where(low, 0.0, score)))
    return float(out) if out.ndim == 0 else out


def death_prior(lam, duration):
    """Per-window prior probability of the Death state: 1 - exp(-lambda * V)."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0) or duration <= 0:
        raise ValueError("hazard rate and duration must be positive")
    out = -np.expm1(-lam * duration)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# Supervised density normalization
# --------------------------------------------------------------------------

def _sorted_quartiles(ordered: np.ndarray) -> np.ndarray:
    """np.percentile(ordered, [25, 75]) of values sorted ascending, by its
    default linear interpolation between sorted values, without the
    partition that makes NumPy 2 import numpy.ma. Equal as numbers: where
    -0.0 and 0.0 meet, sort and partition may order them apart."""
    at = (ordered.size - 1) * np.array([0.25, 0.75])
    below = np.floor(at).astype(np.int64)
    t = at - below
    a, b = ordered[below], ordered[np.minimum(below + 1, ordered.size - 1)]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def _bandwidth(values: np.ndarray, ordered: np.ndarray) -> float:
    """Silverman's rule-of-thumb bandwidth of `values`, given them sorted as
    `ordered`, floored at BANDWIDTH_FLOOR."""
    n = values.size
    sd = float(np.std(values, ddof=1))
    low, high = _sorted_quartiles(ordered)
    iqr = float(high - low)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def _kde(points: np.ndarray, sample: np.ndarray) -> np.ndarray:
    """Gaussian kernel density of `sample`, with its Silverman bandwidth, at
    each point.

    Each point is the count-weighted kernel sum over the U_s distinct
    sample values, in chunks of points, so memory is O(chunk * U_s). The
    priors of a window take one value per cell, hundreds against thousands
    of patients. A count-weighted sum rounds differently from a sum with one
    term per sample, so the two agree only to the last bits. The sample is
    sorted once, for its distinct values and its quartiles, and each chunk's
    kernel terms are computed in place in two reused buffers.
    """
    ordered = np.sort(sample)
    first = np.ones(ordered.size, dtype=bool)   # each distinct value's first copy
    first[1:] = ordered[1:] != ordered[:-1]
    values = ordered[first]
    weights = np.diff(np.append(np.flatnonzero(first), ordered.size)).astype(float)
    bandwidth = _bandwidth(sample, ordered)
    out = np.empty(points.size)
    norm = weights.sum() * bandwidth * math.sqrt(2.0 * math.pi)
    z = np.empty((min(points.size, 2048), values.size))
    kernel = np.empty_like(z)
    for start in range(0, points.size, 2048):
        chunk = points[start:start + 2048, None]
        zc, kc = z[:chunk.shape[0]], kernel[:chunk.shape[0]]
        np.subtract(chunk, values, out=zc)
        zc /= bandwidth
        np.multiply(-0.5, zc, out=kc)   # the terms exp(-0.5 * z * z) * weights
        kc *= zc
        np.exp(kc, out=kc)
        kc *= weights
        out[start:start + 2048] = kc.sum(axis=1) / norm
    return out


def normalize_death_share(probs, labels, queries) -> np.ndarray:
    """The death class's share of the class-weighted densities at each of the
    1-D `queries`.

    One Gaussian kernel density (`_kde`) is fit per outcome class over the
    training `probs`, `labels` 1 for death, and weighted by the class's
    share of the training points. Where both densities vanish, the share is
    that weight, with a warning. Raises ValueError when either class has
    fewer than 2 training points.
    """
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels).astype(bool)
    queries = np.asarray(queries, dtype=float)
    death, survival = probs[labels], probs[~labels]
    if death.size < 2 or survival.size < 2:
        raise ValueError("each outcome class needs at least 2 training points")
    weight = death.size / probs.size
    f_death = _kde(queries, death) * weight
    f_surv = _kde(queries, survival) * (1.0 - weight)
    total = f_death + f_surv
    dead_zone = total <= 0
    if np.any(dead_zone):
        warnings.warn(
            "both class densities vanished at a query point; "
            "falling back to the death-class prior"
        )
        total[dead_zone] = 1.0
        f_death[dead_zone] = weight
    return f_death / total


# --------------------------------------------------------------------------
# Prior computation and state labeling
# --------------------------------------------------------------------------

def window_designs(matrix, rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each window's hazard design on the matrix's imputed cells `rows`
    (`impute_median`): the distinct rows X of [1, y, b], in `distinct_rows`
    order, and the row of X of each of the window's cells. Built once per
    matrix, for its hazard fits and for every day's priors."""
    designs = []
    for t in range(matrix.spec.n_windows):
        cells = matrix.cells_in(t)
        X = np.column_stack([np.ones(cells.stop - cells.start), rows[cells]])
        first, row = distinct_rows(X)
        designs.append((X[first], row))
    return designs


def compute_priors(matrix, designs, fits, target: TargetSpec) -> np.ndarray:
    """Death prior of each cell of the matrix, (U,), from its window's design
    row (`window_designs`), hazard fit and the matrix's window size. Patient
    i's prior in window t is that of cell `matrix.cell_of[i, t]`."""
    if len(fits) != matrix.spec.n_windows:
        raise ValueError("need one survival fit per window")
    return np.concatenate([
        death_prior(hazard(fit.beta, X), target.exposure_duration(t + 1, matrix.spec.window_hours))[row]
        for t, ((X, row), fit) in enumerate(zip(designs, fits))
    ])


@dataclass
class StateLabels:
    """Training-time hidden states (1 = Death) and the probabilities behind them."""

    states: np.ndarray          # (N, T) uint8
    probabilities: np.ndarray   # (N, T); last column is the 0/1 outcome itself


def fit_window_regressions(matrix, designs, times, events) -> list[SurvivalFit]:
    """Censored exponential fits, one per target day and window, day-major.

    Each window's design is the matrix's (`window_designs`), and its kept
    columns are found once for all days. Row d of `times` and `events` is
    day d's `censor_by_target` response in matrix order, summed per design
    row.
    """
    windows = [
        (X, row[matrix.cell_of[:, t] - matrix.cells_in(t).start], _spanning_columns(X))
        for t, (X, row) in enumerate(designs)
    ]
    return [
        _fit_exponential(X, keep, np.bincount(row, weights=day_times), np.bincount(row, weights=day_events))
        for day_times, day_events in zip(times, events)
        for X, row, keep in windows
    ]


def label_hidden_states(matrix, designs, events, fits, target: TargetSpec) -> StateLabels:
    """Hidden-state labels: outcome at the last window, thresholded normalized
    priors everywhere else.

    `designs` are the matrix's (`window_designs`); `events` come from
    `censor_by_target`, in matrix order, so censoring by the target time
    counts as Survival. For windows before the last, `normalize_death_share`
    of the patients' priors against their outcome classes is computed once
    per cell, and a patient is labeled Death when it reaches 0.5.
    """
    theta = compute_priors(matrix, designs, fits, target)
    probs = np.zeros(matrix.cell_of.shape)
    probs[:, -1] = events
    for t in range(probs.shape[1] - 1):
        cells, cell_of = matrix.cells_in(t), matrix.cell_of[:, t]
        normalized = normalize_death_share(theta[cell_of], events, theta[cells])
        probs[:, t] = normalized[cell_of - cells.start]
    return StateLabels(states=(probs >= 0.5).astype(np.uint8), probabilities=probs)
