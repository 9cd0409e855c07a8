"""Censored exponential survival regression and hidden-state labeling.

Each time window gets its own log-linear hazard fit. The per-window death
prior is the cumulative-hazard probability 1 - exp(-lambda * V), and training
state labels come from a supervised density-ratio normalization of those
priors, thresholded at 0.5.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

MAX_LOG_HAZARD = 700.0
SEPARATION_LIMIT = 30.0
NEWTON_TOL = 1e-8
BANDWIDTH_FLOOR = 1e-3

AS_PRINTED = "as_printed"
REMAINING = "remaining"


@dataclass(frozen=True)
class TargetSpec:
    """Prediction horizon and how per-window exposure durations are formed."""

    target_day: int
    window_hours: int
    duration_mode: str = AS_PRINTED

    def __post_init__(self):
        if self.target_day < 1:
            raise ValueError("target_day must be a positive integer")
        if not 1 <= self.window_hours <= 24:
            raise ValueError("window_hours must lie in 1..24")
        if self.duration_mode not in (AS_PRINTED, REMAINING):
            raise ValueError(f"unknown duration_mode {self.duration_mode!r}")

    @property
    def target_hours(self) -> float:
        return 24.0 * self.target_day

    def exposure_duration(self, t: int) -> float:
        """Exposure V_t (hours) for 1-based window t.

        The default mode adds elapsed window time to the horizon; the
        alternative subtracts it (time remaining until the target).
        """
        if t < 1:
            raise ValueError("window index is 1-based")
        elapsed = float(self.window_hours * t)
        if self.duration_mode == AS_PRINTED:
            return self.target_hours + elapsed
        if elapsed >= self.target_hours:
            raise ValueError(
                f"window {t} leaves no remaining exposure before hour {self.target_hours}"
            )
        return self.target_hours - elapsed


def censor_by_target(outcomes, target_hours: float):
    """Death-by-target events and right-censored exposure times.

    Death at or before the horizon is an event at its own time; everyone else
    (discharged alive, died later, or still in) is censored at
    min(event_hours, target_hours).
    """
    times = np.empty(len(outcomes))
    events = np.zeros(len(outcomes), dtype=np.uint8)
    for i, out in enumerate(outcomes):
        if out.death_flag and out.event_hours <= target_hours:
            events[i] = 1
            times[i] = out.event_hours
        else:
            times[i] = min(out.event_hours, target_hours)
    return times, events


@dataclass(frozen=True)
class SurvivalFit:
    beta: np.ndarray
    iterations: int
    grad_norm: float


def exponential_loglik(beta, X, times, events) -> float:
    """Right-censored exponential log-likelihood with log-linear rates."""
    xb = X @ beta
    with np.errstate(over="ignore"):
        lam = np.exp(xb)
    return float(events @ xb - lam @ times)


def exponential_grad(beta, X, times, events) -> np.ndarray:
    xb = X @ beta
    with np.errstate(over="ignore"):
        lam = np.exp(xb)
    return X.T @ (events - lam * times)


def newton_maximize(loglik, grad, hessian_weights, X, beta, max_iter: int, trace=None):
    """Maximize a concave log-likelihood by damped Newton.

    The negative Hessian is X^T diag(hessian_weights(beta)) X. Pseudo-inverse
    Newton steps are halved until the log-likelihood does not drop, with a
    gradient-ascent fallback when a Newton direction fails to improve.
    Convergence is gradient max-norm <= NEWTON_TOL. `trace`, when a list,
    collects the log-likelihood after every iteration.

    Returns (beta, iterations, gradient max-norm). Raises ValueError when a
    coefficient exceeds SEPARATION_LIMIT in magnitude, and RuntimeError when
    the line search stalls or max_iter iterations do not converge.
    """
    ll = loglik(beta)
    for iteration in range(1, max_iter + 1):
        g = grad(beta)
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= NEWTON_TOL:
            return beta, iteration - 1, grad_norm

        w = hessian_weights(beta)
        hessian = X.T @ (w[:, None] * X)
        # Minimum-norm Newton step; collinear columns (e.g. an all-ones
        # indicator next to the intercept) leave the Hessian rank deficient.
        step = np.linalg.pinv(hessian, hermitian=True) @ g

        if 0.5 * float(g @ step) < 1e-9:
            # Predicted gain is below log-likelihood resolution: a line search
            # cannot see it, but the full Newton step still kills the gradient.
            beta = beta + step
            ll = loglik(beta)
            if trace is not None:
                trace.append(ll)
            continue

        scale = 1.0
        for _ in range(60):
            trial = beta + scale * step
            trial_ll = loglik(trial)
            if trial_ll >= ll:
                break
            scale *= 0.5
        else:
            # Newton direction failed to improve; fall back to the gradient.
            scale, step = 1.0 / max(grad_norm, 1.0), g
            for _ in range(60):
                trial = beta + scale * step
                trial_ll = loglik(trial)
                if trial_ll >= ll:
                    break
                scale *= 0.5
            else:
                raise RuntimeError(
                    f"line search stalled at iteration {iteration}, "
                    f"grad max-norm {grad_norm:.3e}"
                )
        beta, ll = trial, trial_ll
        if trace is not None:
            trace.append(ll)
        if np.max(np.abs(beta)) > SEPARATION_LIMIT:
            raise ValueError("quasi-separation: coefficient magnitude exceeded 30")

    grad_norm = float(np.max(np.abs(grad(beta))))
    raise RuntimeError(
        f"no convergence after {max_iter} iterations (grad max-norm {grad_norm:.3e})"
    )


def fit_exponential_regression(X, times, events, *, trace=None) -> SurvivalFit:
    """Maximize the censored exponential log-likelihood by damped Newton.

    The log-likelihood is concave, so newton_maximize converges to the MLE.

    Parameters
    ----------
    X : (n, d) design matrix; the caller supplies the intercept column.
    times : (n,) positive exposure durations in hours.
    events : (n,) 1 for observed deaths, 0 for censored subjects.
    trace : optional list collecting the log-likelihood after every iteration.
    """
    X = np.asarray(X, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one subject")
    if np.any(times <= 0):
        raise ValueError("exposure times must be positive")
    n_events = float(events.sum())
    if n_events == 0:
        raise ValueError("no events to fit")

    def hessian_weights(beta):
        with np.errstate(over="ignore"):
            return np.exp(X @ beta) * times

    beta = np.zeros(X.shape[1])
    beta[0] = math.log(n_events / float(times.sum()))  # closed-form intercept start
    beta, iterations, grad_norm = newton_maximize(
        lambda b: exponential_loglik(b, X, times, events),
        lambda b: exponential_grad(b, X, times, events),
        hessian_weights,
        X,
        beta,
        max_iter=500,
        trace=trace,
    )
    return SurvivalFit(beta=beta, iterations=iterations, grad_norm=grad_norm)


def hazard(beta, features):
    """lambda = exp(beta . y), events per hour.

    Accepts a single feature vector or a stack of them. Linear predictors above
    700 raise; below -700 the rate is clamped to the smallest positive normal.
    """
    beta = np.asarray(beta, dtype=float)
    features = np.asarray(features, dtype=float)
    score = features @ beta
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

def _silverman_bandwidth(values: np.ndarray) -> float:
    n = values.size
    sd = float(np.std(values, ddof=1))
    iqr = float(np.percentile(values, 75) - np.percentile(values, 25))
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def _kde(points: np.ndarray, samples: np.ndarray, bandwidth: float) -> np.ndarray:
    # Chunked so the (m, n) kernel matrix stays small.
    out = np.empty(points.size)
    norm = samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    for start in range(0, points.size, 2048):
        chunk = points[start:start + 2048]
        z = (chunk[:, None] - samples[None, :]) / bandwidth
        out[start:start + 2048] = np.exp(-0.5 * z * z).sum(axis=1) / norm
    return out


class DensityNormalizer:
    """Recalibrates death probabilities by class-conditional density share.

    One Gaussian kernel density is fit per outcome class over the training
    probabilities; a query maps to the count-weighted share of the death-class
    density in the total density at that point.
    """

    def __init__(self):
        self._death = None
        self._survival = None
        self._bw = (None, None)
        self.death_weight = None

    def fit(self, probs, labels) -> "DensityNormalizer":
        probs = np.asarray(probs, dtype=float)
        labels = np.asarray(labels).astype(bool)
        death = probs[labels]
        survival = probs[~labels]
        if death.size < 2 or survival.size < 2:
            raise ValueError("each outcome class needs at least 2 training points")
        self._death = death
        self._survival = survival
        self._bw = (
            _silverman_bandwidth(death),
            _silverman_bandwidth(survival),
        )
        self.death_weight = death.size / probs.size
        return self

    def normalize(self, p):
        if self._death is None:
            raise RuntimeError("normalizer is not fitted")
        q = np.atleast_1d(np.asarray(p, dtype=float))
        f_death = _kde(q, self._death, self._bw[0]) * self.death_weight
        f_surv = _kde(q, self._survival, self._bw[1]) * (1.0 - self.death_weight)
        total = f_death + f_surv
        dead_zone = total <= 0
        if np.any(dead_zone):
            warnings.warn(
                "both class densities vanished at a query point; "
                "falling back to the death-class prior"
            )
            total[dead_zone] = 1.0
            f_death[dead_zone] = self.death_weight
        out = f_death / total
        return float(out[0]) if np.isscalar(p) or np.ndim(p) == 0 else out


# --------------------------------------------------------------------------
# Prior computation and state labeling
# --------------------------------------------------------------------------

def window_design(matrix, t: int) -> np.ndarray:
    """Design matrix for window t (0-based): intercept, scores, indicators."""
    n = matrix.n_patients
    return np.column_stack([np.ones(n), matrix.y[:, t, :], matrix.b[:, t, :]])


def compute_priors(matrix, fits, target: TargetSpec) -> np.ndarray:
    """Per-patient, per-window Death priors from the fitted hazards."""
    T = matrix.spec.n_windows
    if len(fits) != T:
        raise ValueError("need one survival fit per window")
    theta = np.empty((matrix.n_patients, T))
    for t in range(T):
        lam = hazard(fits[t].beta, window_design(matrix, t))
        theta[:, t] = death_prior(lam, target.exposure_duration(t + 1))
    return theta


@dataclass
class StateLabels:
    """Training-time hidden states (1 = Death) and the probabilities behind them."""

    states: np.ndarray          # (N, T) uint8
    probabilities: np.ndarray   # (N, T); last column is the 0/1 outcome itself


def fit_window_regressions(matrix, outcomes, target: TargetSpec) -> list[SurvivalFit]:
    """One censored exponential fit per window, with shared response."""
    times, events = censor_by_target(outcomes, target.target_hours)
    return [
        fit_exponential_regression(window_design(matrix, t), times, events)
        for t in range(matrix.spec.n_windows)
    ]


def label_hidden_states(matrix, outcomes, fits, target: TargetSpec) -> StateLabels:
    """Hidden-state labels: outcome at the last window, thresholded normalized
    priors everywhere else.

    Censoring by the target time counts as Survival. For windows before the
    last, the window's training priors are normalized against the outcome
    classes and labeled Death when the normalized probability reaches 0.5.
    """
    theta = compute_priors(matrix, fits, target)
    _, events = censor_by_target(outcomes, target.target_hours)
    n, T = theta.shape
    states = np.zeros((n, T), dtype=np.uint8)
    probs = np.zeros((n, T))
    states[:, T - 1] = events
    probs[:, T - 1] = events
    for t in range(T - 1):
        normalized = DensityNormalizer().fit(theta[:, t], events).normalize(theta[:, t])
        states[:, t] = normalized >= 0.5
        probs[:, t] = normalized
    return StateLabels(states=states, probabilities=probs)
