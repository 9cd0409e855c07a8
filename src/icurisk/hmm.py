"""Autoregressive sequence model over cluster labels with survival-state priors.

The joint probability of a (state sequence, observation sequence) pair is a
product of per-window state priors and autoregressive emission terms; the risk
score is the share of joint mass on state sequences that contain Death. The
score is computed by one factorized log-space recursion; the brute-force 2^T
enumeration it must agree with lives with the tests as their oracle.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cohort import json_number
from .features import (
    ClusterModel,
    FeatureMatrix,
    FeatureSpec,
    Medians,
    ScoreTable,
    compute_medians,
    encode_observations,
    feature_kinds,
    impute_median,
    pam_cluster,
)
from .survival import (
    SurvivalFit,
    TargetSpec,
    censor_by_target,
    compute_priors,
    fit_window_regressions,
    label_hidden_states,
)

SURVIVAL, DEATH = 0, 1


@dataclass
class EmissionModel:
    """Laplace-smoothed tables phi(x_1 | s_1) and phi(x_t | x_{t-1}, s_t)."""

    initial: np.ndarray      # (K, 2): [symbol, state]
    transition: np.ndarray   # (K, K, 2): [symbol, previous symbol, state]
    alpha: float

    @property
    def k(self) -> int:
        return self.initial.shape[0]

    def check_normalized(self) -> None:
        if np.any(self.initial <= 0) or np.any(self.transition <= 0):
            raise ValueError("emission tables must be strictly positive")
        if np.max(np.abs(self.initial.sum(axis=0) - 1.0)) > 1e-12:
            raise ValueError("initial emission columns must sum to 1")
        if np.max(np.abs(self.transition.sum(axis=0) - 1.0)) > 1e-12:
            raise ValueError("transition emission columns must sum to 1")


def estimate_emissions(sequences, states, k: int, alpha: float = 1.0) -> EmissionModel:
    """Count-based emission estimates, pooled across windows t >= 2.

    Smoothing adds alpha to every cell so no factor of the joint probability
    can vanish: (count + alpha) / (context count + alpha * k).
    """
    sequences = np.asarray(sequences, dtype=int)
    states = np.asarray(states, dtype=int)
    if sequences.size == 0:
        raise ValueError("empty training set")
    if sequences.shape != states.shape:
        raise ValueError("sequences and state labels must align")
    if not alpha > 0:   # NaN included
        raise ValueError("smoothing alpha must be positive")
    if sequences.min() < 1 or sequences.max() > k:
        raise ValueError("sequence symbols must lie in 1..k")
    if states.min() < 0 or states.max() > 1:
        raise ValueError("state labels must be 0 (Survival) or 1 (Death)")

    initial = np.zeros((k, 2))
    np.add.at(initial, (sequences[:, 0] - 1, states[:, 0]), 1.0)
    transition = np.zeros((k, k, 2))
    for t in range(1, sequences.shape[1]):
        np.add.at(
            transition,
            (sequences[:, t] - 1, sequences[:, t - 1] - 1, states[:, t]),
            1.0,
        )
    initial = (initial + alpha) / (initial.sum(axis=0, keepdims=True) + alpha * k)
    transition = (transition + alpha) / (transition.sum(axis=0, keepdims=True) + alpha * k)
    return EmissionModel(initial=initial, transition=transition, alpha=float(alpha))


def _check_sequence(theta, x_seq, k):
    theta = np.asarray(theta, dtype=float)
    x_seq = np.asarray(x_seq, dtype=int)
    if theta.ndim != 1 or x_seq.shape != theta.shape:
        raise ValueError("prior and observation sequences must be 1-D and equal length")
    if not np.all((theta >= 0) & (theta <= 1)):  # also rejects NaN
        raise ValueError("priors must lie in [0, 1]")
    if x_seq.min() < 1 or x_seq.max() > k:
        raise ValueError("observation symbols must lie in 1..k")
    return theta, x_seq


def _prior_logs(theta):
    with np.errstate(divide="ignore"):
        return np.stack([np.log1p(-theta), np.log(theta)], axis=-1)


def _joint_logs(theta, emissions, sequences) -> np.ndarray:
    """Per-window log prior plus log emission term, for each state: (N, T, 2)."""
    theta = np.asarray(theta, dtype=float)
    sequences = np.asarray(sequences, dtype=int)
    n, T = sequences.shape
    lp = _prior_logs(theta)
    em = np.empty((n, T, 2))
    em[:, 0, :] = emissions.initial[sequences[:, 0] - 1]
    for t in range(1, T):
        em[:, t, :] = emissions.transition[sequences[:, t] - 1, sequences[:, t - 1] - 1]
    with np.errstate(divide="ignore"):
        return lp + np.log(em)


def _eta_forward_batch(theta, emissions, sequences) -> np.ndarray:
    """Factorized log-space risk scores for an (N, T) batch.

    The joint mass of all state sequences factorizes into a product of
    per-window sums over the two states; the all-Survival sequence is the
    product of the Survival terms alone.
    """
    lp = _joint_logs(theta, emissions, sequences)
    log_total = np.logaddexp(lp[:, :, SURVIVAL], lp[:, :, DEATH]).sum(axis=1)
    log_surv = lp[:, :, SURVIVAL].sum(axis=1)
    return -np.expm1(log_surv - log_total)


def risk_score(theta, emissions, x_seq) -> float:
    """Mortality risk: probability share of state sequences containing Death.

    All 2^T - 1 sequences with at least one Death window form the numerator;
    the single all-Survival sequence completes the denominator. Computed by
    the factorized recursion on a batch of one.
    """
    theta, x_seq = _check_sequence(theta, x_seq, emissions.k)
    with np.errstate(invalid="ignore"):
        eta = float(_eta_forward_batch(theta[None, :], emissions, x_seq[None, :])[0])
    if math.isnan(eta):
        raise ValueError("total sequence probability vanished")
    return eta


# --------------------------------------------------------------------------
# The trained bundle
# --------------------------------------------------------------------------

@dataclass
class FeatureStage:
    """Target-independent part of training on one feature matrix, shared by
    every target day: the matrix itself, the training set `fit_risk_model`
    reads; the medians and medoids, written once in `model.json`; the
    matrix's cells as imputed rows; and each patient's cluster sequence."""

    matrix: FeatureMatrix
    medians: Medians
    cluster: ClusterModel
    rows: np.ndarray        # (U, 2p) `impute_median` row of each cell of the matrix
    sequences: np.ndarray   # (N, T), 1-based cluster labels


@dataclass
class DayFit:
    """One target day's part of a RiskModel: its horizon, per-window hazard
    fits and emission tables."""

    target: TargetSpec
    fits: list[SurvivalFit]
    emissions: EmissionModel


@dataclass
class RiskModel:
    """Everything needed to score new patients at every target day: the
    feature spec (with the score table the training set was scored with),
    medians and cluster that all days share, and one DayFit per target
    day. Iterating yields the days in ascending order."""

    spec: FeatureSpec
    medians: Medians
    cluster: ClusterModel
    days: dict[int, DayFit]

    def __iter__(self):
        return iter(sorted(self.days))


class PatientScores(NamedTuple):
    """Scores of a matrix's patients, row i for `matrix.patient_ids[i]`."""

    eta: np.ndarray         # (N,) risk score
    priors: np.ndarray      # (N, T) per-window Death priors
    sequences: np.ndarray   # (N, T) 1-based cluster labels


def fit_feature_stage(matrix: FeatureMatrix, k_clusters: int, seed=0) -> FeatureStage:
    """Medians, imputed cells, and PAM on the cells weighted by patient counts."""
    medians = compute_medians(matrix)
    rows = impute_median(matrix, medians)
    cluster, labels, _ = pam_cluster(
        rows, k_clusters, seed, counts=matrix.counts(), kinds=feature_kinds(matrix.spec)
    )
    return FeatureStage(matrix, medians, cluster, rows, labels[matrix.cell_of])


def fit_risk_model(stage: FeatureStage, targets: list[TargetSpec], *, smoothing_alpha: float = 1.0) -> RiskModel:
    """Train the model for every TargetSpec in `targets` on the matrix `stage`
    was fit on (`fit_feature_stage`): its outcomes, and its feature spec,
    score table included, which the model keeps. The stage is shared by
    every day; the survival fits, state labels and emission tables are fit
    per day, as the censoring depends on the day. Raises ValueError when
    `targets` is empty or names a day twice.
    """
    matrix = stage.matrix
    targets = sorted(targets, key=lambda t: t.target_day)
    days = [t.target_day for t in targets]
    if not days or len(set(days)) != len(days):
        raise ValueError(f"target days must be distinct and at least one, got {days}")
    censored = [censor_by_target(matrix.event_hours, matrix.died, t.target_hours) for t in targets]
    times, events = (np.array(part) for part in zip(*censored))   # (days, N) each
    fits = fit_window_regressions(matrix, stage.rows, times, events)
    T = matrix.spec.n_windows
    fitted = {}
    for d, target in enumerate(targets):
        day_fits = fits[d * T:(d + 1) * T]
        labels = label_hidden_states(matrix, stage.rows, events[d], day_fits, target)
        emissions = estimate_emissions(
            stage.sequences, labels.states, stage.cluster.k, smoothing_alpha
        )
        fitted[target.target_day] = DayFit(target, day_fits, emissions)
    return RiskModel(matrix.spec, stage.medians, stage.cluster, fitted)


def score_patients(model: RiskModel, matrix: FeatureMatrix) -> dict[int, PatientScores]:
    """Risk scores for a (possibly unseen) cohort under a trained model, per
    target day in ascending order. Each cell of the matrix is imputed,
    encoded and given each day's prior once. Raises ValueError, naming the
    parts that differ, when the matrix's feature spec (variables, window
    size, score table) is not the model's."""
    if matrix.spec != model.spec:
        differ = " and ".join(name for name, value in vars(matrix.spec).items() if value != getattr(model.spec, name))
        raise ValueError(f"feature spec {matrix.spec} does not match the trained model's {model.spec} in {differ}")
    rows = impute_median(matrix, model.medians)
    sequences = encode_observations(model.cluster, matrix, rows)
    scores = {}
    for day in model:
        day_fit = model.days[day]
        theta = compute_priors(matrix, rows, day_fit.fits, day_fit.target)[matrix.cell_of]
        scores[day] = PatientScores(_eta_forward_batch(theta, day_fit.emissions, sequences), theta, sequences)
    return scores


# --------------------------------------------------------------------------
# Survival curves
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveBand:
    group: str          # "death" or "survival" by actual outcome
    target_day: int
    mean_survival: float
    ci_low: float
    ci_high: float


def normal_band(values: np.ndarray) -> tuple[float, float]:
    """Mean of the 1-D `values` and the half-width of its normal 95% band,
    1.96 * sd / sqrt(n) with the n - 1 sd, or 0.0 for a single value."""
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), half


def survival_curve(eta_by_day: dict[int, np.ndarray], died: np.ndarray) -> list[CurveBand]:
    """Group mean survival probabilities (1 - eta) with `normal_band`s,
    clipped to [0, 1].

    Patients are grouped by their actual outcome, `died`, a boolean per
    patient in the order of each day's `eta`; a group missing entirely is
    skipped with a warning.
    """
    died = np.asarray(died, dtype=bool)
    bands = []
    for group, in_group in (("death", died), ("survival", ~died)):
        for day in sorted(eta_by_day):
            values = 1.0 - np.asarray(eta_by_day[day], dtype=float)[in_group]
            if values.size == 0:
                warnings.warn(f"no patients in the {group} group; band omitted")
                continue
            mean, half = normal_band(values)
            bands.append(CurveBand(group, day, mean, max(mean - half, 0.0), min(mean + half, 1.0)))
    return bands


# --------------------------------------------------------------------------
# Serialization of trained bundles
# --------------------------------------------------------------------------

FORMAT_VERSION = 3


def _nan_to_none(values):
    return [None if np.isnan(v) else float(v) for v in values]


def models_to_obj(model: RiskModel, config_echo: dict | None = None) -> dict:
    """The `model.json` object, format 3, where each setting is said once:
    the feature spec (the window size; its score table under
    `score_table`), medians and cluster at the top level, and under `days`
    one block per target day, keyed by the day, with its `duration_mode`,
    `fits` and `emissions` (the smoothing alpha)."""
    return {
        "format_version": FORMAT_VERSION,
        "feature_spec": {
            "variable_names": list(model.spec.variable_names),
            "window_hours": model.spec.window_hours,
        },
        "score_table": model.spec.score_table.to_json_obj(),
        "medians": {
            "cell": [_nan_to_none(row) for row in model.medians.cell],
            "overall": _nan_to_none(model.medians.overall),
        },
        "cluster": {
            "medoids": model.cluster.medoids.tolist(),
            "ranges": model.cluster.ranges.tolist(),
        },
        "config": config_echo or {},
        "days": {
            str(day): {
                "duration_mode": d.target.duration_mode,
                "fits": [
                    {
                        "beta": f.beta.tolist(),
                        "iterations": f.iterations,
                        "grad_norm": f.grad_norm,
                    }
                    for f in d.fits
                ],
                "emissions": {
                    "alpha": d.emissions.alpha,
                    "initial": d.emissions.initial.tolist(),
                    "transition": d.emissions.transition.tolist(),
                },
            }
            for day, d in model.days.items()
        },
    }


def _array(field: str, values, shape) -> np.ndarray:
    """`values` as a float array of `shape`, of JSON numbers or null (NaN);
    a ValueError names `field` otherwise (a bool or a string is no number)."""
    try:
        array = np.array(values, dtype=float)
        if any(type(v) not in (int, float, type(None)) for v in np.array(values, dtype=object).flat):
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"{field} is not an array of numbers") from None
    if array.shape != shape:
        raise ValueError(f"{field} has shape {array.shape}, expected {shape}")
    return array


def models_from_obj(obj: dict) -> tuple[RiskModel, dict]:
    """Rebuild the model and the config echo written by models_to_obj.

    The cluster's column kinds follow from the feature spec, and each day
    from its key. Raises ValueError for a file of another format version
    (1 and 2 included: retrain); naming the field, for an integer field
    (window hours, iterations, a score) that is not a JSON integer, for a
    `days` key that is not a positive decimal integer, for an array whose
    shape does not fit the spec (p variables, T windows) and the k medoids,
    and for a `days` that is not a non-empty object; and for an emission
    table that is not a strictly positive, normalized distribution, since
    scoring with one gives NaN risks.
    """
    version = obj.get("format_version", 1) if isinstance(obj, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"model format {version}; retrain")
    spec = FeatureSpec(
        tuple(obj["feature_spec"]["variable_names"]),
        json_number("feature_spec.window_hours", obj["feature_spec"]["window_hours"], int),
        ScoreTable.from_json_obj(obj["score_table"]),
    )
    p, T = spec.n_variables, spec.n_windows
    medians = Medians(
        cell=_array("medians.cell", obj["medians"]["cell"], (T, p)),
        overall=_array("medians.overall", obj["medians"]["overall"], (p,)),
    )
    k = len(obj["cluster"]["medoids"])
    cluster = ClusterModel(
        medoids=_array("cluster.medoids", obj["cluster"]["medoids"], (max(k, 1), 2 * p)),
        kinds=feature_kinds(spec),
        ranges=_array("cluster.ranges", obj["cluster"]["ranges"], (2 * p,)),
    )
    if not isinstance(obj["days"], dict) or not obj["days"]:
        raise ValueError("days must be a non-empty object")
    days = {}
    for day_key, block in obj["days"].items():
        where = f"days.{day_key}"
        if not re.fullmatch("[1-9][0-9]*", day_key):
            raise ValueError(f"{where} is not a target day (a positive decimal integer)")
        target = TargetSpec(int(day_key), block["duration_mode"])
        if len(block["fits"]) != T:
            raise ValueError(f"{where}.fits has {len(block['fits'])} entries, expected {T}")
        fits = [
            SurvivalFit(
                beta=_array(f"{where}.fits.{w}.beta", f["beta"], (1 + 2 * p,)),
                iterations=json_number(f"{where}.fits.{w}.iterations", f["iterations"], int),
                grad_norm=json_number(f"{where}.fits.{w}.grad_norm", f["grad_norm"], float),
            )
            for w, f in enumerate(block["fits"])
        ]
        emissions = EmissionModel(
            initial=_array(f"{where}.emissions.initial", block["emissions"]["initial"], (k, 2)),
            transition=_array(f"{where}.emissions.transition", block["emissions"]["transition"], (k, k, 2)),
            alpha=json_number(f"{where}.emissions.alpha", block["emissions"]["alpha"], float),
        )
        emissions.check_normalized()
        days[target.target_day] = DayFit(target, fits, emissions)
    return RiskModel(spec, medians, cluster, days), obj.get("config", {})
