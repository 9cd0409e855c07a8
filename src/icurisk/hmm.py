"""Autoregressive sequence model over cluster labels with survival-state priors.

The joint probability of a (state sequence, observation sequence) pair is a
product of per-window state priors and autoregressive emission terms; the risk
score is the share of joint mass on state sequences that contain Death. The
score is computed by one factorized log-space recursion; the brute-force 2^T
enumeration it must agree with lives with the tests as their oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cohort import PatientOutcome
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
    numeric_ranges,
    pam_cluster,
)
from .survival import (
    StateLabels,
    SurvivalFit,
    TargetSpec,
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

    def check_normalized(self, tol: float = 1e-12) -> None:
        if np.any(self.initial <= 0) or np.any(self.transition <= 0):
            raise ValueError("emission tables must be strictly positive")
        if np.max(np.abs(self.initial.sum(axis=0) - 1.0)) > tol:
            raise ValueError("initial emission columns must sum to 1")
        if np.max(np.abs(self.transition.sum(axis=0) - 1.0)) > tol:
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
    if alpha <= 0:
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
    if np.any((theta < 0) | (theta > 1)):
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
    """Target-independent part of training: medians, medoids, sequences."""

    medians: Medians
    cluster: ClusterModel
    imputed: FeatureMatrix
    sequences: np.ndarray   # (N, T), 1-based cluster labels


@dataclass
class RiskModel:
    """Everything needed to score new patients for one target day."""

    spec: FeatureSpec
    score_table: ScoreTable
    target: TargetSpec
    medians: Medians
    cluster: ClusterModel
    fits: list[SurvivalFit]
    emissions: EmissionModel

    @property
    def k(self) -> int:
        return self.cluster.k


@dataclass
class RiskScore:
    patient_id: str
    eta: float
    priors: np.ndarray
    sequence: np.ndarray


def fit_feature_stage(matrix: FeatureMatrix, k_clusters: int, seed=0) -> FeatureStage:
    medians = compute_medians(matrix)
    imputed = impute_median(matrix, medians)
    rows = imputed.rows()
    kinds = feature_kinds(matrix.spec)
    ranges = numeric_ranges(rows, kinds)
    cluster, labels, _ = pam_cluster(rows, k_clusters, seed, kinds=kinds, ranges=ranges)
    sequences = labels.reshape(matrix.n_patients, matrix.spec.n_windows)
    return FeatureStage(medians=medians, cluster=cluster, imputed=imputed, sequences=sequences)


def fit_risk_model(
    matrix: FeatureMatrix,
    outcomes: dict[str, PatientOutcome],
    target: TargetSpec,
    score_table: ScoreTable,
    *,
    k_clusters: int = 4,
    smoothing_alpha: float = 1.0,
    seed=0,
    stage: FeatureStage | None = None,
) -> RiskModel:
    """Train the full per-day bundle on one training cohort.

    A precomputed FeatureStage can be passed in when several target days share
    the same training patients; the survival fits, state labels, and emission
    tables are always refit because the censoring scheme depends on the day.
    """
    if target.window_hours != matrix.spec.window_hours:
        raise ValueError("target spec and feature spec disagree on window_hours")
    if stage is None:
        stage = fit_feature_stage(matrix, k_clusters, seed)
    ordered = [outcomes[pid] for pid in matrix.patient_ids]
    fits = fit_window_regressions(stage.imputed, ordered, target)
    labels: StateLabels = label_hidden_states(stage.imputed, ordered, fits, target)
    emissions = estimate_emissions(
        stage.sequences, labels.states, stage.cluster.k, smoothing_alpha
    )
    return RiskModel(
        spec=matrix.spec,
        score_table=score_table,
        target=target,
        medians=stage.medians,
        cluster=stage.cluster,
        fits=fits,
        emissions=emissions,
    )


def score_patients(model: RiskModel, matrix: FeatureMatrix) -> list[RiskScore]:
    """Risk scores for a (possibly unseen) cohort under a trained model."""
    if matrix.spec.variable_names != model.spec.variable_names:
        raise ValueError("feature variables do not match the trained model")
    if matrix.n_patients == 0:
        return []
    imputed = impute_median(matrix, model.medians)
    sequences = encode_observations(model.cluster, imputed)
    theta = compute_priors(imputed, model.fits, model.target)
    etas = _eta_forward_batch(theta, model.emissions, sequences)
    return [
        RiskScore(pid, float(etas[i]), theta[i].copy(), sequences[i].copy())
        for i, pid in enumerate(matrix.patient_ids)
    ]


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


def survival_curve(
    scores_by_day: dict[int, list[RiskScore]],
    outcomes: dict[str, PatientOutcome],
) -> list[CurveBand]:
    """Group mean survival probabilities (1 - eta) with normal 95% bands.

    Patients are grouped by their actual outcome; a group missing entirely is
    skipped with a warning.
    """
    bands = []
    for group, died in (("death", True), ("survival", False)):
        for day in sorted(scores_by_day):
            values = np.array(
                [
                    1.0 - s.eta
                    for s in scores_by_day[day]
                    if outcomes[s.patient_id].death_flag == died
                ]
            )
            if values.size == 0:
                warnings.warn(f"no patients in the {group} group; band omitted")
                continue
            mean = float(values.mean())
            half = (
                1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
                if values.size > 1
                else 0.0
            )
            bands.append(
                CurveBand(
                    group=group,
                    target_day=day,
                    mean_survival=mean,
                    ci_low=max(mean - half, 0.0),
                    ci_high=min(mean + half, 1.0),
                )
            )
    return bands


# --------------------------------------------------------------------------
# Serialization of trained bundles
# --------------------------------------------------------------------------

def _nan_to_none(values):
    return [None if np.isnan(v) else float(v) for v in values]


def _none_to_nan(values):
    return np.array([np.nan if v is None else float(v) for v in values])


def models_to_obj(models: dict[int, RiskModel], config_echo: dict | None = None) -> dict:
    days = sorted(models)
    first = models[days[0]]
    obj = {
        "feature_spec": {
            "variable_names": list(first.spec.variable_names),
            "window_hours": first.spec.window_hours,
        },
        "score_table": first.score_table.to_json_obj(),
        "config": config_echo or {},
        "days": {},
    }
    for day in days:
        m = models[day]
        obj["days"][str(day)] = {
            "target": {
                "target_day": m.target.target_day,
                "window_hours": m.target.window_hours,
                "duration_mode": m.target.duration_mode,
            },
            "medians": {
                "cell": [_nan_to_none(row) for row in m.medians.cell],
                "overall": _nan_to_none(m.medians.overall),
            },
            "cluster": {
                "medoids": m.cluster.medoids.tolist(),
                "kinds": list(m.cluster.kinds),
                "ranges": m.cluster.ranges.tolist(),
            },
            "fits": [
                {
                    "beta": f.beta.tolist(),
                    "iterations": f.iterations,
                    "grad_norm": f.grad_norm,
                }
                for f in m.fits
            ],
            "emissions": {
                "alpha": m.emissions.alpha,
                "initial": m.emissions.initial.tolist(),
                "transition": m.emissions.transition.tolist(),
            },
        }
    return obj


def models_from_obj(obj: dict) -> tuple[dict[int, RiskModel], dict]:
    """Rebuild the per-day bundles and the config echo written by models_to_obj.

    Raises ValueError when an emission table is not a strictly positive,
    normalized distribution, since scoring with one gives NaN risks.
    """
    spec = FeatureSpec(
        tuple(obj["feature_spec"]["variable_names"]),
        int(obj["feature_spec"]["window_hours"]),
    )
    table = ScoreTable.from_json_obj(obj["score_table"])
    models = {}
    for day_key, block in obj["days"].items():
        t = block["target"]
        target = TargetSpec(int(t["target_day"]), int(t["window_hours"]), t["duration_mode"])
        medians = Medians(
            cell=np.array([_none_to_nan(row) for row in block["medians"]["cell"]]),
            overall=_none_to_nan(block["medians"]["overall"]),
        )
        cluster = ClusterModel(
            medoids=np.array(block["cluster"]["medoids"], dtype=float),
            kinds=tuple(block["cluster"]["kinds"]),
            ranges=np.array(block["cluster"]["ranges"], dtype=float),
        )
        fits = [
            SurvivalFit(
                beta=np.array(f["beta"], dtype=float),
                iterations=int(f["iterations"]),
                grad_norm=float(f["grad_norm"]),
            )
            for f in block["fits"]
        ]
        emissions = EmissionModel(
            initial=np.array(block["emissions"]["initial"], dtype=float),
            transition=np.array(block["emissions"]["transition"], dtype=float),
            alpha=float(block["emissions"]["alpha"]),
        )
        emissions.check_normalized()
        models[int(day_key)] = RiskModel(
            spec=spec,
            score_table=table,
            target=target,
            medians=medians,
            cluster=cluster,
            fits=fits,
            emissions=emissions,
        )
    return models, obj.get("config", {})
