"""Early ICU mortality risk scoring from first-24-hour physiological data.

Pipeline: cohort ingestion -> windowed worst-case score features -> PAM
cluster sequences -> per-window censored exponential hazards -> autoregressive
sequence-model risk score, plus a cross-validated evaluation harness.
"""

from .cohort import (
    RawCohort,
    SynthConfig,
    filter_cohort,
    generate_synthetic_cohort,
    load_cohort,
    window_tables,
)
from .evaluation import EvaluationReport, ScoredSet, aucpr, auroc, concordance, run_cv
from .features import (
    ClusterModel,
    FeatureMatrix,
    FeatureSpec,
    ScoreTable,
    build_feature_matrix,
    load_default_score_table,
    pam_cluster,
)
from .hmm import (
    DayFit,
    EmissionModel,
    PatientScores,
    RiskModel,
    estimate_emissions,
    fit_feature_stage,
    fit_risk_model,
    risk_score,
    score_patients,
    survival_curve,
)
from .survival import (
    SurvivalFit,
    TargetSpec,
    death_prior,
    fit_exponential_regression,
    hazard,
    normalize_death_share,
)

__version__ = "0.1.0"
