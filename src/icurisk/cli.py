"""Command-line pipeline: synth, train, predict, evaluate, curves.

One JSON config drives every subcommand; --seed and --out-dir flags override
the config. Exit codes: 0 success, 1 pipeline error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cohort import (
    DEFAULT_REQUIRED_VARIABLES,
    SynthConfig,
    filter_cohort,
    generate_synthetic_cohort,
    load_cohort,
    write_observations,
    write_outcomes,
)
from .evaluation import run_cv
from .features import (
    FeatureSpec,
    ScoreTable,
    build_feature_matrix,
    compute_medians,
    feature_kinds,
    impute_median,
    load_default_score_table,
    numeric_ranges,
    pam_cluster,
    silhouette,
)
from .hmm import (
    fit_feature_stage,
    fit_risk_model,
    models_from_obj,
    models_to_obj,
    score_patients,
    survival_curve,
)
from .survival import TargetSpec


class ConfigError(ValueError):
    """Problems with the config file or referenced paths; exits with code 2."""


_CONFIG_KEYS = {
    "paths", "window_hours", "k_clusters", "target_days", "duration_mode",
    "smoothing_alpha", "cv", "seed", "required_variables", "synth",
}
_PATH_KEYS = {"observations", "outcomes", "score_table", "out_dir"}


@dataclass
class PipelineConfig:
    observations: str | None = None
    outcomes: str | None = None
    score_table: str | None = None
    out_dir: str = "out"
    window_hours: int = 12
    k_clusters: int = 4
    target_days: tuple[int, ...] = (2, 3, 4, 5)
    duration_mode: str = "as_printed"
    smoothing_alpha: float = 1.0
    cv_folds: int = 3
    cv_repeats: int = 30
    seed: int = 0
    required_variables: tuple[str, ...] = DEFAULT_REQUIRED_VARIABLES
    synth: SynthConfig | None = None

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                obj = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(obj) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")

        cfg = cls()
        paths = obj.get("paths", {})
        bad = sorted(set(paths) - _PATH_KEYS)
        if bad:
            raise ConfigError(f"unknown path keys: {bad}")
        cfg.observations = paths.get("observations")
        cfg.outcomes = paths.get("outcomes")
        cfg.score_table = paths.get("score_table")
        cfg.out_dir = paths.get("out_dir", cfg.out_dir)
        try:
            cfg.window_hours = int(obj.get("window_hours", cfg.window_hours))
            cfg.k_clusters = int(obj.get("k_clusters", cfg.k_clusters))
            cfg.target_days = tuple(int(d) for d in obj.get("target_days", cfg.target_days))
            cfg.duration_mode = str(obj.get("duration_mode", cfg.duration_mode))
            cfg.smoothing_alpha = float(obj.get("smoothing_alpha", cfg.smoothing_alpha))
            cv = obj.get("cv", {})
            cfg.cv_folds = int(cv.get("folds", cfg.cv_folds))
            cfg.cv_repeats = int(cv.get("repeats", cfg.cv_repeats))
            cfg.seed = int(obj.get("seed", cfg.seed))
            cfg.required_variables = tuple(
                obj.get("required_variables", cfg.required_variables)
            )
            if "synth" in obj:
                cfg.synth = SynthConfig.from_json_obj(obj["synth"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from None
        if not 1 <= cfg.window_hours <= 24:
            raise ConfigError("window_hours must lie in 1..24")
        if any(d < 1 for d in cfg.target_days):
            raise ConfigError("target_days must be positive")
        return cfg


def _load_score_table(cfg: PipelineConfig) -> ScoreTable:
    if cfg.score_table is None:
        return load_default_score_table()
    if not Path(cfg.score_table).exists():
        raise ConfigError(f"score table not found: {cfg.score_table}")
    return ScoreTable.from_file(cfg.score_table)


def _load_input_cohort(cfg: PipelineConfig):
    for label, path in (("observations", cfg.observations), ("outcomes", cfg.outcomes)):
        if path is None:
            raise ConfigError(f"config paths.{label} is required for this command")
        if not Path(path).exists():
            raise ConfigError(f"{label} file not found: {path}")
    return load_cohort(cfg.observations, cfg.outcomes)


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_synth(cfg: PipelineConfig, args) -> int:
    if cfg.synth is None:
        raise ConfigError("config needs a 'synth' block for the synth command")
    synth = cfg.synth
    if args.seed is not None:
        synth = SynthConfig(
            n_patients=synth.n_patients,
            n_variables=synth.n_variables,
            prevalence_target=synth.prevalence_target,
            missing_rate=synth.missing_rate,
            sampling_rate_per_hour=synth.sampling_rate_per_hour,
            seed=args.seed,
        )
    cohort = generate_synthetic_cohort(synth)
    out = _out_dir(cfg)
    write_observations(cohort, out / "observations.csv")
    write_outcomes(cohort, out / "outcomes.csv")
    print(f"wrote {cohort.n_patients} patients to {out}")
    return 0


def _prepare_training_inputs(cfg: PipelineConfig):
    table = _load_score_table(cfg)
    cohort = _load_input_cohort(cfg)
    cohort = filter_cohort(cohort, cfg.required_variables, cfg.window_hours)
    if cohort.n_patients == 0:
        raise ValueError("no patients left after filtering")
    variables = sorted({o.variable for obs in cohort.patients.values() for o in obs})
    spec = FeatureSpec(tuple(variables), cfg.window_hours)
    matrix = build_feature_matrix(cohort, spec, table)
    return table, cohort, matrix


def _sweep_k(matrix, seed, max_rows: int = 2000) -> None:
    rows = matrix.rows()
    if rows.shape[0] > max_rows:  # keep the silhouette distance matrix small
        rng = np.random.default_rng([seed])
        rows = rows[np.sort(rng.choice(rows.shape[0], max_rows, replace=False))]
    kinds = feature_kinds(matrix.spec)
    ranges = numeric_ranges(rows, kinds)
    print("k  silhouette")
    for k in range(2, 9):
        try:
            _, labels, _ = pam_cluster(rows, k, seed, kinds=kinds, ranges=ranges)
            value = silhouette(rows, labels, kinds, ranges)
        except ValueError as exc:
            print(f"{k}  n/a ({exc})")
            continue
        print(f"{k}  {value:.4f}")


def cmd_train(cfg: PipelineConfig, args) -> int:
    table, cohort, matrix = _prepare_training_inputs(cfg)
    if args.sweep_k:
        imputed = impute_median(matrix, compute_medians(matrix))
        _sweep_k(imputed, cfg.seed)

    stage = fit_feature_stage(matrix, cfg.k_clusters, seed=[cfg.seed])
    models = {}
    for day in cfg.target_days:
        target = TargetSpec(day, cfg.window_hours, cfg.duration_mode)
        models[day] = fit_risk_model(
            matrix,
            cohort.outcomes,
            target,
            table,
            k_clusters=cfg.k_clusters,
            smoothing_alpha=cfg.smoothing_alpha,
            stage=stage,
        )
    echo = {
        "window_hours": cfg.window_hours,
        "k_clusters": cfg.k_clusters,
        "target_days": list(cfg.target_days),
        "duration_mode": cfg.duration_mode,
        "smoothing_alpha": cfg.smoothing_alpha,
        "seed": cfg.seed,
        "required_variables": list(cfg.required_variables),
    }
    out = _out_dir(cfg)
    _dump_json(models_to_obj(models, echo), out / "model.json")
    print(f"wrote {out / 'model.json'} ({len(models)} target days)")
    return 0


def _load_models(cfg: PipelineConfig):
    """Trained models and the config they were trained with (model.json)."""
    path = Path(cfg.out_dir) / "model.json"
    if not Path(path).exists():
        raise ConfigError(f"model file not found: {path} (run train first)")
    try:
        with open(path, "r", encoding="utf-8") as f:
            models, echo = models_from_obj(json.load(f))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if "required_variables" not in echo:
        raise ValueError(f"{path}: config echo lacks required_variables")
    return models, echo


def _scoring_matrix(cfg: PipelineConfig, models, echo):
    """Filter and featurize the input cohort as the model's training cohort
    was: window size and required variables come from model.json, not from
    the current config."""
    spec = next(iter(models.values())).spec
    cohort = _load_input_cohort(cfg)
    cohort = filter_cohort(cohort, echo["required_variables"], spec.window_hours)
    observed = {o.variable for obs in cohort.patients.values() for o in obs}
    unknown = sorted(observed - set(spec.variable_names))
    if unknown:
        raise ValueError(f"variables not in the trained model: {unknown}")
    table = next(iter(models.values())).score_table
    return cohort, build_feature_matrix(cohort, spec, table)


def cmd_predict(cfg: PipelineConfig, args) -> int:
    models, echo = _load_models(cfg)
    cohort, matrix = _scoring_matrix(cfg, models, echo)
    out = _out_dir(cfg)
    with open(out / "predictions.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["patient_id", "target_day", "eta"])
        for day in sorted(models):
            for score in score_patients(models[day], matrix):
                writer.writerow([score.patient_id, day, repr(score.eta)])
    print(f"wrote {out / 'predictions.csv'}")
    return 0


def cmd_curves(cfg: PipelineConfig, args) -> int:
    models, echo = _load_models(cfg)
    cohort, matrix = _scoring_matrix(cfg, models, echo)
    scores_by_day = {day: score_patients(models[day], matrix) for day in sorted(models)}
    bands = survival_curve(scores_by_day, cohort.outcomes)
    out = _out_dir(cfg)
    with open(out / "curves.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["group", "target_day", "mean_survival", "ci_low", "ci_high"])
        for band in bands:
            writer.writerow(
                [
                    band.group,
                    band.target_day,
                    repr(band.mean_survival),
                    repr(band.ci_low),
                    repr(band.ci_high),
                ]
            )
    print(f"wrote {out / 'curves.csv'}")
    return 0


def cmd_evaluate(cfg: PipelineConfig, args) -> int:
    table = _load_score_table(cfg)
    cohort = _load_input_cohort(cfg)
    report = run_cv(
        cohort,
        table,
        target_days=cfg.target_days,
        window_hours=cfg.window_hours,
        k_clusters=cfg.k_clusters,
        smoothing_alpha=cfg.smoothing_alpha,
        folds=cfg.cv_folds,
        repeats=cfg.cv_repeats,
        seed=cfg.seed,
        duration_mode=cfg.duration_mode,
        required_variables=cfg.required_variables,
    )
    out = _out_dir(cfg)
    _dump_json(report.to_json_obj(), out / "report.json")
    with open(out / "metrics.csv", "w", encoding="utf-8", newline="") as f:
        for row in report.csv_rows():
            f.write(row + "\n")
    for day in cfg.target_days:
        line = " ".join(
            f"{method}={report.summary[day][method]['auroc']['mean']:.3f}"
            for method in report.summary[day]
        )
        print(f"day {day} AUROC: {line}")
    print(f"wrote {out / 'report.json'} and {out / 'metrics.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icurisk",
        description="Early ICU mortality risk pipeline over first-24h physiology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic cohort (observations.csv, outcomes.csv)"),
        ("train", "fit per-target-day risk models (model.json)"),
        ("predict", "score a cohort with a trained model (predictions.csv)"),
        ("evaluate", "run the cross-validated comparison (report.json, metrics.csv)"),
        ("curves", "emit survival curves by outcome group (curves.csv)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=None, help="override the output directory")
        if name == "train":
            p.add_argument(
                "--sweep-k",
                action="store_true",
                help="print a silhouette sweep over k=2..8 before training",
            )
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "curves": cmd_curves,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = PipelineConfig.from_file(args.config)
        if args.seed is not None and args.command != "synth":
            cfg.seed = args.seed
        if args.out_dir is not None:
            cfg.out_dir = args.out_dir
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
