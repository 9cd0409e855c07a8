"""Command-line pipeline: synth, train, predict, evaluate, curves.

One JSON config drives every subcommand; --seed and --out-dir flags override
the config. Exit codes: 0 success, 1 pipeline error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .cohort import (
    DEFAULT_REQUIRED_VARIABLES,
    CohortError,
    SynthConfig,
    filter_cohort,
    generate_synthetic_cohort,
    json_number,
    load_cohort,
    write_observations,
    write_outcomes,
    write_predictions,
)
from .evaluation import run_cv
from .features import (
    ScoreTable,
    build_feature_matrix,
    feature_kinds,
    load_default_score_table,
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
from .survival import AS_PRINTED, REMAINING, TargetSpec


class ConfigError(ValueError):
    """Problems with the config file or referenced paths; exits with code 2."""


_CONFIG_KEYS = {
    "paths", "window_hours", "k_clusters", "target_days", "duration_mode",
    "smoothing_alpha", "cv", "seed", "required_variables", "synth",
}
_PATH_KEYS = {"observations", "outcomes", "score_table", "out_dir"}
# Keys whose values are containers: a value of another JSON type is an error.
_CONFIG_CONTAINERS = {
    "paths": (dict, "an object"),
    "cv": (dict, "an object"),
    "required_variables": (list, "a list"),
    "target_days": (list, "a list"),
    "synth": (dict, "an object"),
}
# Number keys, each setting the PipelineConfig field of its name with "." as "_":
# int takes a JSON integer only, float any JSON number.
_CONFIG_NUMBERS = {
    "window_hours": int, "k_clusters": int, "smoothing_alpha": float, "seed": int,
    "cv.folds": int, "cv.repeats": int,
}


def _check_seed(key: str, seed: int) -> None:
    """The one bound of a seed, from the config or --seed: a uint64, as synth's."""
    if seed < 0:
        raise ConfigError(f"{key} must be at least 0, got {seed}")
    if seed >= 2**64:
        raise ConfigError(f"{key} must fit in 64 unsigned bits, got {seed}")


@dataclass
class PipelineConfig:
    observations_path: str | None = None
    outcomes_path: str | None = None
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
        for key, (kind, what) in _CONFIG_CONTAINERS.items():
            if key in obj and not isinstance(obj[key], kind):
                raise ConfigError(f"config key {key!r} must be {what}, got {json.dumps(obj[key])}")

        for key, known in (("paths", _PATH_KEYS), ("cv", {"folds", "repeats"})):
            bad = sorted(set(obj.get(key, {})) - known)
            if bad:
                raise ConfigError(f"unknown {key} keys: {bad}")
        for key, value in obj.get("paths", {}).items():
            if not isinstance(value, str):
                raise ConfigError(f"config key 'paths.{key}' must be a string, got {json.dumps(value)}")
        for key, kind, what in (("target_days", int, "integers"), ("required_variables", str, "strings")):
            bad = [v for v in obj.get(key, []) if not isinstance(v, kind) or isinstance(v, bool)]
            if bad:
                raise ConfigError(f"config key {key!r} must hold {what}, got {json.dumps(bad[0])}")

        cfg = cls()
        paths = obj.get("paths", {})
        cfg.observations_path = paths.get("observations")
        cfg.outcomes_path = paths.get("outcomes")
        cfg.score_table = paths.get("score_table")
        cfg.out_dir = paths.get("out_dir", cfg.out_dir)
        cfg.target_days = tuple(obj.get("target_days", cfg.target_days))
        cfg.duration_mode = str(obj.get("duration_mode", cfg.duration_mode))
        cfg.required_variables = tuple(obj.get("required_variables", cfg.required_variables))
        given = {**obj, **{f"cv.{key}": value for key, value in obj.get("cv", {}).items()}}
        try:
            for key, kind in _CONFIG_NUMBERS.items():
                if key in given:
                    setattr(cfg, key.replace(".", "_"), json_number(f"config key {key!r}", given[key], kind))
            if "synth" in obj:
                cfg.synth = SynthConfig.from_json_obj(obj["synth"])
        except CohortError as exc:
            raise ConfigError(f"invalid config value: {exc}") from None
        except ValueError as exc:   # a number key of another JSON type
            raise ConfigError(str(exc)) from None
        if not 1 <= cfg.window_hours <= 24:
            raise ConfigError("window_hours must lie in 1..24")
        if not cfg.target_days or min(cfg.target_days) < 1 or len(set(cfg.target_days)) < len(cfg.target_days):
            raise ConfigError(f"target_days must be distinct positive days, got {list(cfg.target_days)}")
        if cfg.duration_mode not in (AS_PRINTED, REMAINING):
            raise ConfigError(f"duration_mode must be {AS_PRINTED!r} or {REMAINING!r}, got {cfg.duration_mode!r}")
        for key, value, least in (("cv.folds", cfg.cv_folds, 2), ("cv.repeats", cfg.cv_repeats, 1),
                                  ("k_clusters", cfg.k_clusters, 1)):
            if value < least:
                raise ConfigError(f"{key} must be at least {least}, got {value}")
        _check_seed("seed", cfg.seed)
        if not cfg.smoothing_alpha > 0:   # NaN included
            raise ConfigError(f"smoothing_alpha must be > 0, got {cfg.smoothing_alpha}")
        return cfg


def _load_score_table(cfg: PipelineConfig) -> ScoreTable:
    if cfg.score_table is None:
        return load_default_score_table()
    if not Path(cfg.score_table).exists():
        raise ConfigError(f"score table not found: {cfg.score_table}")
    return ScoreTable.from_file(cfg.score_table)


def _input_paths(cfg: PipelineConfig):
    for label, path in (("observations", cfg.observations_path), ("outcomes", cfg.outcomes_path)):
        if path is None:
            raise ConfigError(f"config paths.{label} is required for this command")
        if not Path(path).exists():
            raise ConfigError(f"{label} file not found: {path}")
    return cfg.observations_path, cfg.outcomes_path


def _kept_tables(cfg: PipelineConfig, required_variables, window_hours: int, table: ScoreTable):
    """The input files folded into window tables (`load_cohort`), scored
    with `table`, filtered to the patients that qualify: the rows
    themselves are never held."""
    tables = load_cohort(*_input_paths(cfg), 60 * window_hours, table)
    return filter_cohort(tables, required_variables)


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
    synth = cfg.synth if args.seed is None else replace(cfg.synth, seed=args.seed)
    cohort = generate_synthetic_cohort(synth)
    out = _out_dir(cfg)
    write_observations(cohort, out / "observations.csv")
    write_outcomes(cohort, out / "outcomes.csv")
    print(f"wrote {cohort.n_patients} patients to {out}")
    return 0


def _training_matrix(cfg: PipelineConfig):
    tables = _kept_tables(cfg, cfg.required_variables, cfg.window_hours, _load_score_table(cfg))
    if tables.n_patients == 0:
        raise ValueError("no patients left after filtering")
    return build_feature_matrix(tables, tables.variables)


def _sweep_k(matrix, rows, seed) -> None:
    """Silhouettes of PAM at k = 2..8 on the imputed cells, weighted by patients."""
    counts = matrix.counts()
    kinds = feature_kinds(matrix.spec)
    print("k  silhouette")
    for k in range(2, 9):
        try:
            _, labels, _ = pam_cluster(rows, k, seed, counts=counts, kinds=kinds)
            value = silhouette(rows, labels, kinds, counts=counts)
        except ValueError as exc:
            print(f"{k}  n/a ({exc})")
            continue
        print(f"{k}  {value:.4f}")


def cmd_train(cfg: PipelineConfig, args) -> int:
    matrix = _training_matrix(cfg)
    stage = fit_feature_stage(matrix, cfg.k_clusters, seed=[cfg.seed])
    if args.sweep_k:
        _sweep_k(matrix, stage.rows, [cfg.seed])
    targets = [TargetSpec(day, cfg.duration_mode) for day in cfg.target_days]
    model = fit_risk_model(stage, targets, smoothing_alpha=cfg.smoothing_alpha)
    # the two settings no field of the model holds
    echo = {"seed": cfg.seed, "required_variables": list(cfg.required_variables)}
    out = _out_dir(cfg)
    _dump_json(models_to_obj(model, echo), out / "model.json")
    print(f"wrote {out / 'model.json'} ({len(model.days)} target days)")
    return 0


def _load_model(cfg: PipelineConfig):
    """The trained model and the config it was trained with (model.json)."""
    path = Path(cfg.out_dir) / "model.json"
    if not Path(path).exists():
        raise ConfigError(f"model file not found: {path} (run train first)")
    try:
        with open(path, "r", encoding="utf-8") as f:
            model, echo = models_from_obj(json.load(f))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if "required_variables" not in echo:
        raise ValueError(f"{path}: config echo lacks required_variables")
    return model, echo


def _scoring_matrix(cfg: PipelineConfig, model, echo):
    """Filter and featurize the input cohort as the model's training cohort
    was: window size, score table and required variables come from
    model.json, not from the current config."""
    spec = model.spec
    tables = _kept_tables(cfg, echo["required_variables"], spec.window_hours, spec.score_table)
    unknown = sorted(set(tables.variables) - set(spec.variable_names))
    if unknown:
        raise ValueError(f"variables not in the trained model: {unknown}")
    return build_feature_matrix(tables, spec.variable_names)


def cmd_predict(cfg: PipelineConfig, args) -> int:
    model, echo = _load_model(cfg)
    matrix = _scoring_matrix(cfg, model, echo)
    out = _out_dir(cfg)
    eta_by_day = {day: scores.eta for day, scores in score_patients(model, matrix).items()}
    write_predictions(out / "predictions.csv", matrix.patient_ids, eta_by_day)
    print(f"wrote {out / 'predictions.csv'}")
    return 0


def cmd_curves(cfg: PipelineConfig, args) -> int:
    model, echo = _load_model(cfg)
    matrix = _scoring_matrix(cfg, model, echo)
    eta_by_day = {day: scores.eta for day, scores in score_patients(model, matrix).items()}
    bands = survival_curve(eta_by_day, matrix.died)
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
    # the files are folded into window tables as they are parsed: no rows are held
    report = run_cv(
        load_cohort(*_input_paths(cfg), 60 * cfg.window_hours, _load_score_table(cfg)),
        target_days=cfg.target_days,
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
        ("train", "fit the risk model for every target day (model.json)"),
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
        if args.seed is not None:
            _check_seed("--seed", args.seed)
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
