import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icurisk
from icurisk import cli as cli_module
from icurisk import cohort as cohort_module
from icurisk.cli import main
from icurisk.cohort import _csv_fields, window_tables, write_observations, write_outcomes, write_predictions
from icurisk.evaluation import run_cv
from icurisk.features import load_default_score_table
from conftest import cohort_from_rows, count_calls, write_config, write_cohort_files


@pytest.fixture()
def workdir(tmp_path, small_cohort):
    write_cohort_files(small_cohort, tmp_path)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats would add about 46 MB and 0.4 s to the start of every
    # command, and scipy.special about 25 MB: no command imports scipy.
    src = str(Path(icurisk.__file__).resolve().parents[1])
    code = "import sys, icurisk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="NumPy 1 imports numpy.ma with numpy")
def test_evaluate_leaves_out_numpy_ma(workdir):
    # numpy.ma takes about 10 ms to import, in the command and again in a CV
    # child: neither the medians, the fold split nor the KDE bandwidth needs it.
    src = str(Path(icurisk.__file__).resolve().parents[1])
    code = "import sys, icurisk.cli; code = icurisk.cli.main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code, "evaluate", "--config", str(write_config(workdir))],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines()[-1] == "0 False"


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["synth", "--config", tmp_path / "absent.json"]) == 2
        assert "config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["synth", "--config", bad]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"paths": {}, "window_hourz": 6}))
        assert run(["synth", "--config", cfg]) == 2

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_sampling_rate_rejected(self, tmp_path, capsys, rate):
        synth = json.loads(write_config(tmp_path).read_text())["synth"]
        cfg = write_config(tmp_path, synth={**synth, "sampling_rate_per_hour": rate})
        assert run(["synth", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid config value: sampling_rate_per_hour must be finite and positive\n"
        )

    @pytest.mark.parametrize(
        "key, value, what",
        [
            ("cv", 3, "an object"),
            ("paths", ["x"], "an object"),
            ("required_variables", "gcs", "a list"),
            ("target_days", "25", "a list"),
            ("synth", 5, "an object"),
        ],
    )
    def test_container_key_of_wrong_type_rejected(self, tmp_path, capsys, key, value, what):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: config key {key!r} must be {what}, got {json.dumps(value)}\n"
        )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("cv", {"fold": 2, "repeats": 1}, "unknown cv keys: ['fold']"),
            ("target_days", [2, 2.7], "config key 'target_days' must hold integers, got 2.7"),
            ("target_days", [True], "config key 'target_days' must hold integers, got true"),
            ("required_variables", ["gcs", 3], "config key 'required_variables' must hold strings, got 3"),
            ("cv", {"folds": 1}, "cv.folds must be at least 2, got 1"),
            ("cv", {"folds": 0}, "cv.folds must be at least 2, got 0"),
            ("cv", {"repeats": 0}, "cv.repeats must be at least 1, got 0"),
            ("k_clusters", 0, "k_clusters must be at least 1, got 0"),
            ("smoothing_alpha", 0, "smoothing_alpha must be > 0, got 0.0"),
            ("smoothing_alpha", float("nan"), "smoothing_alpha must be > 0, got nan"),
            ("target_days", [2, 2], "target_days must be distinct positive days, got [2, 2]"),
            ("target_days", [], "target_days must be distinct positive days, got []"),
            ("target_days", [0, 2], "target_days must be distinct positive days, got [0, 2]"),
            ("duration_mode", "midway", "duration_mode must be 'as_printed' or 'remaining', got 'midway'"),
            ("window_hours", 12.9, "config key 'window_hours' must be an integer, got 12.9"),
            ("window_hours", "12", 'config key \'window_hours\' must be an integer, got "12"'),
            ("k_clusters", True, "config key 'k_clusters' must be an integer, got true"),
            ("seed", 1.5, "config key 'seed' must be an integer, got 1.5"),
            ("seed", None, "config key 'seed' must be an integer, got null"),
            ("seed", -1, "seed must be at least 0, got -1"),
            ("cv", {"folds": "3"}, 'config key \'cv.folds\' must be an integer, got "3"'),
            ("cv", {"repeats": 2.0}, "config key 'cv.repeats' must be an integer, got 2.0"),
            ("smoothing_alpha", "1", 'config key \'smoothing_alpha\' must be a number, got "1"'),
            ("smoothing_alpha", True, "config key 'smoothing_alpha' must be a number, got true"),
            ("paths", {"out_dir": 5}, "config key 'paths.out_dir' must be a string, got 5"),
            ("paths", {"observations": 3}, "config key 'paths.observations' must be a string, got 3"),
            ("paths", {"score_table": None}, "config key 'paths.score_table' must be a string, got null"),
            ("paths", {"outcomes": ["o.csv"]}, 'config key \'paths.outcomes\' must be a string, got ["o.csv"]'),
        ],
        ids=[
            "cv-unknown-key", "target_days-fraction", "target_days-bool", "required_variables-number",
            "cv-one-fold", "cv-no-folds", "cv-no-repeats", "k_clusters-zero", "smoothing_alpha-zero",
            "smoothing_alpha-nan", "target_days-repeated", "target_days-empty", "target_days-zero",
            "duration_mode-unknown", "window_hours-fraction", "window_hours-string", "k_clusters-bool",
            "seed-fraction", "seed-null", "seed-negative", "cv-folds-string", "cv-repeats-float",
            "smoothing_alpha-string", "smoothing_alpha-bool", "paths-out_dir-number", "paths-observations-number",
            "paths-score_table-null", "paths-outcomes-list",
        ],
    )
    def test_bad_value_inside_container_rejected(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "key, value, what",
        [
            ("n_patients", 40.7, "an integer"),
            ("n_patients", "40", "an integer"),
            ("n_variables", 5.0, "an integer"),
            ("seed", True, "an integer"),
            ("prevalence_target", "0.15", "a number"),
            ("missing_rate", False, "a number"),
            ("sampling_rate_per_hour", None, "a number"),
        ],
    )
    def test_synth_number_of_wrong_type_rejected(self, tmp_path, capsys, key, value, what):
        synth = json.loads(write_config(tmp_path).read_text())["synth"]
        cfg = write_config(tmp_path, synth={**synth, key: value})
        assert run(["synth", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: config key 'synth.{key}' must be {what}, got {json.dumps(value)}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_synth_without_block(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "out")}}))
        assert run(["synth", "--config", cfg]) == 2

    def test_negative_config_seed_trains_no_model(self, workdir, capsys):
        # train would write model.json, and evaluate then fail in NumPy's SeedSequence
        cfg = write_config(workdir, seed=-1)
        assert run(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: seed must be at least 0, got -1\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "predict", "evaluate", "curves"])
    def test_negative_seed_flag_rejected_by_every_command(self, workdir, capsys, command):
        cfg = write_config(workdir)
        assert run([command, "--config", cfg, "--seed", -5]) == 2
        assert capsys.readouterr().err == "config error: --seed must be at least 0, got -5\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "predict", "evaluate", "curves"])
    def test_seed_flag_past_64_bits_rejected_by_every_command(self, workdir, capsys, command):
        cfg = write_config(workdir)
        assert run([command, "--config", cfg, "--seed", 2**64]) == 2
        assert capsys.readouterr().err == f"config error: --seed must fit in 64 unsigned bits, got {2**64}\n"
        assert not (workdir / "out").exists()

    def test_config_seed_past_64_bits_trains_no_model(self, workdir, capsys):
        # the top-level seed has the bound of --seed: exit 2, naming the key
        assert run(["train", "--config", write_config(workdir, seed=2**64)]) == 2
        assert capsys.readouterr().err == f"config error: seed must fit in 64 unsigned bits, got {2**64}\n"
        assert not (workdir / "out").exists()
        assert run(["train", "--config", write_config(workdir, seed=2**64 - 1)]) == 0
        assert (workdir / "out" / "model.json").stat().st_size > 0

    def test_synth_seed_past_64_bits_is_a_usage_error_as_flag_or_config(self, workdir, capsys):
        # the same value through the config's synth block: also exit 2, naming the seed
        synth = json.loads(write_config(workdir).read_text())["synth"]
        cfg = write_config(workdir, synth={**synth, "seed": 2**64})
        assert run(["synth", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: invalid config value: seed must fit in 64 unsigned bits\n"
        assert run(["synth", "--config", write_config(workdir), "--seed", 2**64 - 1, "--out-dir", workdir / "max"]) == 0
        assert (workdir / "max" / "observations.csv").stat().st_size > 0
        assert not (workdir / "out").exists()


class TestSynth:
    def test_writes_deterministic_csvs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path / "a"]) == 0
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path / "b"]) == 0
        for name in ("observations.csv", "outcomes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_beats_config(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["synth", "--config", cfg, "--out-dir", tmp_path / "a"])
        run(["synth", "--config", cfg, "--out-dir", tmp_path / "b", "--seed", 7])
        assert (tmp_path / "a" / "outcomes.csv").read_bytes() != (
            tmp_path / "b" / "outcomes.csv"
        ).read_bytes()


class TestTrain:
    def test_model_has_one_entry_per_day(self, workdir):
        cfg = write_config(workdir)
        assert run(["train", "--config", cfg]) == 0
        model = json.loads((workdir / "out" / "model.json").read_text())
        assert sorted(model["days"]) == ["2", "3", "4", "5"]
        for block in model["days"].values():
            assert len(block["fits"]) == 2  # 12h windows over 24h

    def test_shared_stage_written_once(self, workdir):
        cfg = write_config(workdir)
        assert run(["train", "--config", cfg]) == 0
        model = json.loads((workdir / "out" / "model.json").read_text())
        assert model["format_version"] == 3
        assert set(model["medians"]) == {"cell", "overall"}
        assert set(model["cluster"]) == {"medoids", "ranges"}
        for block in model["days"].values():
            assert set(block) == {"duration_mode", "fits", "emissions"}

    def test_model_says_each_setting_once(self, workdir):
        """The window size is the feature spec's alone, each day is its key,
        and the config echo holds only what no field of the model says."""
        cfg = write_config(workdir)
        assert run(["train", "--config", cfg]) == 0
        model = json.loads((workdir / "out" / "model.json").read_text())

        def keys(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from keys(value)
            elif isinstance(node, list):
                for value in node:
                    yield from keys(value)

        names = list(keys(model))
        assert names.count("window_hours") == 1 and model["feature_spec"]["window_hours"] == 12
        assert "target_day" not in names and "target" not in names
        assert sorted(model["config"]) == ["required_variables", "seed"]

    def test_retraining_is_byte_identical(self, workdir):
        cfg = write_config(workdir)
        run(["train", "--config", cfg, "--out-dir", workdir / "m1"])
        run(["train", "--config", cfg, "--out-dir", workdir / "m2"])
        assert (workdir / "m1" / "model.json").read_bytes() == (
            workdir / "m2" / "model.json"
        ).read_bytes()

    def test_oversized_k_surfaces_pam_error(self, workdir, capsys):
        cfg = write_config(workdir, k_clusters=100000)
        assert run(["train", "--config", cfg]) == 1
        assert "distinct" in capsys.readouterr().err

    def test_sweep_k_prints_silhouette_table(self, workdir, capsys):
        cfg = write_config(workdir)
        assert run(["train", "--config", cfg, "--sweep-k"]) == 0
        out = capsys.readouterr().out
        assert "silhouette" in out
        assert any(line.startswith("8") for line in out.splitlines())

    def test_seed_override_changes_model(self, workdir):
        cfg = write_config(workdir)
        run(["train", "--config", cfg, "--out-dir", workdir / "m1"])
        run(["train", "--config", cfg, "--out-dir", workdir / "m2", "--seed", 99])
        m1 = json.loads((workdir / "m1" / "model.json").read_text())
        m2 = json.loads((workdir / "m2" / "model.json").read_text())
        assert m1["config"]["seed"] != m2["config"]["seed"]


# (field, change to a trained model.json that leaves the field misshapen)
MISSHAPEN_MODELS = [
    ("medians.cell", lambda m: m["medians"].update(cell=m["medians"]["cell"][:1])),
    ("medians.overall", lambda m: m["medians"]["overall"].pop()),
    ("cluster.medoids", lambda m: [row.pop() for row in m["cluster"]["medoids"]]),
    ("cluster.ranges", lambda m: m["cluster"]["ranges"].pop()),
    ("days", lambda m: m.update(days={})),
    # a day is its key, a positive decimal integer
    ("days.2x", lambda m: m["days"].update({"2x": m["days"].pop("2")})),
    ("days.2.fits", lambda m: m["days"]["2"]["fits"].pop()),
    ("days.2.fits.0.beta", lambda m: m["days"]["2"]["fits"][0]["beta"].pop()),
    ("days.3.emissions.initial", lambda m: m["days"]["3"]["emissions"]["initial"].pop()),
    ("days.3.emissions.transition", lambda m: m["days"]["3"]["emissions"]["transition"][0].pop()),
    # integer fields are read as JSON integers, never truncated
    ("feature_spec.window_hours", lambda m: m["feature_spec"].update(window_hours=12.5)),
    ("feature_spec.window_hours", lambda m: m["feature_spec"].update(window_hours="12")),
    ("days.3.fits.1.iterations", lambda m: m["days"]["3"]["fits"][1].update(iterations=3.7)),
    ("score_table.heart_rate.0.score", lambda m: m["score_table"]["heart_rate"][0].update(score=2.7)),
    ("score_table.default_score", lambda m: m["score_table"].update(default_score=1.5)),
    # float fields are JSON numbers: no bool or string, and null only inside an array (NaN)
    ("score_table.heart_rate.0.lower", lambda m: m["score_table"]["heart_rate"][0].update(lower=True)),
    ("score_table.heart_rate.1.upper", lambda m: m["score_table"]["heart_rate"][1].update(upper="5")),
    ("score_table.gcs.0.lower", lambda m: m["score_table"]["gcs"][0].pop("lower")),
    ("days.2.fits.0.grad_norm", lambda m: m["days"]["2"]["fits"][0].update(grad_norm="0.001")),
    ("days.3.emissions.alpha", lambda m: m["days"]["3"]["emissions"].update(alpha=True)),
    ("days.4.emissions.alpha", lambda m: m["days"]["4"]["emissions"].update(alpha=None)),
    ("cluster.ranges", lambda m: m["cluster"].update(ranges=[True] + m["cluster"]["ranges"][1:])),
    ("medians.overall", lambda m: m["medians"].update(overall=["100"] + m["medians"]["overall"][1:])),
    ("days.5.fits.1.beta", lambda m: m["days"]["5"]["fits"][1].update(beta=[False] + m["days"]["5"]["fits"][1]["beta"][1:])),
    # a variable's bins are a list of objects
    ("score_table.gcs", lambda m: m["score_table"].update(gcs=5)),
    ("score_table.gcs", lambda m: m["score_table"].update(gcs={"lower": 0})),
    ("score_table.gcs", lambda m: m["score_table"].update(gcs="abc")),
    ("score_table.gcs.0", lambda m: m["score_table"].update(gcs=[3])),
]


class TestWritePredictions:
    SUBNORMAL = float(np.nextafter(0.0, 1.0))

    @pytest.mark.parametrize(
        "etas",
        [
            [0.25, 0.5, 0.25, 0.25, 0.1, 0.5, 0.25, 0.1],
            [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0],
            [SUBNORMAL, 0.0, 3 * SUBNORMAL, SUBNORMAL, -SUBNORMAL, 2.2250738585072014e-308, 1.0, 0.1 + 0.2],
            np.random.default_rng(5).random(8).tolist(),
        ],
        ids=["repeats", "signed-zeros", "subnormals", "all-distinct"],
    )
    def test_matches_row_oracle(self, tmp_path, etas):
        ids = ["p1", "p2", "a,b", 'q"1', "p5", "p6", "p7", "p8"]
        eta_by_day = {2: np.array(etas), 5: np.array(etas[::-1])}
        write_predictions(tmp_path / "predictions.csv", ids, eta_by_day)
        expected = "patient_id,target_day,eta\n" + "".join(
            f"{pid},{day},{eta!r}\n"
            for day, eta_of in eta_by_day.items()
            for pid, eta in zip(_csv_fields(ids), eta_of.tolist())
        )
        assert (tmp_path / "predictions.csv").read_text(encoding="utf-8") == expected


class TestPredict:
    def test_predictions_bounded_and_complete(self, workdir):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        assert run(["predict", "--config", cfg]) == 0
        lines = (workdir / "out" / "predictions.csv").read_text().splitlines()
        assert lines[0] == "patient_id,target_day,eta"
        days = set()
        for line in lines[1:]:
            pid, day, eta = line.split(",")
            days.add(day)
            assert 0.0 <= float(eta) <= 1.0
        assert days == {"2", "3", "4", "5"}

    def test_fully_filtered_cohort_gives_header_only(self, workdir, tmp_path):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        # every patient leaves before 24h, so filtering empties the cohort
        short = cohort_from_rows([("q1", "heart_rate", 10, 80.0)], {"q1": (5.0, False)})
        write_observations(short, workdir / "observations.csv")
        write_outcomes(short, workdir / "outcomes.csv")
        assert run(["predict", "--config", cfg]) == 0
        lines = (workdir / "out" / "predictions.csv").read_text().splitlines()
        assert lines == ["patient_id,target_day,eta"]

    def test_unknown_variable_rejected(self, workdir, small_cohort):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        with open(workdir / "observations.csv", "a", encoding="utf-8") as f:
            f.writelines(f"{pid},mystery,1439,1.0\n" for pid in small_cohort.patient_ids)
        assert run(["predict", "--config", cfg]) == 1

    def test_filters_with_the_models_settings_not_the_config(self, workdir):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        assert run(["predict", "--config", cfg]) == 0
        expected = (workdir / "out" / "predictions.csv").read_bytes()
        # another window size, required variables and score table: predict scores with model.json's
        table = load_default_score_table().to_json_obj()
        table["heart_rate"] = [{"lower": 0, "upper": 1000, "score": 1}]
        (workdir / "table.json").write_text(json.dumps(table))
        paths = json.loads(Path(cfg).read_text())["paths"]
        changed = write_config(workdir, window_hours=1, required_variables=["heart_rate"],
                               paths={**paths, "score_table": str(workdir / "table.json")})
        assert run(["predict", "--config", changed]) == 0
        assert (workdir / "out" / "predictions.csv").read_bytes() == expected

    def test_malformed_model_rejected(self, workdir, capsys):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        path = workdir / "out" / "model.json"
        model = json.loads(path.read_text())
        model["days"]["2"]["emissions"]["initial"][0] = [0.0, 0.0]
        path.write_text(json.dumps(model))
        assert run(["predict", "--config", cfg]) == 1
        assert "model.json" in capsys.readouterr().err

    def test_format_1_model_rejected(self, workdir, capsys):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        path = workdir / "out" / "model.json"
        model = json.loads(path.read_text())
        del model["format_version"]
        path.write_text(json.dumps(model))
        capsys.readouterr()
        assert run(["predict", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {path}: model format 1; retrain\n"

    def test_format_2_model_rejected(self, workdir, capsys):
        """A file in format 2's layout, where each day's `target` block and
        the config echo said the window size, day and mode again."""
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        path = workdir / "out" / "model.json"
        model = json.loads(path.read_text())
        model["format_version"] = 2
        for day, block in model["days"].items():
            block["target"] = {"target_day": int(day), "window_hours": 12, "duration_mode": block.pop("duration_mode")}
        model["config"].update(window_hours=12, k_clusters=4, target_days=[2, 3, 4, 5],
                               duration_mode="as_printed", smoothing_alpha=1.0)
        path.write_text(json.dumps(model))
        capsys.readouterr()
        assert run(["predict", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {path}: model format 2; retrain\n"

    @pytest.mark.parametrize("field, corrupt", MISSHAPEN_MODELS, ids=[f for f, _ in MISSHAPEN_MODELS])
    def test_misshapen_model_names_file_and_field(self, workdir, capsys, field, corrupt):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        path = workdir / "out" / "model.json"
        model = json.loads(path.read_text())
        corrupt(model)
        path.write_text(json.dumps(model))
        capsys.readouterr()
        assert run(["predict", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {field} ")

    def test_model_missing_key_names_file_and_key(self, workdir, capsys):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        path = workdir / "out" / "model.json"
        model = json.loads(path.read_text())
        del model["days"]["2"]["fits"]
        path.write_text(json.dumps(model))
        assert run(["predict", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "model.json" in err and "fits" in err

    @pytest.mark.parametrize(
        "name, row, message",
        [
            ("observations.csv", "p1,heart_rate,30,x", "non-numeric value 'x'"),
            ("outcomes.csv", "p1,30,2", "death_flag must be 0 or 1, got '2'"),
            pytest.param(
                "observations.csv",
                '"' + "p" * 140_000 + '",heart_rate,30,80',
                "field larger than field limit (131072)",
                id="field-over-csv-limit",
            ),
        ],
    )
    def test_bad_input_names_file_and_line(self, workdir, capsys, name, row, message):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        path = workdir / name
        with open(path, "a", encoding="utf-8") as f:
            f.write(row + "\n")
        n_lines = len(path.read_text().splitlines())
        capsys.readouterr()
        assert run(["predict", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {path}: line {n_lines}: {message}\n"

    def test_predict_without_model(self, workdir, capsys):
        cfg = write_config(workdir)
        assert run(["predict", "--config", cfg]) == 2
        assert "model" in capsys.readouterr().err


class TestCurves:
    def test_rows_and_bounds(self, workdir):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        assert run(["curves", "--config", cfg]) == 0
        lines = (workdir / "out" / "curves.csv").read_text().splitlines()
        assert lines[0] == "group,target_day,mean_survival,ci_low,ci_high"
        assert len(lines) == 1 + 2 * 4  # two groups, four days
        for line in lines[1:]:
            group, day, mean, lo, hi = line.split(",")
            assert group in ("death", "survival")
            assert 0.0 <= float(lo) <= float(mean) <= float(hi) <= 1.0


class TestFoldedInputErrors:
    """train, predict and curves fold the input files into window tables,
    with the messages the loaded cohort gave."""

    def test_unknown_variable_named_by_predict_and_curves(self, workdir, small_cohort, capsys):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        with open(workdir / "observations.csv", "a", encoding="utf-8") as f:
            f.writelines(f"{pid},mystery,1439,1.0\n" for pid in small_cohort.patient_ids)
        capsys.readouterr()
        for command in ("predict", "curves"):
            assert run([command, "--config", cfg]) == 1
            assert capsys.readouterr().err == "error: variables not in the trained model: ['mystery']\n"

    def test_variable_missing_from_score_table_named_by_train(self, workdir, capsys):
        table = load_default_score_table().to_json_obj()
        del table["age"]
        (workdir / "table.json").write_text(json.dumps(table))
        paths = json.loads(Path(write_config(workdir)).read_text())["paths"]
        cfg = write_config(workdir, paths={**paths, "score_table": str(workdir / "table.json")})
        assert run(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: variable 'age' not in score table\n"

    @pytest.mark.parametrize("field, value", [("heart_rate.1.score", 2.7), ("default_score", 1.5)])
    def test_score_table_file_score_that_is_not_an_integer_named(self, workdir, capsys, field, value):
        table = load_default_score_table().to_json_obj()
        if field == "default_score":
            table["default_score"] = value
        else:
            table["heart_rate"][1]["score"] = value
        (workdir / "table.json").write_text(json.dumps(table))
        paths = json.loads(Path(write_config(workdir)).read_text())["paths"]
        cfg = write_config(workdir, paths={**paths, "score_table": str(workdir / "table.json")})
        for command in ("train", "evaluate"):
            assert run([command, "--config", cfg]) == 1
            assert capsys.readouterr().err == f"error: score_table.{field} must be an integer, got {value}\n"

    @pytest.mark.parametrize("bins, message", [
        (5, "score_table.gcs must be a list of bins, got 5"),
        ({"lower": 0}, 'score_table.gcs must be a list of bins, got {"lower": 0}'),
        ("abc", 'score_table.gcs must be a list of bins, got "abc"'),
        ([3], "score_table.gcs.0 must be an object, got 3"),
    ], ids=["number", "object", "string", "list-of-numbers"])
    def test_score_table_file_bins_that_are_not_a_list_of_objects_named(self, workdir, capsys, bins, message):
        table = load_default_score_table().to_json_obj()
        table["gcs"] = bins
        (workdir / "table.json").write_text(json.dumps(table))
        paths = json.loads(Path(write_config(workdir)).read_text())["paths"]
        cfg = write_config(workdir, paths={**paths, "score_table": str(workdir / "table.json")})
        for command in ("train", "evaluate"):
            assert run([command, "--config", cfg]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_files_covering_different_patients_named(self, workdir, capsys):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        observations, outcomes = workdir / "observations.csv", workdir / "outcomes.csv"
        with open(outcomes, "a", encoding="utf-8") as f:
            f.write("zz,30,0\n")
        capsys.readouterr()
        for command in ("train", "predict", "curves"):
            assert run([command, "--config", cfg]) == 1
            assert capsys.readouterr().err == (
                f"error: {observations}, {outcomes}: "
                "observations and outcomes cover different patients (e.g. ['zz'])\n"
            )


@pytest.mark.parametrize("command", ["predict", "curves"])
def test_scoring_imputes_and_encodes_once_for_all_days(workdir, monkeypatch, command):
    cfg = write_config(workdir)
    run(["train", "--config", cfg])
    calls = count_calls(monkeypatch, icurisk.hmm, "impute_median", "encode_observations")
    assert run([command, "--config", cfg]) == 0
    assert calls == {"impute_median": 1, "encode_observations": 1}


@pytest.mark.slow
class TestEvaluate:
    def test_report_shape_and_metrics_rows(self, workdir):
        cfg = write_config(workdir)
        assert run(["evaluate", "--config", cfg]) == 0
        report = json.loads((workdir / "out" / "report.json").read_text())
        for day in ("2", "3", "4", "5"):
            assert set(report[day]) == {"chf_ar_hmm", "saps", "logistic", "exp_survival"}
            for method in report[day]:
                assert set(report[day][method]) == {"aucpr", "cstat", "auroc"}
        rows = (workdir / "out" / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 4 * 3 * 2 * 3  # days x methods x metrics x repeats x folds

    def test_outputs_match_run_cv_on_the_written_cohort(self, workdir, small_cohort):
        # evaluate folds the files it reads into window tables; run_cv on the
        # fold of the cohort that was written to them gives the same bytes.
        cfg = write_config(workdir)
        assert run(["evaluate", "--config", cfg]) == 0
        table = load_default_score_table()
        report = run_cv(window_tables(small_cohort, 720, table), repeats=2, seed=11)
        cli_module._dump_json(report.to_json_obj(), workdir / "expected.json")
        out = workdir / "out"
        assert (out / "report.json").read_bytes() == (workdir / "expected.json").read_bytes()
        assert (out / "metrics.csv").read_text() == "".join(row + "\n" for row in report.csv_rows())


def test_commands_never_build_a_raw_cohort(workdir, monkeypatch):
    def refuse(self):
        raise AssertionError("a RawCohort was built")

    monkeypatch.setattr(cohort_module.RawCohort, "__post_init__", refuse)
    cfg = write_config(workdir, cv={"folds": 3, "repeats": 1})
    for command in ("train", "predict", "curves", "evaluate"):
        assert run([command, "--config", cfg]) == 0, command
