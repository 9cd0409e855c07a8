import json

import pytest

from icurisk.cli import main
from icurisk.cohort import PatientOutcome, RawCohort, RawObservation, write_observations, write_outcomes
from conftest import write_config, write_cohort_files


@pytest.fixture()
def workdir(tmp_path, small_cohort):
    write_cohort_files(small_cohort, tmp_path)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


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

    def test_synth_without_block(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "out")}}))
        assert run(["synth", "--config", cfg]) == 2


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
        short = RawCohort(
            patients={
                "q1": [RawObservation("q1", "heart_rate", 10, 80.0)],
            },
            outcomes={"q1": PatientOutcome("q1", 5.0, False)},
        )
        write_observations(short, workdir / "observations.csv")
        write_outcomes(short, workdir / "outcomes.csv")
        assert run(["predict", "--config", cfg]) == 0
        lines = (workdir / "out" / "predictions.csv").read_text().splitlines()
        assert lines == ["patient_id,target_day,eta"]

    def test_unknown_variable_rejected(self, workdir, small_cohort):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        cohort = RawCohort(
            patients={
                pid: obs + [RawObservation(pid, "mystery", 1439, 1.0)]
                for pid, obs in small_cohort.patients.items()
            },
            outcomes=small_cohort.outcomes,
        )
        write_observations(cohort, workdir / "observations.csv")
        assert run(["predict", "--config", cfg]) == 1

    def test_filters_with_the_models_settings_not_the_config(self, workdir):
        cfg = write_config(workdir)
        run(["train", "--config", cfg])
        assert run(["predict", "--config", cfg]) == 0
        expected = (workdir / "out" / "predictions.csv").read_bytes()
        changed = write_config(workdir, window_hours=1, required_variables=["heart_rate"])
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
