import json
import math
import os
import pickle
import threading
import warnings

import numpy as np
import pytest

import icurisk.evaluation
import icurisk.features
import icurisk.hmm
import icurisk.survival
from icurisk.cohort import SynthConfig, filter_cohort, generate_synthetic_cohort, window_tables
from icurisk.evaluation import (
    METHODS,
    METRICS,
    ScoredSet,
    _draw_valid_folds,
    _stratified_folds,
    aucpr,
    auroc,
    baseline_design,
    baseline_exp_survival_scores,
    baseline_logistic_scores,
    baseline_saps_scores,
    concordance,
    first_day_max_scores,
    fit_logistic,
    paired_t_test_one_tailed,
    run_cv,
)
from icurisk.features import build_feature_matrix, distinct_rows, load_default_score_table
from conftest import cohort_from_rows, count_calls, no_child_left
import oracles


def scored(scores, labels, times=None, events=None):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if times is None:
        times = np.arange(1.0, scores.size + 1)
    if events is None:
        events = labels
    return ScoredSet(scores, labels, np.asarray(times, dtype=float), np.asarray(events, dtype=int))


def brute_force_auroc(s):
    pos = s.scores[s.labels == 1]
    neg = s.scores[s.labels == 0]
    credit = 0.0
    for p in pos:
        for q in neg:
            credit += 1.0 if p > q else (0.5 if p == q else 0.0)
    return credit / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 1.0

    def test_all_ties_give_half(self):
        assert auroc(scored([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])) == 0.5

    def test_three_point_example(self):
        assert auroc(scored([0.9, 0.4, 0.6], [1, 0, 1])) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auroc(scored([0.1, 0.2], [1, 1]))

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], n)
            s = scored(scores, labels)
            assert auroc(s) == brute_force_auroc(s)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(0, 1, 80)
        labels = rng.integers(0, 2, 80)
        labels[0], labels[1] = 0, 1
        a = auroc(scored(scores, labels))
        b = auroc(scored(np.exp(3 * scores), labels))
        assert a == b


class TestAucpr:
    def test_positives_first(self):
        assert aucpr(scored([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0

    def test_one_positive_ranked_last(self):
        assert aucpr(scored([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1])) == pytest.approx(0.25)

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            aucpr(scored([0.5, 0.4], [0, 0]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(0, 1, 60)
        labels = rng.integers(0, 2, 60)
        labels[0] = 1
        assert aucpr(scored(scores, labels)) == aucpr(scored(scores**3, labels))

    def test_random_scorer_converges_to_prevalence(self):
        rng = np.random.default_rng(13)
        labels = (rng.random(1000) < 0.15).astype(int)
        values = [
            aucpr(scored(rng.uniform(0, 1, 1000), labels)) for _ in range(100)
        ]
        assert abs(np.mean(values) - labels.mean()) < 0.02


class TestConcordance:
    def test_perfectly_inverse_risk(self):
        s = scored([0.9, 0.7, 0.5], [1, 1, 1], times=[10, 20, 30], events=[1, 1, 1])
        assert concordance(s) == 1.0

    def test_all_ties(self):
        s = scored([0.5, 0.5, 0.5], [1, 1, 0], times=[10, 20, 30], events=[1, 1, 0])
        assert concordance(s) == 0.5

    def test_three_patient_example(self):
        s = scored([0.9, 0.5, 0.7], [1, 1, 0], times=[10, 20, 30], events=[1, 1, 0])
        assert concordance(s) == pytest.approx(2 / 3)

    def test_nan_times_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            scored([0.9, 0.1], [1, 0], times=[10, float("nan")])

    def test_censored_short_member_incomparable(self):
        s = scored([0.9, 0.1], [0, 0], times=[10, 20], events=[0, 1])
        with pytest.raises(ValueError, match="comparable"):
            concordance(s)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(4, 50))
            times = rng.integers(1, 20, n).astype(float)
            events = rng.integers(0, 2, n)
            scores = rng.choice([0.2, 0.4, 0.6, 0.8], n)
            s = scored(scores, events, times=times, events=events)
            try:
                expected = oracles.brute_force_concordance(s)
            except ValueError:
                continue
            assert concordance(s) == expected

    def test_equals_auroc_when_everyone_has_events_at_two_times(self):
        rng = np.random.default_rng(15)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        scores = rng.uniform(0, 1, 40)
        times = np.where(labels == 1, 5.0, 10.0)
        s = scored(scores, labels, times=times, events=np.ones(40, dtype=int))
        assert concordance(s) == pytest.approx(auroc(s))


class TestPairedT:
    def test_hand_example(self):
        a = np.array([0.02, 0.01, 0.03, 0.02, 0.02])
        p = paired_t_test_one_tailed(a, np.zeros(5))
        assert p == pytest.approx(0.0015991010761677, abs=1e-12)

    def test_identical_samples_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            paired_t_test_one_tailed([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_nonzero_difference_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            paired_t_test_one_tailed([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0])

    def test_negative_shift_gives_large_p(self):
        rng = np.random.default_rng(16)
        b = rng.normal(0, 1, 20)
        a = b - 0.8
        assert paired_t_test_one_tailed(a, b) > 0.99


class TestLogistic:
    def test_intercept_only_matches_prevalence(self):
        y = np.array([1, 1, 0, 0, 0, 0, 0, 1])
        beta = fit_logistic(np.ones((8, 1)), y)
        p = 1.0 / (1.0 + math.exp(-beta[0]))
        assert p == pytest.approx(y.mean(), rel=1e-8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(20):
            n, d = 40, 3
            X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, d - 1))])
            y = rng.integers(0, 2, n).astype(float)
            beta = rng.normal(0, 0.4, d)
            grad = oracles.logistic_grad(beta, X, y)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (oracles.logistic_loglik(beta + e, X, y) - oracles.logistic_loglik(beta - e, X, y)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6)

    def test_separable_data_raises(self):
        X = np.column_stack([np.ones(10), np.repeat([0.0, 1.0], 5)])
        y = X[:, 1]
        with pytest.raises(ValueError, match="separation"):
            fit_logistic(X, y)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            fit_logistic(np.ones((4, 1)), np.ones(4))

    def test_full_rank_design_matches_pinv_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            X = np.column_stack([np.ones(100), rng.normal(0, 1, (100, 2))])
            y = (X[:, 1] + rng.normal(0, 1.5, 100) > 0).astype(float)

            def weights(b):
                p = 1.0 / (1.0 + np.exp(-(X @ b)))
                return p * (1.0 - p)

            beta, _, _ = oracles.newton_maximize_pinv(
                lambda b: oracles.logistic_loglik(b, X, y),
                lambda b: oracles.logistic_grad(b, X, y),
                weights,
                X,
                np.zeros(3),
                max_iter=200,
            )
            np.testing.assert_allclose(fit_logistic(X, y), beta, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("aliased", [False, True])
    def test_distinct_rows_fit_matches_full_rows_oracle(self, aliased):
        rng = np.random.default_rng(22)
        for _ in range(5):
            n = 400
            X = np.column_stack([np.ones(n), rng.integers(0, 4, (n, 2))]).astype(float)
            if aliased:   # an all-ones column and the sum of two columns
                X = np.column_stack([X, np.ones(n), X[:, 1] + X[:, 2]])
            y = (X[:, 1] + rng.normal(0, 2, n) > 1.5).astype(float)
            full = fit_logistic(X, y)
            first, group = distinct_rows(X)
            grouped = fit_logistic(
                X[first], np.bincount(group, weights=y), np.bincount(group).astype(float)
            )
            if aliased:
                np.testing.assert_allclose(X @ grouped, X @ full, rtol=0, atol=1e-12)
                assert grouped[3] == 0.0 and grouped[4] == 0.0
            else:
                np.testing.assert_allclose(grouped, full, rtol=0, atol=1e-12)

    def test_grouped_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            fit_logistic(np.ones((2, 1)), np.array([3.0, 2.0]), np.array([3.0, 2.0]))

    def test_exhausted_line_search_raises(self, monkeypatch):
        # Every point but the start scores worse, so no step can be accepted.
        monkeypatch.setattr(
            "icurisk.evaluation._logistic_loglik",
            lambda z, y, counts: (0.0 if not z.any() else -1.0, z),
        )
        y = np.array([1, 1, 0, 0, 0, 0, 0, 1])
        with pytest.raises(RuntimeError, match="line search stalled"):
            fit_logistic(np.ones((8, 1)), y)


def tiny_cohort(hr_values=(60.0, 130.0), include_late=True):
    rows = [("a", "heart_rate", 60 * i, v) for i, v in enumerate(hr_values)]
    rows.append(("b", "gcs", 30, 4.0))
    if include_late:
        # tail-of-day sample still counts toward the 24h maximum
        rows.append(("a", "heart_rate", 1439, 170.0))
        rows.append(("a", "heart_rate", 1440, 500.0))  # beyond first day
    return cohort_from_rows(rows, {"a": (100.0, True), "b": (50.0, False)})


def max_scores(cohort, variables, table):
    """`first_day_max_scores` of the cohort folded in 12 h windows."""
    return first_day_max_scores(window_tables(cohort, 720, table), variables)


class TestBaselines:
    TABLE = load_default_score_table()
    VARS = ("gcs", "heart_rate")

    def test_max_scores_cover_the_whole_first_day(self):
        mx = max_scores(tiny_cohort(), self.VARS, self.TABLE)
        # hr 60 -> 2, 130 -> 4, 1439min 170 -> 7; the minute-1440 sample is ignored
        assert mx.tolist() == [[0.0, 7.0], [26.0, 0.0]]

    def test_saps_is_sum_of_maxima(self):
        mx = max_scores(tiny_cohort(), self.VARS, self.TABLE)
        assert baseline_saps_scores(mx).tolist() == [7.0, 26.0]

    def test_all_values_in_zero_bins(self):
        cohort = tiny_cohort(hr_values=(80.0, 90.0), include_late=False)
        mx = max_scores(cohort, ("heart_rate",), self.TABLE)
        assert baseline_saps_scores(mx).tolist() == [0.0, 0.0]

    def test_monotone_in_any_sample(self):
        base = baseline_saps_scores(
            max_scores(tiny_cohort(), self.VARS, self.TABLE)
        )
        worse = baseline_saps_scores(
            max_scores(tiny_cohort(hr_values=(60.0, 170.0)), self.VARS, self.TABLE)
        )
        assert np.all(worse >= base)

    def test_exp_survival_scores_increase_with_horizon(self):
        rng = np.random.default_rng(18)
        X = rng.uniform(0, 5, (60, 2))
        times = rng.uniform(1, 100, 60)
        events = (rng.random(60) < 0.4).astype(int)
        events[0] = 1
        day2 = baseline_exp_survival_scores(baseline_design(X, X), times, events, 48.0)
        day5 = baseline_exp_survival_scores(baseline_design(X, X), times, events, 120.0)
        assert np.all(day5 > day2)
        assert np.all((day2 > 0) & (day2 < 1))

    def test_exp_survival_intercept_only_closed_form(self):
        times = np.array([10.0, 20.0, 30.0, 40.0])
        events = np.array([1, 0, 1, 0])
        scores = baseline_exp_survival_scores(
            baseline_design(np.zeros((4, 0)), np.zeros((1, 0))), times, events, 48.0
        )
        lam = events.sum() / times.sum()
        assert scores[0] == pytest.approx(1.0 - math.exp(-lam * 48.0), rel=1e-9)

    def test_logistic_baseline_probabilities(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(0, 5, (80, 2))
        y = (X[:, 0] + rng.normal(0, 2, 80) > 2.5).astype(int)
        probs = baseline_logistic_scores(baseline_design(X, X), y)
        assert np.all((probs > 0) & (probs < 1))


class TestFolds:
    def test_every_patient_in_exactly_one_fold(self):
        rng = np.random.default_rng(20)
        strata = rng.integers(0, 2, 100)
        fold_of = _stratified_folds(rng, strata, 3)
        assert fold_of.shape == (100,)
        assert set(fold_of) == {0, 1, 2}

    def test_stratification_balances_events(self):
        rng = np.random.default_rng(21)
        strata = np.zeros(90, dtype=int)
        strata[:9] = 1
        fold_of = _stratified_folds(rng, strata, 3)
        for fold in range(3):
            assert strata[fold_of == fold].sum() == 3

    def test_redraw_gives_up_eventually(self):
        death = np.zeros(9, dtype=int)  # a day with a single event can't split
        day_events = {2: np.array([1] + [0] * 8)}
        with pytest.raises(ValueError, match="attempts"):
            _draw_valid_folds(0, 0, death, day_events, 3)


def test_each_fold_imputes_and_encodes_its_test_rows_once(small_cohort, monkeypatch):
    """Per fold, the training stage imputes once (PAM labels its rows, so it
    encodes nothing) and scoring imputes and encodes the test rows once for
    all four target days."""
    calls = count_calls(monkeypatch, icurisk.hmm, "impute_median", "encode_observations")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # counted here: every fold in this process
    table = load_default_score_table()
    run_cv(window_tables(small_cohort, 720, table), repeats=1, folds=3, seed=5)
    assert calls == {"impute_median": 3 * 2, "encode_observations": 3}


def test_cohort_rows_are_grouped_only_before_the_folds(small_cohort, monkeypatch):
    """`run_cv` groups cohort-sized arrays only before its fold loop: one
    `distinct_rows` per window of the feature matrix and one for the
    first-day baseline rows. Inside the loop it groups only cells, never
    more rows than the cohort's window cells summed over windows."""
    table = load_default_score_table()
    tables = window_tables(small_cohort, 720, table)
    cohort = filter_cohort(tables)
    matrix = build_feature_matrix(cohort, cohort.variables)
    calls, folds_drawn = [], []   # (inside the loop, rows) of each grouping
    grouping, draw = distinct_rows, icurisk.evaluation._draw_valid_folds

    def counted(rows):
        calls.append((bool(folds_drawn), len(rows)))
        return grouping(rows)

    def drawn(*args, **kwargs):
        folds_drawn.append(True)
        return draw(*args, **kwargs)

    for module in (icurisk.features, icurisk.survival, icurisk.hmm, icurisk.evaluation):
        if getattr(module, "distinct_rows", None) is grouping:
            monkeypatch.setattr(module, "distinct_rows", counted)
    monkeypatch.setattr(icurisk.evaluation, "_draw_valid_folds", drawn)
    run_cv(tables, repeats=1, folds=3, seed=5)

    assert [rows for inside, rows in calls if not inside] == [cohort.n_patients] * (matrix.spec.n_windows + 1)
    inside = [rows for inside, rows in calls if inside]
    assert inside and max(inside) <= matrix.cells.shape[0]


class TestRunCvOnTables:
    """`run_cv`, `build_feature_matrix` and `first_day_max_scores` take the
    window size and the score table from the WindowTables they read."""

    def test_six_hour_tables_give_six_hour_features(self, small_cohort):
        tables = window_tables(small_cohort, 360, load_default_score_table())
        matrix = build_feature_matrix(tables, small_cohort.variables)
        assert (matrix.spec.window_hours, matrix.spec.n_windows) == (6, 4)
        report = run_cv(tables, repeats=1, seed=5)
        assert len(report.records) == 4 * 4 * 3 * 3   # days x methods x metrics x folds

    @pytest.mark.parametrize(
        ("minutes", "table", "message"),
        [
            (90, load_default_score_table(), "^tables of 90-minute windows: features need whole-hour windows$"),
            (720, None, "^tables folded without a score table: features need one$"),
        ],
        ids=["90-minute", "no-score-table"],
    )
    def test_tables_features_cannot_read_rejected(self, small_cohort, minutes, table, message):
        tables = window_tables(small_cohort, minutes, table)
        variables = small_cohort.variables
        with pytest.raises(ValueError, match=message):
            build_feature_matrix(tables, variables)
        with pytest.raises(ValueError, match=message):
            first_day_max_scores(tables, variables)
        with pytest.raises(ValueError, match=message):
            run_cv(tables, repeats=1)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"repeats": 0}, "^repeats must be at least 1, got 0$"),
            ({"folds": 0}, "^folds must be at least 2, got 0$"),
            ({"folds": 1}, "^folds must be at least 2, got 1$"),
        ],
        ids=["no-repeats", "no-folds", "one-fold"],
    )
    def test_folds_and_repeats_checked_up_front(self, small_cohort, kwargs, message):
        tables = window_tables(small_cohort, 720, load_default_score_table())
        with pytest.raises(ValueError, match=message):
            run_cv(tables, **{"repeats": 1, **kwargs})

    def test_rows_not_folded_rejected(self, small_cohort):
        message = "^expected WindowTables, got RawCohort: fold the rows with window_tables$"
        variables = small_cohort.variables
        with pytest.raises(TypeError, match=message):
            build_feature_matrix(small_cohort, variables)
        with pytest.raises(TypeError, match=message):
            first_day_max_scores(small_cohort, variables)
        with pytest.raises(TypeError, match=message):
            run_cv(small_cohort, repeats=1)


@pytest.fixture(scope="module")
def report(small_cohort):
    table = load_default_score_table()
    return run_cv(window_tables(small_cohort, 720, table), repeats=2, seed=5)


@pytest.mark.slow
class TestRunCv:
    def test_record_count(self, report):
        assert len(report.records) == 4 * 4 * 3 * 2 * 3  # days x methods x metrics x repeats x folds

    def test_summary_shape_and_ci_order(self, report):
        for day in (2, 3, 4, 5):
            assert list(report.summary[day]) == [method for method, _ in METHODS]
            for method, _ in METHODS:
                for metric, _ in METRICS:
                    cell = report.summary[day][method][metric]
                    assert cell["ci_low"] <= cell["mean"] <= cell["ci_high"]

    def test_p_values_present(self, report):
        for day in (2, 3, 4, 5):
            for baseline in ("saps", "logistic", "exp_survival"):
                for metric, _ in METRICS:
                    p = report.p_values[day][baseline][metric]
                    assert p is None or 0.0 <= p <= 1.0

    def test_deterministic(self, small_cohort, report):
        table = load_default_score_table()
        again = run_cv(window_tables(small_cohort, 720, table), repeats=2, seed=5)
        assert json.dumps(again.to_json_obj(), sort_keys=True) == json.dumps(
            report.to_json_obj(), sort_keys=True
        )

    def test_csv_rows(self, report):
        rows = list(report.csv_rows())
        assert rows[0] == "day,method,metric,repeat,fold,value"
        assert len(rows) == 1 + len(report.records)

    def test_metadata_notes_estimators(self, report):
        assert "normal" in report.metadata["ci_method"]
        assert "average precision" in report.metadata["aucpr_estimator"]
        assert set(report.metadata["aucpr_baseline"]) == {"2", "3", "4", "5"}


def cv_with_cpus(monkeypatch, tables, cpus, **kwargs):
    """`run_cv` of `tables`, 2 repeats at seed 5 unless given, with `cpus`
    usable CPUs; no child is left afterwards, whatever it raised."""
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        try:
            return run_cv(tables, **{"repeats": 2, "seed": 5, **kwargs})
        finally:
            no_child_left()


def report_bytes(report):
    """What `icurisk evaluate` writes of a report: report.json's object and metrics.csv's rows."""
    return json.dumps(report.to_json_obj(), sort_keys=True), list(report.csv_rows())


class TestCvInChildren:
    """`run_cv`'s (repeat, fold) units in blocks of consecutive units, one
    per usable CPU, the first here and the others in forked children."""

    @pytest.fixture(scope="class")
    def tables(self, small_cohort):
        return window_tables(small_cohort, 720, load_default_score_table())

    @pytest.fixture(scope="class")
    def serial(self, tables):
        """The report of 2 repeats with one usable CPU, in bytes."""
        with pytest.MonkeyPatch.context() as mp:
            forks = count_calls(mp, os, "fork")
            report = cv_with_cpus(mp, tables, 1)
        assert forks["fork"] == 0
        return report_bytes(report)

    @pytest.fixture
    def forks(self, monkeypatch):
        return count_calls(monkeypatch, os, "fork")

    @staticmethod
    def draw_in_parent_or_child(monkeypatch, in_parent, in_child):
        """`_draw_valid_folds`, which each block calls first, calls `in_parent`
        here and `in_child` in a forked child, then draws as before."""
        parent, draw = os.getpid(), icurisk.evaluation._draw_valid_folds

        def drawn(*args):
            (in_parent if os.getpid() == parent else in_child)()
            return draw(*args)

        monkeypatch.setattr(icurisk.evaluation, "_draw_valid_folds", drawn)

    @pytest.mark.parametrize(("cpus", "repeats"), [(3, 2), (2, 3), (4, 1)], ids=["2+2+2", "4+5", "1+1+1"])
    def test_blocks_give_the_serial_report(self, monkeypatch, tables, forks, cpus, repeats):
        serial = report_bytes(cv_with_cpus(monkeypatch, tables, 1, repeats=repeats))
        assert forks["fork"] == 0
        drawn = []   # fold draws here: one per repeat of the first block, none of a serial rerun
        self.draw_in_parent_or_child(monkeypatch, lambda: drawn.append(True), lambda: None)
        assert report_bytes(cv_with_cpus(monkeypatch, tables, cpus, repeats=repeats)) == serial
        units = [(repeat, fold) for repeat in range(repeats) for fold in range(3)]
        assert forks["fork"] == min(cpus, len(units)) - 1
        first_block = units[:len(units) // min(cpus, len(units))]
        assert len(drawn) == len({repeat for repeat, _ in first_block})

    @pytest.mark.parametrize("how", ["exit", "torn"])
    def test_child_without_its_records_gives_the_serial_report(self, monkeypatch, tables, serial, forks, how):
        # a child exits 0 before it sends anything, or fails halfway through sending
        if how == "exit":
            self.draw_in_parent_or_child(monkeypatch, lambda: None, lambda: os._exit(0))
        else:
            def torn(records, pipe, protocol):   # only a child sends records
                pipe.write(pickle.dumps(records, protocol)[:100])
                raise OSError("connection lost")

            monkeypatch.setattr(pickle, "dump", torn)
        assert report_bytes(cv_with_cpus(monkeypatch, tables, 3)) == serial
        assert forks["fork"] == 2

    def test_failed_fork_gives_the_serial_report(self, monkeypatch, tables, serial):
        fork, calls = os.fork, []

        def second_fails():   # the first child is forked, then no process is to be had
            calls.append(len(calls))
            if len(calls) == 2:
                raise BlockingIOError("Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        assert report_bytes(cv_with_cpus(monkeypatch, tables, 3)) == serial
        assert len(calls) == 2

    def test_interrupt_leaves_no_child(self, monkeypatch, tables, forks):
        def interrupt():
            raise KeyboardInterrupt

        self.draw_in_parent_or_child(monkeypatch, interrupt, lambda: None)
        with pytest.raises(KeyboardInterrupt):
            cv_with_cpus(monkeypatch, tables, 3)
        assert forks["fork"] == 2

    def test_second_thread_never_forks(self, monkeypatch, tables, serial, forks):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert report_bytes(cv_with_cpus(monkeypatch, tables, 3)) == serial
        finally:
            stop.set()
            thread.join()
        assert forks["fork"] == 0

    @pytest.mark.parametrize(("seed", "drawn"), [(9, [0]), (2, [0, 0, 1])], ids=["in-parent", "in-child"])
    def test_error_is_the_serial_error(self, monkeypatch, forks, seed, drawn):
        # On this cohort the logistic baseline of one fold hits quasi-separation:
        # at seed 9 in repeat 0, the parent's block; at seed 2 in repeat 1, the
        # child's, so the parent's block is drawn again in the serial run.
        cohort = generate_synthetic_cohort(SynthConfig(
            n_patients=500, n_variables=5, prevalence_target=0.15, missing_rate=0.1,
            sampling_rate_per_hour=1.0, seed=9,
        ))
        tables = window_tables(cohort, 720, load_default_score_table())
        with pytest.raises(ValueError) as serial:
            cv_with_cpus(monkeypatch, tables, 1, seed=seed)
        assert str(serial.value) == "quasi-separation: coefficient magnitude exceeded 30"
        draws, draw = [], icurisk.evaluation._draw_valid_folds
        monkeypatch.setattr(icurisk.evaluation, "_draw_valid_folds", lambda *args: draws.append(args[1]) or draw(*args))
        with pytest.raises(ValueError) as in_blocks:
            cv_with_cpus(monkeypatch, tables, 2, seed=seed)
        assert str(in_blocks.value) == str(serial.value)
        assert forks["fork"] == 1
        assert draws == drawn

    def test_added_scorer_runs_alone_and_in_blocks(self, monkeypatch, tables, serial, forks):
        """One more entry in the method table, the model's last-window prior,
        gets its records, summary and p-values against the model; the forked
        blocks inherit the table, so 1 and 3 usable CPUs give the same report;
        and the four paper methods' records are those of the table alone."""
        def last_window_prior(unit, day):
            return unit.model[day].priors[:, -1]

        monkeypatch.setattr(icurisk.evaluation, "METHODS", METHODS + (("last_window_prior", last_window_prior),))
        alone = cv_with_cpus(monkeypatch, tables, 1)
        assert report_bytes(cv_with_cpus(monkeypatch, tables, 3)) == report_bytes(alone)
        assert forks["fork"] == 2
        added = [r for r in alone.records if r.method == "last_window_prior"]
        assert len(added) == 4 * 3 * 2 * 3   # days x metrics x repeats x folds
        metrics = [metric for metric, _ in METRICS]
        for day in (2, 3, 4, 5):
            assert list(alone.summary[day]["last_window_prior"]) == metrics
            assert list(alone.p_values[day]["last_window_prior"]) == metrics
        assert [row for row in alone.csv_rows() if ",last_window_prior," not in row] == serial[1]

    def test_child_warnings_are_shown_in_unit_order(self, monkeypatch, tables, forks):
        # (0, 2) is the parent's last unit, (1, 0) and (1, 2) the child's first and last
        unit, fit_stage, label = [None], icurisk.evaluation.fit_feature_stage, icurisk.survival.label_hidden_states

        def stage(matrix, k, seed):
            unit[0] = tuple(seed[1:])
            return fit_stage(matrix, k, seed=seed)

        def labelled(*args):
            if unit[0] in ((0, 2), (1, 0), (1, 2)):
                warnings.warn(f"unit {unit[0]}, day {args[4].target_day}", UserWarning)
            return label(*args)

        monkeypatch.setattr(icurisk.evaluation, "fit_feature_stage", stage)
        for module in (icurisk.survival, icurisk.hmm):
            monkeypatch.setattr(module, "label_hidden_states", labelled)
        shown = {}
        for cpus in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cv_with_cpus(monkeypatch, tables, cpus)
            shown[cpus] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        assert forks["fork"] == 1
        assert [message for _, message, _, _ in shown[1]] == [
            f"unit {u}, day {day}" for u in ((0, 2), (1, 0), (1, 2)) for day in (2, 3, 4, 5)]
        assert shown[2] == shown[1]
