import json
import math

import numpy as np
import pytest

import icurisk.evaluation
import icurisk.features
import icurisk.hmm
import icurisk.survival
from icurisk.cohort import filter_cohort
from icurisk.evaluation import (
    ALL_METHODS,
    ALL_METRICS,
    ScoredSet,
    _draw_valid_folds,
    _stratified_folds,
    aucpr,
    auroc,
    baseline_exp_survival_scores,
    baseline_logistic_scores,
    baseline_saps_scores,
    concordance,
    first_day_max_scores,
    fit_logistic,
    logistic_grad,
    logistic_loglik,
    paired_t_test_one_tailed,
    run_cv,
)
from icurisk.features import FeatureSpec, build_feature_matrix, distinct_rows, load_default_score_table
from conftest import cohort_from_rows, count_calls
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
            grad = logistic_grad(beta, X, y)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (logistic_loglik(beta + e, X, y) - logistic_loglik(beta - e, X, y)) / (2 * h)
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
                lambda b: logistic_loglik(b, X, y),
                lambda b: logistic_grad(b, X, y),
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
            "icurisk.evaluation.logistic_loglik",
            lambda beta, X, y, counts: 0.0 if not beta.any() else -1.0,
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


class TestBaselines:
    TABLE = load_default_score_table()
    VARS = ("gcs", "heart_rate")

    def test_max_scores_cover_the_whole_first_day(self):
        mx = first_day_max_scores(tiny_cohort(), self.VARS, self.TABLE)
        # hr 60 -> 2, 130 -> 4, 1439min 170 -> 7; the minute-1440 sample is ignored
        assert mx.tolist() == [[0.0, 7.0], [26.0, 0.0]]

    def test_saps_is_sum_of_maxima(self):
        mx = first_day_max_scores(tiny_cohort(), self.VARS, self.TABLE)
        assert baseline_saps_scores(mx).tolist() == [7.0, 26.0]

    def test_all_values_in_zero_bins(self):
        cohort = tiny_cohort(hr_values=(80.0, 90.0), include_late=False)
        mx = first_day_max_scores(cohort, ("heart_rate",), self.TABLE)
        assert baseline_saps_scores(mx).tolist() == [0.0, 0.0]

    def test_monotone_in_any_sample(self):
        base = baseline_saps_scores(
            first_day_max_scores(tiny_cohort(), self.VARS, self.TABLE)
        )
        worse = baseline_saps_scores(
            first_day_max_scores(tiny_cohort(hr_values=(60.0, 170.0)), self.VARS, self.TABLE)
        )
        assert np.all(worse >= base)

    def test_exp_survival_scores_increase_with_horizon(self):
        rng = np.random.default_rng(18)
        X = rng.uniform(0, 5, (60, 2))
        times = rng.uniform(1, 100, 60)
        events = (rng.random(60) < 0.4).astype(int)
        events[0] = 1
        day2 = baseline_exp_survival_scores(X, times, events, X, 48.0)
        day5 = baseline_exp_survival_scores(X, times, events, X, 120.0)
        assert np.all(day5 > day2)
        assert np.all((day2 > 0) & (day2 < 1))

    def test_exp_survival_intercept_only_closed_form(self):
        times = np.array([10.0, 20.0, 30.0, 40.0])
        events = np.array([1, 0, 1, 0])
        scores = baseline_exp_survival_scores(
            np.zeros((4, 0)), times, events, np.zeros((1, 0)), 48.0
        )
        lam = events.sum() / times.sum()
        assert scores[0] == pytest.approx(1.0 - math.exp(-lam * 48.0), rel=1e-9)

    def test_logistic_baseline_probabilities(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(0, 5, (80, 2))
        y = (X[:, 0] + rng.normal(0, 2, 80) > 2.5).astype(int)
        probs = baseline_logistic_scores(X, y, X)
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
    run_cv(small_cohort, load_default_score_table(), repeats=1, folds=3, seed=5)
    assert calls == {"impute_median": 3 * 2, "encode_observations": 3}


def test_cohort_rows_are_grouped_only_before_the_folds(small_cohort, monkeypatch):
    """`run_cv` groups cohort-sized arrays only before its fold loop: one
    `distinct_rows` per window of the feature matrix and one for the
    first-day baseline rows. Inside the loop it groups only cells, never
    more rows than the cohort's window cells summed over windows."""
    table = load_default_score_table()
    cohort = filter_cohort(small_cohort)
    matrix = build_feature_matrix(cohort, FeatureSpec(tuple(cohort.variables), 12), table)
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
    run_cv(small_cohort, table, repeats=1, folds=3, seed=5)

    assert [rows for inside, rows in calls if not inside] == [cohort.n_patients] * (matrix.spec.n_windows + 1)
    inside = [rows for inside, rows in calls if inside]
    assert inside and max(inside) <= matrix.cells.shape[0]


@pytest.fixture(scope="module")
def report(small_cohort):
    return run_cv(small_cohort, load_default_score_table(), repeats=2, seed=5)


@pytest.mark.slow
class TestRunCv:
    def test_record_count(self, report):
        assert len(report.records) == 4 * 4 * 3 * 2 * 3  # days x methods x metrics x repeats x folds

    def test_summary_shape_and_ci_order(self, report):
        for day in (2, 3, 4, 5):
            assert set(report.summary[day]) == set(ALL_METHODS)
            for method in ALL_METHODS:
                for metric in ALL_METRICS:
                    cell = report.summary[day][method][metric]
                    assert cell["ci_low"] <= cell["mean"] <= cell["ci_high"]

    def test_p_values_present(self, report):
        for day in (2, 3, 4, 5):
            for baseline in ("saps", "logistic", "exp_survival"):
                for metric in ALL_METRICS:
                    p = report.p_values[day][baseline][metric]
                    assert p is None or 0.0 <= p <= 1.0

    def test_deterministic(self, small_cohort, report):
        again = run_cv(small_cohort, load_default_score_table(), repeats=2, seed=5)
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
