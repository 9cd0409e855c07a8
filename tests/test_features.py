import itertools

import numpy as np
import pytest

from icurisk.cohort import PatientOutcome, RawCohort, RawObservation
from icurisk.features import (
    BINARY,
    NUMERIC,
    ClusterModel,
    FeatureMatrix,
    FeatureSpec,
    Medians,
    ScoreBin,
    ScoreTable,
    _build_swap_medoids,
    compute_medians,
    discretize_scores,
    encode_observations,
    gower_matrix,
    impute_median,
    load_default_score_table,
    missingness_indicators,
    numeric_ranges,
    pam_cluster,
    silhouette,
    window_segment,
)
from oracles import gower_distance

HR_TABLE = ScoreTable(
    {"heart_rate": [ScoreBin(0, 40, 11), ScoreBin(40, 70, 2), ScoreBin(70, 120, 0), ScoreBin(120, 160, 4)]},
    default_score=7,
)


def make_cohort(offset_values, variable="heart_rate", event_hours=48.0):
    obs = sorted(
        (RawObservation("p1", variable, off, val) for off, val in offset_values),
        key=lambda o: o.offset_minutes,
    )
    return RawCohort(
        patients={"p1": list(obs)},
        outcomes={"p1": PatientOutcome("p1", event_hours, False)},
    )


class TestScoreTable:
    def test_bin_lookup_half_open(self):
        assert HR_TABLE.score_value("heart_rate", 119.9) == 0
        assert HR_TABLE.score_value("heart_rate", 120.0) == 4

    def test_out_of_range_uses_default(self):
        assert HR_TABLE.score_value("heart_rate", 500.0) == 7

    def test_overlapping_bins_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ScoreTable({"x": [ScoreBin(0, 10, 1), ScoreBin(5, 15, 2)]}, 0)

    def test_default_table_round_trips(self):
        table = load_default_score_table()
        again = ScoreTable.from_json_obj(table.to_json_obj())
        assert again.to_json_obj() == table.to_json_obj()

    def test_missing_default_score_rejected(self):
        with pytest.raises(ValueError, match="default_score"):
            ScoreTable.from_json_obj({"x": [{"lower": 0, "upper": 1, "score": 0}]})


class TestWindowing:
    def test_12h_windows_gives_two(self):
        spec = FeatureSpec(("heart_rate",), 12)
        assert spec.n_windows == 2

    def test_boundary_sample_belongs_to_later_window(self):
        spec = FeatureSpec(("heart_rate",), 12)
        cohort = make_cohort([(720, 80.0)])
        windows = window_segment(cohort, spec)["p1"]
        assert windows[0]["heart_rate"] == []
        assert windows[1]["heart_rate"] == [80.0]

    def test_sample_at_1440_discarded(self):
        spec = FeatureSpec(("heart_rate",), 12)
        windows = window_segment(make_cohort([(1440, 80.0)]), spec)["p1"]
        assert all(not w["heart_rate"] for w in windows)

    def test_each_retained_sample_lands_in_exactly_one_window(self):
        spec = FeatureSpec(("heart_rate",), 8)
        rng = np.random.default_rng(3)
        offsets = rng.integers(0, 1500, 200)
        cohort = make_cohort([(int(o), 80.0) for o in offsets])
        windows = window_segment(cohort, spec)["p1"]
        retained = sum(len(w["heart_rate"]) for w in windows)
        assert retained == int((offsets < 60 * 8 * spec.n_windows).sum())


class TestDiscretization:
    SPEC = FeatureSpec(("heart_rate",), 12)

    def test_worst_case_is_max(self):
        cohort = make_cohort([(10, 60.0), (20, 80.0), (30, 130.0)])  # scores 2, 0, 4
        y = discretize_scores(window_segment(cohort, self.SPEC), HR_TABLE, self.SPEC)
        assert y[0, 0, 0] == 4

    def test_single_sample(self):
        cohort = make_cohort([(10, 60.0)])
        y = discretize_scores(window_segment(cohort, self.SPEC), HR_TABLE, self.SPEC)
        assert y[0, 0, 0] == 2

    def test_empty_window_is_missing_with_zero_indicator(self):
        cohort = make_cohort([(10, 60.0)])
        windowed = window_segment(cohort, self.SPEC)
        y = discretize_scores(windowed, HR_TABLE, self.SPEC)
        b = missingness_indicators(windowed, self.SPEC)
        assert np.isnan(y[0, 1, 0])
        assert b[0, 1, 0] == 0 and b[0, 0, 0] == 1

    def test_variable_missing_from_table_is_config_error(self):
        spec = FeatureSpec(("unknown_var",), 12)
        cohort = make_cohort([(10, 60.0)], variable="unknown_var")
        with pytest.raises(ValueError, match="score table"):
            discretize_scores(window_segment(cohort, spec), HR_TABLE, spec)

    def test_worst_case_dominates_every_sample(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(20, 200, 30)
        cohort = make_cohort([(int(i), float(v)) for i, v in enumerate(values)])
        y = discretize_scores(window_segment(cohort, self.SPEC), HR_TABLE, self.SPEC)
        scores = [HR_TABLE.score_value("heart_rate", v) for v in values]
        assert y[0, 0, 0] == max(scores)


class TestImputation:
    def _matrix(self, column, spec=None):
        spec = spec or FeatureSpec(("v",), 12)
        y = np.array(column, dtype=float).reshape(-1, spec.n_windows, 1)
        b = (~np.isnan(y)).astype(np.uint8)
        ids = [f"p{i}" for i in range(y.shape[0])]
        return FeatureMatrix(ids, spec, y, b)

    def test_odd_count_median_fills(self):
        m = self._matrix([[0, 0], [2, 0], [7, 0], [np.nan, 0]])
        out = impute_median(m, compute_medians(m))
        assert out.y[3, 0, 0] == 2

    def test_half_median_rounds_up(self):
        m = self._matrix([[1, 0], [2, 0], [np.nan, 0]])
        out = impute_median(m, compute_medians(m))
        assert out.y[2, 0, 0] == 2  # median 1.5 rounds half-up

    def test_no_missing_is_identity(self):
        m = self._matrix([[1, 3], [2, 4]])
        out = impute_median(m, compute_medians(m))
        assert np.array_equal(out.y, m.y)

    def test_indicators_never_imputed(self):
        m = self._matrix([[np.nan, 1]])
        medians = Medians(cell=np.array([[2.0], [2.0]]), overall=np.array([2.0]))
        out = impute_median(m, medians)
        assert out.b[0, 0, 0] == 0

    def test_empty_cell_falls_back_to_overall_median(self):
        m = self._matrix([[np.nan, 4], [np.nan, 2]])
        out = impute_median(m, compute_medians(m))
        assert out.y[0, 0, 0] == 3  # overall median of {4, 2}

    def test_never_observed_variable_errors(self):
        m = self._matrix([[np.nan, np.nan]])
        with pytest.raises(ValueError, match="impute"):
            impute_median(m, compute_medians(m))

    def test_prediction_reuses_training_medians(self):
        train = self._matrix([[0, 0], [2, 0], [7, 0]])
        medians = compute_medians(train)
        new = self._matrix([[np.nan, 1]])
        out = impute_median(new, medians)
        assert out.y[0, 0, 0] == 2


class TestGower:
    def test_identical_rows_zero(self):
        kinds = (NUMERIC, BINARY)
        assert gower_distance([1.0, 1.0], [1.0, 1.0], kinds, [5.0, 0.0]) == 0.0

    def test_binary_mismatch_share(self):
        kinds = (NUMERIC, NUMERIC, BINARY, BINARY)
        d = gower_distance([1, 2, 0, 1], [1, 2, 1, 0], kinds, [4.0, 4.0, 0.0, 0.0])
        assert d == pytest.approx(2 / 4)

    def test_single_numeric_column(self):
        assert gower_distance([3.0], [8.0], (NUMERIC,), [10.0]) == pytest.approx(0.5)

    def test_zero_range_column_contributes_nothing(self):
        d = gower_distance([3.0, 1.0], [8.0, 1.0], (NUMERIC, NUMERIC), [10.0, 0.0])
        assert d == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gower_distance([1.0], [1.0, 2.0], (NUMERIC,), [1.0])

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(12)
        kinds = (NUMERIC, NUMERIC, BINARY)
        rows = np.column_stack(
            [rng.uniform(0, 9, 40), rng.uniform(0, 9, 40), rng.integers(0, 2, 40)]
        ).astype(float)
        ranges = numeric_ranges(rows, kinds)
        for _ in range(100):
            i, j = rng.integers(0, 40, 2)
            d_ij = gower_distance(rows[i], rows[j], kinds, ranges)
            d_ji = gower_distance(rows[j], rows[i], kinds, ranges)
            assert d_ij == d_ji
            assert 0.0 <= d_ij <= 1.0
            if d_ij == 0.0:
                assert np.array_equal(rows[i], rows[j])

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(4)
        kinds = (NUMERIC, BINARY)
        rows = np.column_stack([rng.uniform(0, 5, 10), rng.integers(0, 2, 10)]).astype(float)
        ranges = numeric_ranges(rows, kinds)
        mat = gower_matrix(rows, rows, kinds, ranges)
        for i in range(10):
            for j in range(10):
                assert mat[i, j] == pytest.approx(
                    gower_distance(rows[i], rows[j], kinds, ranges), abs=1e-15
                )


class TestPam:
    def test_k_equals_rows_costs_nothing(self):
        rows = np.array([[0.0], [1.0], [10.0]])
        _, labels, cost = pam_cluster(rows, 3)
        assert cost == 0.0
        assert sorted(labels) == [1, 2, 3]

    def test_single_medoid_of_three_points(self):
        rows = np.array([[0.0], [1.0], [10.0]])
        model, _, _ = pam_cluster(rows, 1)
        assert model.medoids[0, 0] == 1.0  # brute force over the 3 candidates

    def test_two_medoids_of_three_points(self):
        rows = np.array([[0.0], [1.0], [10.0]])
        model, _, cost = pam_cluster(rows, 2)
        assert cost == pytest.approx(0.1)
        assert 10.0 in model.medoids

    def test_k_above_distinct_rows_rejected(self):
        rows = np.array([[1.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="distinct"):
            pam_cluster(rows, 3)

    def test_small_scale_matches_brute_force(self):
        rng = np.random.default_rng(2718)
        for _ in range(60):
            n = int(rng.integers(3, 13))
            k = int(rng.integers(1, min(3, n) + 1))
            rows = rng.uniform(0, 10, (n, int(rng.integers(1, 4))))
            kinds = (NUMERIC,) * rows.shape[1]
            ranges = numeric_ranges(rows, kinds)
            _, _, cost = pam_cluster(rows, k, kinds=kinds, ranges=ranges)
            dist = gower_matrix(rows, rows, kinds, ranges)
            best = min(
                dist[:, list(c)].min(axis=1).sum()
                for c in itertools.combinations(range(n), k)
            )
            assert cost == pytest.approx(best, abs=1e-12)

    def test_swap_cost_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows = rng.uniform(0, 10, (40, 3))
            kinds = (NUMERIC,) * 3
            ranges = numeric_ranges(rows, kinds)
            dist = gower_matrix(rows, rows, kinds, ranges)
            trace = []
            _build_swap_medoids(dist, np.ones(40), 3, trace=trace)
            assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_medoids_are_training_rows(self):
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 5, (50, 4)).astype(float)
        model, _, _ = pam_cluster(rows, 3)
        row_set = {tuple(r) for r in rows}
        assert all(tuple(m) in row_set for m in model.medoids)

    def test_subsampled_fit_is_deterministic(self):
        rng = np.random.default_rng(7)
        rows = rng.uniform(0, 10, (300, 2))
        a = pam_cluster(rows, 3, seed=1, max_fit_rows=100)
        b = pam_cluster(rows, 3, seed=1, max_fit_rows=100)
        assert np.array_equal(a[0].medoids, b[0].medoids)
        assert np.array_equal(a[1], b[1])


class TestEncoding:
    MODEL = ClusterModel(
        medoids=np.array([[0.0], [4.0], [8.0]]),
        kinds=(NUMERIC,),
        ranges=np.array([8.0]),
    )

    def test_sequences_follow_assignments(self):
        spec = FeatureSpec(("v",), 12)
        y = np.array([[[8.0], [0.0]]])
        m = FeatureMatrix(["p1"], spec, y, np.ones_like(y, dtype=np.uint8))
        assert encode_observations(self.MODEL, m).tolist() == [[3, 1]]

    def test_row_equal_to_medoid_gets_its_cluster(self):
        assert self.MODEL.assign(np.array([[4.0]]))[0] == 2

    def test_equidistant_row_takes_lower_cluster(self):
        assert self.MODEL.assign(np.array([[2.0]]))[0] == 1

    def test_assignment_is_pure(self):
        rng = np.random.default_rng(13)
        rows = rng.uniform(0, 8, (30, 1))
        once = self.MODEL.assign(rows)
        again = self.MODEL.assign(rows)
        assert np.array_equal(once, again)


def test_silhouette_prefers_true_structure():
    rng = np.random.default_rng(21)
    rows = np.vstack([
        rng.normal(0, 0.3, (20, 2)),
        rng.normal(5, 0.3, (20, 2)),
    ])
    kinds = (NUMERIC, NUMERIC)
    ranges = numeric_ranges(rows, kinds)
    _, labels2, _ = pam_cluster(rows, 2, kinds=kinds, ranges=ranges)
    _, labels5, _ = pam_cluster(rows, 5, kinds=kinds, ranges=ranges)
    assert silhouette(rows, labels2, kinds, ranges) > silhouette(rows, labels5, kinds, ranges)
