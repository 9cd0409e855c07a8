import itertools
import json
import re

import numpy as np
import pytest

from icurisk import cohort as cohort_module
from icurisk import features as features_module
from icurisk.cohort import RawCohort, window_tables
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
    build_feature_matrix,
    compute_medians,
    encode_observations,
    gower_matrix,
    impute_median,
    load_default_score_table,
    numeric_ranges,
    pam_cluster,
    silhouette,
)
from conftest import cohort_from_rows
import oracles
from oracles import gower_distance, score_value

HR_TABLE = ScoreTable(
    {"heart_rate": [ScoreBin(0, 40, 11), ScoreBin(40, 70, 2), ScoreBin(70, 120, 0), ScoreBin(120, 160, 4)]},
    default_score=7,
)


def make_cohort(offset_values, variable="heart_rate", event_hours=48.0):
    rows = [("p1", variable, off, val) for off, val in offset_values]
    return cohort_from_rows(rows, {"p1": (event_hours, False)})


def feature_matrix(cohort, spec):
    """`build_feature_matrix` of the cohort folded in the spec's windows with its score table."""
    return build_feature_matrix(window_tables(cohort, 60 * spec.window_hours, spec.score_table), spec.variable_names)


GAPPED_TABLE = ScoreTable({"x": [ScoreBin(10, 20, 3), ScoreBin(30, 40, 5)]}, default_score=1)
V_TABLE = ScoreTable({"v": [ScoreBin(0, 10, 0)]}, default_score=1)   # for matrices built from scores


class TestScoreTable:
    def test_bin_lookup_half_open(self):
        assert HR_TABLE.scores("heart_rate", [119.9, 120.0]).tolist() == [0, 4]
        assert HR_TABLE.scores("heart_rate", [0.0, 40.0, 39.999]).tolist() == [11, 2, 11]

    def test_out_of_range_uses_default(self):
        assert HR_TABLE.scores("heart_rate", [500.0, 160.0, -1.0]).tolist() == [7, 7, 7]

    def test_gaps_use_default(self):
        values = [9.99, 10.0, 19.99, 20.0, 25.0, 29.99, 30.0, 40.0]
        assert GAPPED_TABLE.scores("x", values).tolist() == [1, 3, 3, 1, 1, 1, 5, 1]

    def test_matches_scalar_oracle(self):
        table = load_default_score_table()
        for var, bins in table.bins.items():
            edges = [e for b in bins for e in (b.lower, b.upper)]
            values = edges + [np.nextafter(e, -np.inf) for e in edges] + [-1e9, 1e9]
            expected = [score_value(table, var, v) for v in values]
            assert table.scores(var, values).tolist() == expected

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="not in score table"):
            HR_TABLE.scores("gcs", [3.0])

    @pytest.mark.parametrize(
        "table", [HR_TABLE, GAPPED_TABLE, load_default_score_table()], ids=["hr", "gapped", "default"]
    )
    def test_edge_table_matches_scores(self, table):
        variables = tuple(table.bins)
        edges, lut = table.edge_table(variables)
        assert lut.shape == (len(variables), edges.size + 1) and lut.dtype == np.int64
        values = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            (edges[:-1] + edges[1:]) / 2,   # inside bins and in the gaps between them
            [edges[0] - 1e6, edges[0] - 1.0, edges[-1] + 1.0, edges[-1] + 1e6, -0.0, 0.0],
        ])
        for j, var in enumerate(variables):
            looked_up = lut[j, np.searchsorted(edges, values, "right")]
            assert looked_up.tolist() == table.scores(var, values).tolist()

    def test_edge_table_merges_the_edges_of_its_variables_only(self):
        table = ScoreTable({**HR_TABLE.bins, **GAPPED_TABLE.bins}, default_score=7)
        edges, lut = table.edge_table(("x",))
        assert edges.tolist() == [10.0, 20.0, 30.0, 40.0] and lut.tolist() == [[7, 3, 7, 5, 7]]
        edges, lut = table.edge_table(("x", "heart_rate"))
        assert edges.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0, 70.0, 120.0, 160.0]
        assert lut.tolist() == [[7, 7, 3, 7, 5, 7, 7, 7, 7], [7, 11, 11, 11, 11, 2, 0, 4, 7]]

    def test_edge_table_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="variable 'gcs' not in score table"):
            HR_TABLE.edge_table(("heart_rate", "gcs"))

    def test_variable_without_bins_scores_default(self):
        table = ScoreTable({"x": []}, default_score=2)
        assert table.scores("x", [0.0, 5.0]).tolist() == [2, 2]

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

    def test_equal_by_value(self):
        # two loads of one file are equal, and so are the feature specs that hold them
        a, b = load_default_score_table(), ScoreTable.from_json_obj(load_default_score_table().to_json_obj())
        assert a is not b and a == b and hash(a) == hash(b)
        assert FeatureSpec(("gcs",), 12, a) == FeatureSpec(("gcs",), 12, b)
        other = load_default_score_table().to_json_obj()
        other["gcs"][0]["score"] += 1
        assert ScoreTable.from_json_obj(other) != a and HR_TABLE != a and a != a.to_json_obj()
        assert ScoreTable(HR_TABLE.bins, default_score=8) != HR_TABLE

    @pytest.mark.parametrize("field, value", [
        ("score_table.x.1.score", 2.7), ("score_table.x.1.score", "2"), ("score_table.x.1.score", True),
        ("score_table.default_score", 1.5), ("score_table.default_score", None),
    ])
    def test_score_that_is_not_an_integer_rejected(self, field, value):
        obj = {"x": [{"lower": 0, "upper": 1, "score": 0}, {"lower": 1, "upper": 2, "score": 3}], "default_score": 0}
        if field.endswith("default_score"):
            obj["default_score"] = value
        else:
            obj["x"][1]["score"] = value
        message = f"{field} must be an integer, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScoreTable.from_json_obj(obj)


    @pytest.mark.parametrize("key, value", [
        ("lower", True), ("lower", "0"), ("upper", "5"), ("upper", None), ("upper", False),
    ])
    def test_bound_that_is_not_a_number_rejected(self, key, value):
        obj = {"x": [{"lower": 0, "upper": 1, "score": 0}, {"lower": 1, "upper": 2, "score": 3}], "default_score": 0}
        obj["x"][1][key] = value
        message = f"score_table.x.1.{key} must be a number, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScoreTable.from_json_obj(obj)

    @pytest.mark.parametrize("key", ["lower", "upper", "score"])
    def test_missing_bin_field_named(self, key):
        obj = {"x": [{"lower": 0, "upper": 1, "score": 0}, {"lower": 1, "upper": 2, "score": 3}], "default_score": 0}
        del obj["x"][1][key]
        what = "an integer" if key == "score" else "a number"
        with pytest.raises(ValueError, match=rf"^score_table\.x\.1\.{key} must be {what}, got null$"):
            ScoreTable.from_json_obj(obj)

    @pytest.mark.parametrize("bins, message", [
        (5, "score_table.gcs must be a list of bins, got 5"),
        ({"lower": 0}, 'score_table.gcs must be a list of bins, got {"lower": 0}'),
        ("abc", 'score_table.gcs must be a list of bins, got "abc"'),
        ([3], "score_table.gcs.0 must be an object, got 3"),
        ([{"lower": 0, "upper": 1, "score": 0}, None], "score_table.gcs.1 must be an object, got null"),
    ], ids=["number", "object", "string", "list-of-numbers", "null-bin"])
    def test_bins_that_are_not_a_list_of_objects_named(self, bins, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScoreTable.from_json_obj({"gcs": bins, "default_score": 0})

    @pytest.mark.parametrize("obj", [[], 5], ids=["list", "number"])
    def test_table_that_is_not_an_object_with_a_default_score_rejected(self, obj):
        with pytest.raises(ValueError, match="^score table is not an object with a 'default_score'$"):
            ScoreTable.from_json_obj(obj)


class TestWindowing:
    def test_12h_windows_gives_two(self):
        spec = FeatureSpec(("heart_rate",), 12, HR_TABLE)
        assert spec.n_windows == 2

    def test_boundary_sample_belongs_to_later_window(self):
        cohort = make_cohort([(719, 60.0), (720, 80.0)])
        worst = window_tables(cohort, 720, HR_TABLE).worst
        assert worst[0, :, 0].tolist() == [2, 0]   # 60 scores 2, 80 scores 0
        scores = feature_matrix(cohort, FeatureSpec(("heart_rate",), 12, HR_TABLE)).scores
        assert (scores[0, :, 0] >= 0).tolist() == [True, True]

    def test_sample_at_1440_discarded(self):
        cohort = make_cohort([(1439, 80.0), (1440, 80.0)])
        assert window_tables(cohort, 720).worst[0, :, 0].tolist() == [-1, 0]
        # 7 h windows end with a shortened fourth, [1260, 1440), where 1440 // 420 would land
        late = window_tables(make_cohort([(1440, 80.0)]), 420)
        assert late.seen.tolist() == [[True]] and late.worst[0, :, 0].tolist() == [-1] * 4

    def test_each_retained_sample_lands_in_exactly_one_window(self):
        # one patient per sample, so each window table row shows where its sample went
        spec = FeatureSpec(("heart_rate",), 8, HR_TABLE)
        rng = np.random.default_rng(3)
        offsets = rng.integers(0, 1500, 200)
        ids = [f"p{i:03d}" for i in range(offsets.size)]
        cohort = cohort_from_rows(
            [(pid, "heart_rate", int(o), 80.0) for pid, o in zip(ids, offsets)],
            {pid: (48.0, False) for pid in ids},
        )
        marked = window_tables(cohort, 60 * 8).worst[:, :, 0] >= 0
        retained = offsets < 60 * 8 * spec.n_windows
        assert marked.sum(axis=1).tolist() == retained.astype(int).tolist()
        assert np.array_equal(marked.argmax(axis=1)[retained], offsets[retained] // (60 * 8))

    def test_other_variables_dropped(self):
        cohort = cohort_from_rows(
            [("p1", "gcs", 5, 9.0), ("p1", "heart_rate", 6, 80.0)], {"p1": (48.0, False)}
        )
        table = load_default_score_table()
        scores = window_tables(cohort, 720, table).scores(("heart_rate", "age"))
        assert scores.tolist() == [[[table.scores("heart_rate", [80.0])[0], -1], [-1, -1]]]


class TestDiscretization:
    SPEC = FeatureSpec(("heart_rate",), 12, HR_TABLE)

    def test_worst_case_is_max(self):
        cohort = make_cohort([(10, 60.0), (20, 80.0), (30, 130.0)])  # scores 2, 0, 4
        y = feature_matrix(cohort, self.SPEC).scores
        assert y[0, 0, 0] == 4

    def test_single_sample(self):
        cohort = make_cohort([(10, 60.0)])
        y = feature_matrix(cohort, self.SPEC).scores
        assert y[0, 0, 0] == 2

    def test_empty_window_is_missing_with_zero_indicator(self):
        cohort = make_cohort([(10, 60.0)])
        matrix = feature_matrix(cohort, self.SPEC)
        assert matrix.scores[0, 1, 0] == -1 and matrix.scores[0, 0, 0] == 2
        assert matrix.cells.dtype == np.int64

    def test_variable_missing_from_table_is_config_error(self):
        spec = FeatureSpec(("unknown_var",), 12, HR_TABLE)
        cohort = make_cohort([(10, 60.0)], variable="unknown_var")
        with pytest.raises(ValueError, match="score table"):
            feature_matrix(cohort, spec)

    def test_worst_case_dominates_every_sample(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(20, 200, 30)
        cohort = make_cohort([(int(i), float(v)) for i, v in enumerate(values)])
        y = feature_matrix(cohort, self.SPEC).scores
        scores = [score_value(HR_TABLE, "heart_rate", v) for v in values]
        assert y[0, 0, 0] == max(scores)


class TestOnePass:
    TABLE = load_default_score_table()

    def test_chunks_do_not_change_the_scores(self, monkeypatch, small_cohort):
        spec = FeatureSpec(tuple(small_cohort.variables), 8, self.TABLE)
        whole = window_tables(small_cohort, 480, self.TABLE).scores(spec.variable_names)
        monkeypatch.setattr(cohort_module, "WINDOW_CHUNK_ROWS", 1000)
        tables = window_tables(small_cohort, 480, self.TABLE)
        chunked = tables.scores(spec.variable_names)
        assert np.array_equal(chunked, whole)
        assert tables.n_rows.tolist() == [len(rows) for rows in small_cohort.patients.values()]
        expected = oracles.discretize_scores(oracles.window_segment(small_cohort, spec), self.TABLE, spec)
        assert np.array_equal(chunked, np.nan_to_num(expected, nan=-1))

    @pytest.mark.parametrize("table", [
        HR_TABLE, GAPPED_TABLE, TABLE,
        ScoreTable({"x": [ScoreBin(i, i + 0.5, i % 7) for i in range(150)]}, default_score=9),   # 300 edges
    ], ids=["hr", "gapped", "default", "wide"])
    def test_fold_scores_each_value_as_the_table(self, table):
        # One patient per value, with a row of every variable at minute 0.
        variables = tuple(table.bins)
        edges, _ = table.edge_table(variables)
        values = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [edges[0] - 1e6, edges[-1] + 1e6, -0.0, 0.0, -np.finfo(float).max, np.finfo(float).max],
        ])
        values = values[np.isfinite(values)]
        n, p = values.size, len(variables)
        cohort = RawCohort(
            [f"p{i}" for i in range(n)], variables, np.repeat(np.arange(n), p), np.tile(np.arange(p), n),
            np.zeros(n * p), np.repeat(values, p), np.full(n, 48.0), np.zeros(n, dtype=bool),
        )
        worst = window_tables(cohort, 720, table).scores(variables)
        for j, var in enumerate(variables):
            assert worst[:, 0, j].tolist() == table.scores(var, values).tolist()
            assert (worst[:, 1, j] == -1).all()

    def test_repeated_variable_gets_its_scores_in_each_column(self, small_cohort):
        names = ("heart_rate", "gcs", "heart_rate")
        tables = window_tables(small_cohort, 720, self.TABLE)
        worst, single = tables.scores(names), tables.scores(("gcs", "heart_rate"))
        assert np.array_equal(worst, single[..., [1, 0, 1]])


class TestImputation:
    def _matrix(self, column):
        spec = FeatureSpec(("v",), 12, V_TABLE)
        y = np.array(column, dtype=float).reshape(-1, spec.n_windows, 1)
        n = y.shape[0]
        scores = np.where(np.isnan(y), -1, y).astype(np.int64)
        return FeatureMatrix.from_scores([f"p{i}" for i in range(n)], spec, scores, np.full(n, 48.0), np.zeros(n, bool))

    @staticmethod
    def _impute(m, medians=None):
        """Each patient's imputed row per window, (N, T, 2p): [y, b]."""
        return impute_median(m, medians or compute_medians(m))[m.cell_of]

    def test_odd_count_median_fills(self):
        m = self._matrix([[0, 0], [2, 0], [7, 0], [np.nan, 0]])
        assert self._impute(m)[3, 0, 0] == 2

    def test_half_median_rounds_up(self):
        m = self._matrix([[1, 0], [2, 0], [np.nan, 0]])
        assert self._impute(m)[2, 0, 0] == 2  # median 1.5 rounds half-up

    def test_no_missing_is_identity(self):
        m = self._matrix([[1, 3], [2, 4]])
        out = self._impute(m)
        assert np.array_equal(out[:, :, :1], m.scores) and np.all(out[:, :, 1:] == 1)

    def test_indicators_never_imputed(self):
        m = self._matrix([[np.nan, 1]])
        medians = Medians(cell=np.array([[2.0], [2.0]]), overall=np.array([2.0]))
        out = self._impute(m, medians)
        assert out[0, 0, 1] == 0 and out[0, 1, 1] == 1

    def test_empty_cell_falls_back_to_overall_median(self):
        m = self._matrix([[np.nan, 4], [np.nan, 2]])
        assert self._impute(m)[0, 0, 0] == 3  # overall median of {4, 2}

    def test_never_observed_variable_errors(self):
        m = self._matrix([[np.nan, np.nan]])
        with pytest.raises(ValueError, match="impute"):
            impute_median(m, compute_medians(m))

    def test_prediction_reuses_training_medians(self):
        train = self._matrix([[0, 0], [2, 0], [7, 0]])
        medians = compute_medians(train)
        new = self._matrix([[np.nan, 1]])
        assert self._impute(new, medians)[0, 0, 0] == 2


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
            _, _, cost = pam_cluster(rows, k, kinds=kinds)
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

    def test_subsampled_fit_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(features_module, "MAX_FIT_ROWS", 100)
        rng = np.random.default_rng(7)
        rows = rng.uniform(0, 10, (300, 2))
        a = pam_cluster(rows, 3, seed=1)
        b = pam_cluster(rows, 3, seed=1)
        assert np.array_equal(a[0].medoids, b[0].medoids)
        assert np.array_equal(a[1], b[1])


class TestEncoding:
    MODEL = ClusterModel(
        medoids=np.array([[0.0], [4.0], [8.0]]),
        kinds=(NUMERIC,),
        ranges=np.array([8.0]),
    )

    def test_sequences_follow_assignments(self):
        spec = FeatureSpec(("v",), 12, V_TABLE)
        m = FeatureMatrix.from_scores(["p1", "p2"], spec, [[[8], [0]], [[0], [0]]], np.full(2, 48.0), np.zeros(2, bool))
        rows = m.cells.astype(float)   # the cells, window by window: [8], [0], [0]
        assert encode_observations(self.MODEL, m, rows).tolist() == [[3, 1], [1, 1]]

    def test_subset_takes_the_outcomes_along(self):
        spec = FeatureSpec(("v",), 12, V_TABLE)
        hours, died = np.array([30.0, 40.0, 50.0]), np.array([True, False, True])
        m = FeatureMatrix.from_scores(["p1", "p2", "p3"], spec, [[[8], [0]], [[0], [0]], [[4], [4]]], hours, died)
        assert m.event_hours is hours and m.died is died
        part = m.subset([2, 0])
        assert part.patient_ids == ["p3", "p1"] and part.spec is spec
        assert part.event_hours.tolist() == [50.0, 30.0] and part.died.tolist() == [True, True]
        assert part.scores.tolist() == [[[4], [4]], [[8], [0]]]

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
    _, labels2, _ = pam_cluster(rows, 2, kinds=kinds)
    _, labels5, _ = pam_cluster(rows, 5, kinds=kinds)
    assert silhouette(rows, labels2, kinds) > silhouette(rows, labels5, kinds)


def test_silhouette_is_the_same_in_small_chunks(monkeypatch):
    rng = np.random.default_rng(22)
    rows = rng.integers(0, 4, (200, 3)).astype(float)
    labels = rng.integers(1, 5, 200)
    kinds = (NUMERIC,) * 3
    whole = silhouette(rows, labels, kinds)
    monkeypatch.setattr(features_module, "SILHOUETTE_CHUNK", 7)
    assert silhouette(rows, labels, kinds) == pytest.approx(whole, rel=1e-12)
