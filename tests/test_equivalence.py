"""The columnar cohort path against the row-by-row oracles in `oracles.py`.

Generated cohorts mix window-boundary offsets (0, 719, 720, 1439, 1440) with
arbitrary ones, score-bin edges with arbitrary values, patients without rows,
empty windows, variables a patient never has, one variable outside the
feature spec and one in the spec that no patient has.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from icurisk.cohort import filter_cohort
from icurisk.evaluation import first_day_max_scores
from icurisk.features import (
    FeatureSpec,
    ScoreBin,
    ScoreTable,
    build_feature_matrix,
    load_default_score_table,
)
from conftest import cohort_from_rows
import oracles

TABLE = load_default_score_table()
DRAWN = ("gcs", "heart_rate", "temperature", "mystery")   # "mystery" is not in the spec
SPEC_VARIABLES = ("age", "gcs", "heart_rate", "temperature")  # no patient has "age"
REQUIRED = ("heart_rate", "gcs")
WINDOW_HOURS = st.sampled_from([1, 5, 7, 8, 12, 24])

EDGES = sorted({e for v in DRAWN[:3] for b in TABLE.bins[v] for e in (b.lower, b.upper)})
VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.sampled_from(EDGES).map(lambda e: math.nextafter(e, -math.inf)),
    st.floats(-50.0, 300.0, allow_nan=False),
)
OFFSETS = st.one_of(st.sampled_from([0, 719, 720, 1439, 1440]), st.integers(0, 3000))
ROW = st.tuples(st.sampled_from(DRAWN), OFFSETS, VALUES)


@st.composite
def cohorts(draw):
    n = draw(st.integers(1, 6))
    outcomes = {
        f"p{i}": (draw(st.sampled_from([5.0, 23.9, 24.0, 48.0])), draw(st.booleans()))
        for i in range(n)
    }
    rows = [
        (pid, var, off, val)
        for pid in outcomes
        for var, off, val in draw(st.lists(ROW, max_size=12))
    ]
    return cohort_from_rows(rows, outcomes)


def assert_matrix_matches_oracle(cohort, spec, table=TABLE):
    matrix = build_feature_matrix(cohort, spec, table)
    windowed = oracles.window_segment(cohort, spec)
    assert matrix.patient_ids == list(windowed)
    y = oracles.discretize_scores(windowed, table, spec)
    assert np.array_equal(matrix.y, y, equal_nan=True)
    assert matrix.b.dtype == np.uint8
    assert np.array_equal(matrix.b, oracles.missingness_indicators(windowed, spec))


@settings(deadline=None)
@given(cohorts(), WINDOW_HOURS)
def test_feature_matrix_matches_oracle(cohort, window_hours):
    assert_matrix_matches_oracle(cohort, FeatureSpec(SPEC_VARIABLES, window_hours))


@settings(deadline=None)
@given(cohorts(), WINDOW_HOURS)
def test_filter_matches_oracle(cohort, window_hours):
    kept = filter_cohort(cohort, REQUIRED, window_hours)
    assert kept.patient_ids == oracles.filter_ids(cohort, REQUIRED, window_hours)
    assert oracles.cohort_rows(kept) == {
        pid: rows for pid, rows in oracles.cohort_rows(cohort).items() if pid in kept.outcomes
    }


@settings(deadline=None)
@given(cohorts())
def test_first_day_max_scores_match_oracle(cohort):
    assert np.array_equal(
        first_day_max_scores(cohort, SPEC_VARIABLES, TABLE),
        oracles.first_day_max_scores(cohort, SPEC_VARIABLES, TABLE),
    )


@st.composite
def tables_and_values(draw):
    """A one-variable table with adjacent bins, gaps and a default score, and
    query values on, just below and just above every edge and out of range."""
    edges = draw(st.lists(st.integers(-100, 100), min_size=2, max_size=8, unique=True))
    edges = sorted(float(e) for e in edges)
    bins = [
        ScoreBin(lo, hi, draw(st.integers(0, 9)))
        for lo, hi in zip(edges, edges[1:])
        if draw(st.booleans())
    ]
    table = ScoreTable({"x": bins}, default_score=draw(st.integers(0, 9)))
    near = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    values = edges + near + [-1e300, 1e300] + draw(st.lists(st.floats(-200, 200)))
    return table, values


@settings(deadline=None)
@given(tables_and_values())
def test_score_lookup_matches_oracle(table_values):
    table, values = table_values
    expected = [oracles.score_value(table, "x", v) for v in values]
    assert table.scores("x", values).tolist() == expected


def test_seeded_cohort_matches_oracles(small_cohort):
    variables = tuple(small_cohort.variables)
    for window_hours in (12, 8):
        kept = filter_cohort(small_cohort, REQUIRED, window_hours)
        assert kept.patient_ids == oracles.filter_ids(small_cohort, REQUIRED, window_hours)
        assert_matrix_matches_oracle(kept, FeatureSpec(variables, window_hours))
    assert np.array_equal(
        first_day_max_scores(small_cohort, variables, TABLE),
        oracles.first_day_max_scores(small_cohort, variables, TABLE),
    )
