"""Library paths against the reference implementations in `oracles.py`.

Generated cohorts for the columnar cohort path mix window-boundary offsets
(0, 719, 720, 1439, 1440) with arbitrary ones, score-bin edges with arbitrary
values, patients without rows, empty windows, variables a patient never has,
one variable outside the feature spec and one in the spec that no patient
has. Generated scored sets for concordance have heavily tied times and
scores, and include all-censored and single-event sets.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icurisk.cohort import filter_cohort
from icurisk.evaluation import ScoredSet, concordance, first_day_max_scores
from icurisk.features import (
    FeatureSpec,
    ScoreBin,
    ScoreTable,
    build_feature_matrix,
    load_default_score_table,
)
from icurisk.hmm import fit_feature_stage
from icurisk.survival import (
    DensityNormalizer,
    TargetSpec,
    censor_by_target,
    compute_priors,
    fit_window_regressions,
    label_hidden_states,
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


@st.composite
def scored_sets(draw):
    """Up to 300 subjects over a few distinct times, with scores on a coarse
    grid or continuous, and no, one or any number of events."""
    n = draw(st.integers(2, 300))
    times = draw(arrays(float, n, elements=st.sampled_from([1.0, 2.0, 3.5, 7.0, 24.0])))
    grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    elements = st.one_of(grid, st.floats(0, 1)) if draw(st.booleans()) else grid
    scores = draw(arrays(float, n, elements=elements))
    kind = draw(st.sampled_from(["any", "none", "single"]))
    if kind == "any":
        events = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    else:
        events = np.zeros(n, dtype=np.int64)
        if kind == "single":
            events[draw(st.integers(0, n - 1))] = 1
    return ScoredSet(scores, events, times, events)


def outcome(fn, s):
    try:
        return fn(s)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None)
@given(scored_sets())
def test_concordance_matches_pairwise_oracle(s):
    assert outcome(concordance, s) == outcome(oracles.concordance_pairs, s)


def test_concordance_memory_is_linear():
    rng = np.random.default_rng(5)
    n = 5000
    events = (rng.random(n) < 0.2).astype(int)
    s = ScoredSet(rng.random(n), events, rng.integers(1, 120, n).astype(float), events)
    tracemalloc.start()
    try:
        concordance(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@st.composite
def labelled_probabilities(draw):
    """Training probabilities with at least two of each class, drawn from a
    few values (heavy ties) or all distinct."""
    n = draw(st.integers(4, 400))
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(0, 1), min_size=1, max_size=8))
        probs = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    else:
        probs = draw(arrays(float, n, elements=st.floats(0, 1), unique=True))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    labels[:2], labels[2:4] = 1, 0
    queries = np.concatenate([probs, draw(arrays(float, 5, elements=st.floats(-0.5, 1.5)))])
    return probs, labels, queries


@settings(deadline=None)
@given(labelled_probabilities())
def test_density_normalizer_matches_all_samples_oracle(case):
    probs, labels, queries = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # far queries hit the dead-zone fallback in both
        got = DensityNormalizer().fit(probs, labels).normalize(queries)
        expected = oracles.normalize_all_samples(probs, labels, queries)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def imputed_training(small_cohort):
    cohort = filter_cohort(small_cohort)
    matrix = build_feature_matrix(cohort, FeatureSpec(tuple(cohort.variables), 12), TABLE)
    outcomes = [cohort.outcomes[pid] for pid in matrix.patient_ids]
    return fit_feature_stage(matrix, 4, seed=[0]).imputed, outcomes


@pytest.mark.parametrize("day", [2, 3, 4, 5])
def test_state_labels_match_all_samples_oracle(imputed_training, day):
    matrix, outcomes = imputed_training
    target = TargetSpec(day, 12)
    fits = fit_window_regressions(matrix, outcomes, target)
    labels = label_hidden_states(matrix, outcomes, fits, target)

    theta = compute_priors(matrix, fits, target)
    _, events = censor_by_target(outcomes, target.target_hours)
    for t in range(theta.shape[1] - 1):
        expected = oracles.normalize_all_samples(theta[:, t], events, theta[:, t])
        assert np.array_equal(labels.states[:, t], expected >= 0.5)
        np.testing.assert_allclose(labels.probabilities[:, t], expected, rtol=1e-12, atol=0)
