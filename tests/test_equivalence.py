"""Library paths against the reference implementations in `oracles.py`.

Generated observations files mix rows the vectorised ingest parses with rows
only the row loop takes: quoted ids holding commas, newlines or quotes, CRLF
line endings, empty lines, offsets with signs, underscores or spaces,
non-ASCII ids and a missing final newline, and, in files that may fail,
non-finite values, a header row in the middle, wrong field counts, huge or
negative offsets and bytes that are not UTF-8. They are parsed with blocks
of a few bytes, so block boundaries fall inside rows, and with one hash
multiplier that makes long ids and names collide. Value fields for the exact
decimal parse are the `repr` of any double and plain decimals of up to 19
digits, and a few over, with the "." anywhere, leading zeros and a "-".

Generated cohorts for the columnar cohort path mix window-boundary offsets
(0, 719, 720, 1439, 1440) with arbitrary ones, score-bin edges with arbitrary
values, patients without rows, empty windows, variables a patient never has,
one variable outside the feature spec and one in the spec that no patient
has. Generated scored sets for concordance have heavily tied times and
scores, and include all-censored and single-event sets. Generated scored
sets for AUROC have mostly tied, all distinct or nearly constant scores,
-0.0 beside 0.0, and may lack a class.

Row sets for the distinct-row grouping mix -0.0 with 0.0 and hold NaN rows,
or are all equal or all distinct; row sets for PAM are small enough for the
exact medoid search or large enough for BUILD/SWAP and, with a lowered
`MAX_FIT_ROWS`, the sample of distinct rows. Labelled rows for the
silhouette hold duplicates, equal rows under different labels and singleton
clusters.

Generated outcomes files mix plain rows with quoted, repeated and non-UTF-8
ids, hours such as `+5`, `1e3`, `nan` and `-0.0`, flags of 0 to 3 bytes,
CRLF, empty lines and a bad header. Generated score matrices for the
medians hold windows and variables with no sample at all.

Synthetic cohorts are generated with 1 to 8 variables (so age is absent,
last or in the middle), 1 to 48 samples a day and no or most samples
missing, and must match the per-patient generator bit for bit. Written
files must match `csv.writer`'s bytes for ids and names that need quoting
and values whose `repr` is unusual; the values the writers lay out must
equal `repr` for any double, seeded bulk sets and edge values.
"""

import csv
import functools
import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icurisk import cohort as cohort_module
from icurisk.cohort import (
    _NEWLINE,
    CohortError,
    ParseError,
    SynthConfig,
    _csv_fields,
    _joined,
    _shortest_decimals,
    _value_pieces,
    filter_cohort,
    generate_synthetic_cohort,
    ingest_outcomes,
    load_cohort,
    window_tables,
    write_observations,
    write_outcomes,
)
from icurisk.evaluation import Outcomes, ScoredSet, _t_upper_tail, aucpr, auroc, concordance, first_day_max_scores
from icurisk import features as features_module
from icurisk import hmm as hmm_module
from icurisk.features import (
    NUMERIC,
    BINARY,
    FeatureMatrix,
    FeatureSpec,
    ScoreBin,
    ScoreTable,
    build_feature_matrix,
    compute_medians,
    distinct_rows,
    gower_matrix,
    impute_median,
    load_default_score_table,
    numeric_ranges,
    pam_cluster,
)
from icurisk.hmm import fit_feature_stage, fit_risk_model, score_patients
from icurisk.survival import (
    BANDWIDTH_FLOOR,
    TargetSpec,
    censor_by_target,
    compute_priors,
    fit_window_regressions,
    label_hidden_states,
    normalize_death_share,
    window_designs,
)
from conftest import assert_same_tables, cohort_from_rows, count_calls, parse_observations, rows_cohort
import oracles

TABLE = load_default_score_table()
DRAWN = ("gcs", "heart_rate", "temperature", "mystery")   # "mystery" is not in the spec
SPEC_VARIABLES = ("age", "gcs", "heart_rate", "temperature")  # no patient has "age"
REQUIRED = ("heart_rate", "gcs")
# A block four times the default, to parse with blocks larger than the default.
LARGE_BLOCK = 1 << 20
# Every array of a RawCohort: the observation columns and the outcome columns.
COLUMNS = ("patient", "variable", "offset_minutes", "value", "event_hours", "died")
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


def assert_matrix_matches_oracle(tables, cohort, spec):
    """The feature matrix of `tables` against the oracles on the rows of
    `cohort`, the RawCohort of the same patients: its spec is `spec`, and
    its outcomes are the tables' arrays, not copies."""
    matrix = build_feature_matrix(tables, spec.variable_names)
    assert matrix.spec == spec
    assert matrix.event_hours is tables.event_hours and matrix.died is tables.died
    assert np.array_equal(matrix.event_hours, cohort.event_hours) and np.array_equal(matrix.died, cohort.died)
    windowed = oracles.window_segment(cohort, spec)
    assert matrix.patient_ids == list(windowed)
    y, b = oracles.patient_scores(matrix)
    assert np.array_equal(y, oracles.discretize_scores(windowed, spec.score_table, spec), equal_nan=True)
    assert np.array_equal(b, oracles.missingness_indicators(windowed, spec))
    # one cell per distinct score tuple of a window, windows ascending, each
    # window's cells in `np.unique` order
    assert matrix.cells.dtype == np.int64
    for t in range(spec.n_windows):
        cells = matrix.cells_in(t)
        assert np.all(matrix.window[cells] == t)
        uniq, inverse = np.unique(matrix.scores[:, t], axis=0, return_inverse=True)
        assert np.array_equal(matrix.cells[cells], uniq.reshape(-1, spec.n_variables))
        assert np.array_equal(matrix.cell_of[:, t] - cells.start, inverse.reshape(-1))


@settings(deadline=None)
@given(cohorts(), WINDOW_HOURS)
def test_feature_matrix_matches_oracle(cohort, window_hours):
    tables = window_tables(cohort, 60 * window_hours, TABLE)
    assert_matrix_matches_oracle(tables, cohort, FeatureSpec(SPEC_VARIABLES, window_hours, TABLE))


@settings(deadline=None)
@given(cohorts(), WINDOW_HOURS)
def test_filter_matches_oracle(cohort, window_hours):
    tables = window_tables(cohort, 60 * window_hours)
    kept = filter_cohort(tables, REQUIRED, window_hours)
    kept_ids = set(oracles.filter_ids(cohort, REQUIRED, window_hours))
    expected = oracles.subset(cohort, [pid in kept_ids for pid in cohort.patient_ids])
    assert_same_tables(kept, window_tables(expected, 60 * window_hours))
    assert kept.variables == expected.variables
    assert kept.patients == {pid: range(len(rows)) for pid, rows in expected.patients.items()}
    # a RawCohort is folded first, alike; the tables the caller kept are unchanged
    assert_same_tables(filter_cohort(cohort, REQUIRED, window_hours), kept)
    assert_same_tables(tables, window_tables(cohort, 60 * window_hours))


@settings(deadline=None)
@given(cohorts(), WINDOW_HOURS)
def test_first_day_max_scores_match_oracle(cohort, window_hours):
    # the max over the windows of any size, whether or not it divides 24 h
    assert np.array_equal(
        first_day_max_scores(window_tables(cohort, 60 * window_hours, TABLE), SPEC_VARIABLES),
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
        tables = window_tables(small_cohort, 60 * window_hours, TABLE)
        kept = filter_cohort(tables, REQUIRED, window_hours)
        kept_ids = oracles.filter_ids(small_cohort, REQUIRED, window_hours)
        assert kept.patient_ids == kept_ids
        expected = oracles.subset(small_cohort, np.isin(small_cohort.patient_ids, kept_ids))
        assert_matrix_matches_oracle(kept, expected, FeatureSpec(variables, window_hours, TABLE))
        assert np.array_equal(
            first_day_max_scores(tables, variables),
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


@st.composite
def shared_truths(draw):
    """One (labels, times, events) truth on up to 200 subjects, with events
    that may be absent, and several score sets on it: heavily tied, mixing
    -0.0 and 0.0, or continuous."""
    n = draw(st.integers(2, 200))
    times = draw(arrays(float, n, elements=st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.5, 7.0, 24.0])))
    events = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    score_sets = []
    for _ in range(draw(st.integers(1, 4))):
        elements = draw(st.sampled_from([
            st.sampled_from([0.0, 1.0]),
            st.sampled_from([-0.0, 0.0, 0.5]),
            st.floats(-1e3, 1e3),
        ]))
        score_sets.append(draw(arrays(float, n, elements=elements)))
    return events, times, score_sets


@settings(deadline=None)
@given(shared_truths())
def test_shared_rankings_match_oracles(truth):
    # Every ScoredSet of a (day, fold) shares one Outcomes: its checks and
    # its time ranking are made once, and each set ranks its scores once.
    events, times, score_sets = truth
    outcomes = Outcomes(events, times, events)
    for scores in score_sets:
        shared = ScoredSet.sharing(outcomes, scores)
        alone = ScoredSet(scores, events, times, events)
        for fn, oracle in (
            (concordance, oracles.concordance_pairs),
            (auroc, oracles.auroc_rankdata),
            (aucpr, oracles.aucpr_stable_argsort),
        ):
            assert outcome(fn, shared) == outcome(oracle, shared) == outcome(fn, alone)


@st.composite
def ranked_sets(draw):
    """Up to 300 subjects whose scores are mostly tied, all distinct or
    nearly constant, with labels that may all be one class."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["tied", "distinct", "near_constant"]))
    if kind == "tied":
        scores = draw(arrays(float, n, elements=st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])))
    elif kind == "distinct":
        scores = draw(arrays(float, n, elements=st.floats(-1e6, 1e6), unique=True))
    else:
        scores = np.full(n, draw(st.sampled_from([-0.0, 0.0, 7.5])))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            scores[i] = draw(st.sampled_from([-0.0, 0.0, -1.0, 1.0]))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return ScoredSet(scores, labels, np.ones(n), labels)


@settings(deadline=None)
@given(ranked_sets())
def test_auroc_matches_rankdata_oracle(s):
    assert outcome(auroc, s) == outcome(oracles.auroc_rankdata, s)


@pytest.mark.parametrize("tau_hours", [24.0, 36.0, 72.0, 120.0, 240.0])
def test_calibration_matches_full_bisection(tau_hours):
    for target in (1e-6, 1e-3, 0.05, 0.15, 0.35, 0.5, 0.9, 0.999):
        got = cohort_module._calibrate_intercept(target, tau_hours)
        assert got == oracles.calibrate_intercept_bisection(target, tau_hours)


def test_t_tail_matches_betainc_oracle():
    t_values = np.linspace(0.0, 40.0, 97).tolist() + [1.7, 1e-8, math.inf, math.nan]
    for nu in range(1, 301):
        for t in t_values + [-t for t in t_values]:
            expected = oracles.t_tail_betainc(t, nu)
            assert _t_upper_tail(t, nu) == pytest.approx(expected, rel=1e-12, abs=0, nan_ok=True)


def test_t_tail_far_out_matches_mpmath():
    # About 1e-20: a cancelling evaluation would lose digits here.
    nu, t = 89, 12.0
    with mpmath.workdps(50):
        x = mpmath.mpf(nu / (nu + t * t))
        expected = float(mpmath.betainc(mpmath.mpf(nu) / 2, 0.5, 0, x, regularized=True) / 2)
    assert _t_upper_tail(t, nu) == pytest.approx(expected, rel=1e-14, abs=0)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([47.99999999999999, 48.0, 72.0, 120.0]), st.floats(1e-300, 1e300)),
            st.booleans(),
        ),
        max_size=40,
    ),
    st.sampled_from([48, 48.0, 72.0, 120]),
)
def test_censoring_matches_loop_oracle(outcomes, target_hours):
    event_hours = np.array([hours for hours, _ in outcomes], dtype=float)
    died = np.array([died for _, died in outcomes], dtype=bool)
    got = censor_by_target(event_hours, died, target_hours)
    expected = oracles.censor_by_target_loop(event_hours, died, target_hours)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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
        got = normalize_death_share(probs, labels, queries)
        expected = oracles.normalize_all_samples(probs, labels, queries)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def imputed_training(small_cohort):
    cohort = filter_cohort(window_tables(small_cohort, 720, TABLE))
    matrix = build_feature_matrix(cohort, cohort.variables)
    return matrix, fit_feature_stage(matrix, 4, seed=[0]).rows, cohort.event_hours, cohort.died


@pytest.mark.parametrize("day", [2, 3, 4, 5])
def test_state_labels_match_all_samples_oracle(imputed_training, day):
    matrix, rows, event_hours, died = imputed_training
    target = TargetSpec(day)
    times, events = censor_by_target(event_hours, died, target.target_hours)
    designs = window_designs(matrix, rows)
    fits = fit_window_regressions(matrix, designs, [times], [events])
    labels = label_hidden_states(matrix, designs, events, fits, target)

    theta = compute_priors(matrix, designs, fits, target)[matrix.cell_of]
    for t in range(theta.shape[1] - 1):
        expected = oracles.normalize_all_samples(theta[:, t], events, theta[:, t])
        assert np.array_equal(labels.states[:, t], expected >= 0.5)
        np.testing.assert_allclose(labels.probabilities[:, t], expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("window_hours", [12, 6, 4])
def test_shared_designs_give_the_per_call_priors(small_cohort, monkeypatch, window_hours):
    """Each window's hazard design, built once per matrix (`window_designs`),
    gives every day's priors the bytes of the oracle that builds the design
    on every call, on the training matrix and on a scored one:
    `fit_risk_model` builds the designs once, and `score_patients` once."""
    cohort = filter_cohort(window_tables(small_cohort, 60 * window_hours, TABLE))
    matrix = build_feature_matrix(cohort, cohort.variables)
    is_test = np.arange(matrix.n_patients) % 3 == 0
    train, test = matrix.subset(np.flatnonzero(~is_test)), matrix.subset(np.flatnonzero(is_test))
    stage = fit_feature_stage(train, 4, seed=[0])
    built = count_calls(monkeypatch, hmm_module, "window_designs")
    model = fit_risk_model(stage, [TargetSpec(day) for day in (2, 3, 4, 5)])
    assert built == {"window_designs": 1}
    scores = score_patients(model, test)
    assert built == {"window_designs": 2}
    assert test.spec.n_windows == 24 // window_hours
    test_rows = impute_median(test, model.medians)
    for day, day_fit in model.days.items():
        for scored, rows in ((train, stage.rows), (test, test_rows)):
            expected = oracles.compute_priors_per_cell(scored, rows, day_fit.fits, day_fit.target)
            theta = compute_priors(scored, window_designs(scored, rows), day_fit.fits, day_fit.target)
            assert theta.tobytes() == expected.tobytes()
        assert scores[day].priors.tobytes() == expected[test.cell_of].tobytes()


def test_cell_path_matches_per_patient_oracle():
    """Training on 4,000 synthetic patients (the benchmark's settings) and
    scoring others, once per window cell, gives the per-patient oracle's
    medoids, sequences, state labels and hazard coefficient bytes, and its
    risks within 1e-12 (the oracle's priors come from a BLAS product)."""
    cohort = filter_cohort(window_tables(generate_synthetic_cohort(SynthConfig(
        n_patients=4000, n_variables=5, prevalence_target=0.15, missing_rate=0.1,
        sampling_rate_per_hour=1.0, seed=1,
    )), 720, TABLE))
    matrix = build_feature_matrix(cohort, cohort.variables)
    is_test = np.arange(matrix.n_patients) % 3 > 0
    train, test = matrix.subset(np.flatnonzero(~is_test)), matrix.subset(np.flatnonzero(is_test))
    hours, died = cohort.event_hours[~is_test], cohort.died[~is_test]
    targets = [TargetSpec(day) for day in (2, 3, 4, 5)]
    stage = fit_feature_stage(train, 4, seed=[0])
    model = fit_risk_model(stage, targets)
    scores = score_patients(model, test)

    medians, cluster, sequences, days = oracles.risk_model_per_patient(train, hours, died, targets, 4, seed=[0])
    assert stage.cluster.medoids.tobytes() == cluster.medoids.tobytes()
    assert np.array_equal(stage.sequences, sequences)
    for target in targets:
        day = target.target_day
        betas, states, emissions = days[day]
        assert [f.beta.tobytes() for f in model.days[day].fits] == [beta.tobytes() for beta in betas]
        _, events = censor_by_target(hours, died, target.target_hours)
        labels = label_hidden_states(train, window_designs(train, stage.rows), events, model.days[day].fits, target)
        assert np.array_equal(labels.states, states)
        eta, test_sequences = oracles.score_per_patient(test, medians, cluster, betas, emissions, target)
        assert np.array_equal(scores[day].sequences, test_sequences)
        np.testing.assert_allclose(scores[day].eta, eta, rtol=0, atol=1e-12)


PLAIN_IDS = ["p1", "p2", "p10", "", " p1", "patient_000000001", "xatient_000000001"]
PLAIN_NAMES = ["heart_rate", "gcs", "blood_pressure_systolic"]
PLAIN_OFFSETS = st.one_of(st.integers(0, 3000).map(str), st.sampled_from(["007", "9" * 18]))
PLAIN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["1_0", " 1.5", "1.5 ", "\x0b1", "-0", ".5", "5.", "1e5", "4.9e-324", "1e-400"]),
)
# Valid fields that only the row loop takes.
QUOTED_IDS = ['"p,3"', '"p\n4"', '"p""5"', '"p1"', "pé", "患者"]
QUOTED_NAMES = ['"g,cs"', "température"]
SIGNED_OFFSETS = st.sampled_from(["+5", "1_0", " 5", "5 ", "-0"])
# Fields the parser must reject.
BAD_IDS = ['"p\r6"', "p7\r"]
BAD_OFFSETS = st.sampled_from(["-5", "abc", "", "1.5", "9" * 19, str(2**63), str(2**64), "１"])
BAD_VALUES = st.sampled_from(["nan", "inf", "-inf", "1e500", "x", "", "0x10", "\x1c1", "1__0"])
HEADER = "patient_id,variable,offset_minutes,value"


@st.composite
def observation_files(draw):
    """The bytes of an observations file: "plain" ones hold only rows the
    block parser takes, "valid" ones any rows the row loop accepts, and
    "bad" and "any" ones may have to be rejected."""
    kind = draw(st.sampled_from(["plain", "valid", "bad", "any"]))
    quoted, bad = kind in ("valid", "any"), kind in ("bad", "any")
    ids, names, offsets, values = PLAIN_IDS, PLAIN_NAMES, PLAIN_OFFSETS, PLAIN_VALUES
    if quoted:
        ids, names = ids + QUOTED_IDS, names + QUOTED_NAMES
        offsets = st.one_of(offsets, SIGNED_OFFSETS)
    if bad:
        ids = ids + BAD_IDS
        offsets, values = st.one_of(offsets, BAD_OFFSETS), st.one_of(values, BAD_VALUES)
    rows = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(names), offsets, values), max_size=40
    ))
    if draw(st.booleans()):   # patients grouped and offsets ascending, as write_observations leaves them
        rows.sort(key=lambda r: (r[0], int(r[2]) if r[2].strip().lstrip("+-").isdigit() else 0))
    lines = [",".join(row) for row in rows]
    extras = [""] * quoted + [HEADER, "p1,gcs,5", "p1,gcs,5,1,2"] * bad
    for extra in draw(st.lists(st.sampled_from(extras), max_size=2)) if extras else []:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\r\n"])) if quoted else "\n"
    text = newline.join([HEADER] + lines) + (newline if draw(st.booleans()) else "")
    data = text.encode()
    if bad and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def ingest_outcome(ingest, stream):
    try:
        return ingest(stream)
    except Exception as exc:  # compared with the oracle's
        return exc


def assert_ingest_matches_oracle(make_stream):
    got = ingest_outcome(parse_observations, make_stream())
    expected = ingest_outcome(oracles.ingest_rows, make_stream())
    if isinstance(expected, UnicodeDecodeError):
        assert isinstance(got, ParseError)   # the row loop names the line instead
    elif isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert not isinstance(got, Exception), got
        assert_same_columns(got, expected)


def assert_same_columns(got, expected):
    assert got.keys() == expected.keys()
    assert got["patient_ids"] == expected["patient_ids"]
    assert got["vocabulary"] == expected["vocabulary"]
    for name in ("patient", "variable", "offset_minutes", "value"):
        a, b = got[name], expected[name]
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()   # bit for bit: -0.0 is not 0.0


@settings(deadline=None)
@given(
    observation_files(),
    st.sampled_from([1, 2, 3, 5, 8, 13, 64, cohort_module.BLOCK_BYTES]),
    st.booleans(),
)
def test_ingest_matches_row_oracle(data, block_bytes, collide):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
        if collide:   # every multi-word id or name hashes to its last word
            mp.setattr(cohort_module, "_MIX", np.uint64(0))
        assert_ingest_matches_oracle(lambda: io.BytesIO(data))


def test_written_cohort_matches_row_oracle(small_cohort, tmp_path, monkeypatch):
    path = tmp_path / "observations.csv"
    write_observations(small_cohort, path)
    data = path.read_bytes()
    for block_bytes in (64, 4096, cohort_module.BLOCK_BYTES):
        monkeypatch.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
        assert_ingest_matches_oracle(lambda: io.BytesIO(data))


@pytest.mark.parametrize("block_bytes", [8, cohort_module.BLOCK_BYTES, LARGE_BLOCK])
@pytest.mark.parametrize(
    "body",
    [
        b"p1,gcs,5,1\np1,gcs," + b"9" * 18 + b",1\n",     # the longest offset parsed in blocks
        b"p1,gcs,5,1\np1,gcs," + b"9" * 19 + b",1\n",     # past int64: rejected by the row loop
        b"p1,gcs,5,1\np2,gcs," + str(2**64).encode() + b",1\n",
        b"p1,gcs,5,1\np7\r,gcs,5,1\n",                     # a bare CR ends a record
        b"p1,gcs,5,1\r\np1,gcs,6,2\r\n",
        b"p1,gcs,5,1e500\n",
        b"p1,gcs,5,1\n\np1,gcs,6,2",
        b"p1,gcs,5,1\np1,gcs,5,1,2\n",
        b"p1,gcs,5,1\np1," + b"g" * 65 + b",5,1\n",          # a field longer than the block parser takes
        b"p2,gcs,9,1\np1,gcs,5,1\np2,gcs,3,1\n",           # not in order: sorted like the row loop
    ],
)
def test_ingest_edge_files_match_row_oracle(body, block_bytes, monkeypatch):
    monkeypatch.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
    data = HEADER.encode() + b"\n" + body
    assert_ingest_matches_oracle(lambda: io.BytesIO(data))


@st.composite
def decimal_texts(draw):
    """1 to 19 digits with a "." anywhere or nowhere, maybe a "-" and
    leading zeros."""
    digits = draw(st.text("0123456789", min_size=1, max_size=19))
    if draw(st.booleans()):
        digits = "0" * draw(st.integers(1, 19 - len(digits) + 1)) + digits
    at = draw(st.integers(0, len(digits)))
    text = digits[:at] + "." + digits[at:] if draw(st.booleans()) else digits
    return "-" + text if draw(st.booleans()) else text


# Value fields for the exact decimal parse: `repr` of any double (exponent
# forms included), and plain decimals of up to 19 digits and a little over.
DECIMAL_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map(repr),
    decimal_texts(),
)


def values_file(values):
    lines = [f"p{i // 3},gcs,{i},{value}" for i, value in enumerate(values)]
    return (HEADER + "\n" + "\n".join(lines) + "\n").encode()


@settings(deadline=None)
@given(st.lists(DECIMAL_VALUES, min_size=1, max_size=60), st.sampled_from([64, cohort_module.BLOCK_BYTES]))
def test_decimal_values_match_row_oracle(values, block_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
        assert_ingest_matches_oracle(lambda: io.BytesIO(values_file(values)))


# 9339577516203898 / 10**14, rounded to a 64-bit significand, is the
# midpoint of two float64s. The decimal lies just above it, so `float` gives
# the upper one; rounding the long double to float64 (ties to even) gives
# the lower one. Found by searching decimals near float64 midpoints.
DOUBLE_ROUNDING = "93.39577516203898"
EDGE_VALUES = [
    "-0.0", "1.", ".5", "-.5", "9007199254740993", "-9007199254740993",
    str(2**63), "9999999999999999999", "-9999999999999999999", "999999999999999999.9", "0.000000000000000001",
    "0000000000000000001", "1e-05", "+1.5", "1_0", "12345678901234567890", "1234567890123456789.0",
    "0.30000000000000004", "5e-324", "1.7976931348623157e+308", DOUBLE_ROUNDING,
]


@pytest.mark.parametrize("block_bytes", [64, cohort_module.BLOCK_BYTES, LARGE_BLOCK])
@pytest.mark.parametrize("bad", [None, "nan", "-", ".", "1.2.3", "1..", "-.", "inf", "--1"])
def test_decimal_edge_values_match_row_oracle(bad, block_bytes, monkeypatch):
    monkeypatch.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
    values = EDGE_VALUES + [bad] * (bad is not None)
    assert_ingest_matches_oracle(lambda: io.BytesIO(values_file(values)))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="the case is for a 64-bit significand")
def test_double_rounding_case_is_read_exactly():
    mantissa, places = int(DOUBLE_ROUNDING.replace(".", "")), len(DOUBLE_ROUNDING.split(".")[1])
    quotient = np.longdouble(mantissa) / np.longdouble(10**places)
    assert float(quotient) != float(DOUBLE_ROUNDING)   # the midpoint check is what keeps it right
    parsed = parse_observations(io.BytesIO(values_file([DOUBLE_ROUNDING])))
    assert parsed["value"].tolist() == [float(DOUBLE_ROUNDING)]


def test_values_without_long_double_match_row_oracle(small_cohort, tmp_path, monkeypatch):
    # Where np.longdouble has fewer than 64 significant bits, every value
    # goes through `astype`.
    monkeypatch.setattr(cohort_module, "_EXACT_QUOTIENTS", False)
    path = tmp_path / "observations.csv"
    write_observations(small_cohort, path)
    for data in (path.read_bytes(), values_file(EDGE_VALUES)):
        for block_bytes in (64, cohort_module.BLOCK_BYTES):
            monkeypatch.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
            assert_ingest_matches_oracle(lambda: io.BytesIO(data))


class Unseekable(io.RawIOBase):
    """A binary stream that cannot seek, as a pipe is."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


def columns_test_file(layout):
    """An observations file of 300 rows, the first 20 longer than the rest:
    "sorted", with a quoted row that sends the "row_loop_tail" to the row
    loop, or "unsorted"."""
    rng = np.random.default_rng(8)
    values = [repr(v) for v in rng.normal(80, 20, 20).tolist()] + [str(v) for v in range(280)]
    names = ("hr", "gcs", "heart_rate")
    lines = [f"p{i // 7},{names[i % 3]},{(i % 7) * 200},{v}" for i, v in enumerate(values)]
    if layout == "row_loop_tail":
        lines.insert(150, '"p,q",gcs,5,1')
    elif layout == "unsorted":
        lines[20:] = rng.permutation(lines[20:]).tolist()
    return (HEADER + "\n" + "\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("block_bytes", [64, cohort_module.BLOCK_BYTES, LARGE_BLOCK])
@pytest.mark.parametrize("layout", ["sorted", "row_loop_tail", "unsorted"])
@pytest.mark.parametrize("kind", ["binary_file", "bytes_io", "unseekable"])
def test_parsed_parts_match_row_oracle(kind, layout, block_bytes, tmp_path, monkeypatch):
    data = columns_test_file(layout)
    path = tmp_path / "observations.csv"
    path.write_bytes(data)
    streams = {
        "binary_file": lambda: open(path, "rb"),
        "bytes_io": lambda: io.BytesIO(data),
        "unseekable": lambda: Unseekable(data),
    }
    monkeypatch.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(cohort_module, "_ROW_LOOP_CHUNK", 16)
    with streams[kind]() as stream:
        got = parse_observations(stream)
    assert_same_columns(got, oracles.ingest_rows(io.BytesIO(data)))


def assert_same_cohort_bits(got, expected):
    assert got.patient_ids == expected.patient_ids
    assert got.vocabulary == expected.vocabulary
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.event_hours.dtype == np.float64 and got.died.dtype == bool


# Samples a day: 1 (a 1440-minute interval, or a vast one whose offsets
# reach about 6e17 minutes), 12, 24 and 48.
SAMPLING_RATES = [1e-16, 1 / 24, 0.5, 1.0, 2.0]


@settings(deadline=None)
@given(
    st.integers(1, 50),
    st.integers(1, 8),
    st.sampled_from(SAMPLING_RATES),
    st.sampled_from([0.0, 0.9]),
    st.sampled_from([0.05, 0.35]),
    st.integers(0, 2**64 - 1),
)
def test_generator_matches_patient_loop_oracle(n_patients, n_variables, rate, missing_rate, prevalence, seed):
    config = SynthConfig(n_patients, n_variables, prevalence, missing_rate, rate, seed)
    with pytest.MonkeyPatch.context() as mp:
        # The calibration is the same pure function on both sides; bisect it once per target.
        calibrate = functools.cache(cohort_module._calibrate_intercept)
        mp.setattr(cohort_module, "_calibrate_intercept", calibrate)
        mp.setattr(oracles, "_calibrate_intercept", calibrate)
        assert_same_cohort_bits(generate_synthetic_cohort(config), oracles.generate_patient_loop(config))


def test_seeded_generator_matches_patient_loop_oracle(small_cohort):
    config = SynthConfig(600, 5, 0.35, 0.1, 1.0, 424242)   # the small_cohort fixture
    assert_same_cohort_bits(small_cohort, oracles.generate_patient_loop(config))
    # Sampled every minute or every 60/7 minutes, most rows tie on (patient,
    # offset) with a row of another variable, and ties keep variable order;
    # offsets near 6e17 minutes leave no one sort key that fits in 64 bits.
    for n_patients, rate in ((40, 60.0), (200, 7.0), (50, 1e-16)):
        config = SynthConfig(n_patients, 8, 0.35, 0.1, rate, 5)
        assert_same_cohort_bits(generate_synthetic_cohort(config), oracles.generate_patient_loop(config))


# Texts csv.writer quotes or leaves alone, and values with unusual reprs.
WRITER_TEXTS = ["p1", "a,b", 'say "hi"', '"', "two\nlines", "cr\rhere", " spaced ", "température", "患者", ""]
WRITER_VALUES = [-0.0, 0.0, 5e-324, 0.1, 1e-5, 1e16, 1e22, 3.0, -12.0, 1e300, 123456789.0]


@st.composite
def writer_cohorts(draw):
    pids = draw(st.lists(st.sampled_from(WRITER_TEXTS), min_size=1, max_size=5, unique=True))
    outcomes = {
        pid: (draw(st.sampled_from([v for v in WRITER_VALUES if v > 0])), draw(st.booleans()))
        for pid in pids
    }
    rows = draw(st.lists(st.tuples(
        st.sampled_from(pids),
        st.sampled_from(WRITER_TEXTS),
        st.sampled_from([0, 7, 1439, 1440, 2**62]),
        st.sampled_from(WRITER_VALUES),
    ), max_size=30))
    return cohort_from_rows(rows, outcomes)


def assert_writes_match_oracle(cohort, directory):
    for write, oracle, name in (
        (write_observations, oracles.write_observations_rows, "observations"),
        (write_outcomes, oracles.write_outcomes_rows, "outcomes"),
    ):
        got, expected = directory / f"{name}.csv", directory / f"{name}_oracle.csv"
        write(cohort, got)
        oracle(cohort, expected)
        assert got.read_bytes() == expected.read_bytes(), name


@settings(deadline=None)
@given(writer_cohorts())
def test_writers_match_csv_writer_oracle(cohort):
    with tempfile.TemporaryDirectory() as directory:
        assert_writes_match_oracle(cohort, Path(directory))


def test_seeded_cohort_writes_match_csv_writer_oracle(small_cohort, tmp_path):
    assert_writes_match_oracle(small_cohort, tmp_path)


def test_writes_without_long_double_match_csv_writer_oracle(small_cohort, tmp_path, monkeypatch):
    monkeypatch.setattr(cohort_module, "_EXACT_QUOTIENTS", False)
    assert _shortest_decimals(small_cohort.value)[3].all()   # every value through repr
    assert_writes_match_oracle(small_cohort, tmp_path)


def value_texts(values):
    """Each value as the line builder writes it (`_value_pieces`)."""
    return _joined(values.size, [*_value_pieces(values), _NEWLINE]).tobytes().decode("ascii").split("\n")[:-1]


@settings(deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=st.floats()))
def test_value_texts_match_repr(values):
    assert value_texts(values) == [repr(value) for value in values.tolist()]


def edge_values():
    """Integers near 1e16 and 2**53, powers of two and ten, the bounds of
    the kernel's range (1e-4, 2**52, 1e16), the doubles next to each, and
    their negatives."""
    values = [1e16 - 2 * i for i in range(4)] + [2.0**53 + i for i in range(-3, 4)] + [2.0**52 - 0.5, 2.0**52 + 1]
    values += [2.0**e for e in range(-20, 64)] + [10.0**e for e in range(-8, 23)] + [1e-4, 2.0**52, 1e16]
    values = np.array(values)
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_value_texts_match_repr_on_seeded_and_edge_sets():
    rng = np.random.default_rng(29)
    for values in (
        rng.normal(0, 50, 20_000),
        rng.lognormal(0, 6, 20_000),
        rng.random(20_000),
        rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),   # any bit pattern
        np.concatenate([np.round(rng.normal(0, 100, 4_000), places) for places in range(6)]),
        edge_values(),
    ):
        assert value_texts(values) == [repr(value) for value in values.tolist()]


def test_few_seeded_cohort_values_need_repr():
    values = generate_synthetic_cohort(SynthConfig(16_000, 5, 0.15, 0.1, 1.0, 123)).value
    assert _shortest_decimals(values)[3].mean() <= 0.02


def test_few_two_place_values_need_repr():
    """A value a half-step between two shorter decimals (x.25, x.75, 0.125)
    keeps its own text: neither neighbour can read back, so no `repr`."""
    values = np.round(np.random.default_rng(29).normal(0, 50, 300_000), 2)
    assert _shortest_decimals(values)[3].mean() < 0.001
    assert not _shortest_decimals(np.array([2.25, 7.75, 0.125, 101.25]))[3].any()
    assert value_texts(values) == [repr(value) for value in values.tolist()]


def csv_writer_field(text):
    """`text` as `csv.writer` writes it before another field."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


@settings(deadline=None)
@given(st.lists(st.one_of(
    st.text(),
    st.text("abcXYZ019_-.", max_size=12),   # the texts passed through unchanged
    st.text("ab_.,\"\r\n \t'", max_size=6),
)))
def test_csv_fields_match_csv_writer(texts):
    assert _csv_fields(texts) == [csv_writer_field(text) for text in texts]


def assert_fold_matches_row_oracle(observations, outcomes, window_hours, table=TABLE):
    """The fold of the files (`load_cohort`) equals `window_tables` of the
    cohort that `oracles.ingest_rows` reads from them, bit for bit, and
    keeps the patients `oracles.filter_ids` keeps."""
    cohort = rows_cohort(observations, outcomes)
    tables = load_cohort(observations, outcomes, 60 * window_hours, table)
    assert_same_tables(tables, window_tables(cohort, 60 * window_hours, table))
    kept = filter_cohort(tables, REQUIRED, window_hours)
    assert kept.patient_ids == oracles.filter_ids(cohort, REQUIRED, window_hours)


@st.composite
def fold_files(draw):
    """The lines of an observations file of up to 8 patients, in any
    order, with offsets at and past minute 1440, values on score-bin edges
    and a variable outside the score table; maybe a quoted id mid-file,
    which sends the rest of the file to the row loop; and the outcomes
    lines of its patients, in another order."""
    ids = [f"p{i}" for i in range(draw(st.integers(1, 8)))]
    rows = draw(st.lists(st.tuples(st.sampled_from(ids), ROW), min_size=1, max_size=60))
    lines = [f"{pid},{var},{off},{val!r}" for pid, (var, off, val) in draw(st.permutations(rows))]
    if draw(st.booleans()):
        pid, (var, off, val) = draw(st.sampled_from(rows))
        lines.insert(draw(st.integers(0, len(lines))), f'"{pid}",{var},{off},{val!r}')
    seen = draw(st.permutations(sorted({pid for pid, _ in rows})))
    outcomes = [f"{pid},{draw(st.sampled_from(['5.0', '23.9', '24.0', '48.0']))},{draw(st.sampled_from('01'))}"
                for pid in seen]
    return lines, outcomes


def write_fold_files(directory, lines, outcomes):
    observations, outcomes_path = Path(directory) / "observations.csv", Path(directory) / "outcomes.csv"
    observations.write_text("\n".join([HEADER] + lines) + "\n")
    outcomes_path.write_text("\n".join(["patient_id,event_hours,death_flag"] + outcomes) + "\n")
    return observations, outcomes_path


@settings(deadline=None)
@given(fold_files(), WINDOW_HOURS, st.sampled_from([16, 64, cohort_module.BLOCK_BYTES]))
def test_fold_matches_row_oracle(files, window_hours, block_bytes):
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
        assert_fold_matches_row_oracle(*write_fold_files(directory, *files), window_hours)


@settings(deadline=None)
@given(fold_files(), WINDOW_HOURS, st.sampled_from([8, 16, 64]))
def test_fold_merging_runs_as_it_goes_matches_row_oracle(files, window_hours, block_bytes):
    """A fold whose rows are merged by patient whenever they have doubled,
    as for an unsorted file past _MERGE_ROWS rows, gives the tables of the
    row oracle, and never holds more than twice the patients' rows plus a
    block's."""
    merges = []
    merge = cohort_module._RowIds.merge

    def counted(self, tables):
        merges.append(self.size)
        return merge(self, tables)

    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
        mp.setattr(cohort_module, "_MERGE_ROWS", 2)
        mp.setattr(cohort_module._RowIds, "merge", counted)
        assert_fold_matches_row_oracle(*write_fold_files(directory, *files), window_hours)
    n_patients = len(files[1])
    assert all(rows <= 2 * max(n_patients, 2) + block_bytes for rows in merges)


@settings(deadline=None)
@given(fold_files(), WINDOW_HOURS, st.data())
def test_merged_range_folds_match_the_serial_fold(files, window_hours, data):
    """Folded on their own in this process, line-aligned ranges of a file
    cut anywhere, empty ranges and patients across cuts among them, merge
    to the serial fold, bit for bit."""
    lines, outcomes = files
    lines = [line for line in lines if not line.startswith('"')]   # a range with one is declined
    with tempfile.TemporaryDirectory() as directory:
        observations, outcomes_path = write_fold_files(directory, lines, outcomes)
        body = observations.read_bytes()
        starts = [at + 1 for at, byte in enumerate(body) if byte == ord("\n")]   # the header's end first
        cuts = [starts[0], *sorted(data.draw(st.lists(st.sampled_from(starts), max_size=5))), len(body)]
        folds = [cohort_module._fold_range(observations, a, b, 60 * window_hours, TABLE) for a, b in zip(cuts, cuts[1:])]
        serial = load_cohort(observations, outcomes_path, 60 * window_hours, TABLE)
        merged = cohort_module._merge_ranges(folds).finish(observations, outcomes_path)
    assert_same_tables(merged, serial)


@pytest.mark.parametrize("layout", ["sorted", "row_loop_tail", "unsorted"])
@pytest.mark.parametrize("window_hours", [7, 12])
def test_fold_of_parsed_blocks_and_row_loop_matches_row_oracle(layout, window_hours, tmp_path, monkeypatch):
    # 300 rows of 43 patients in blocks of 64 bytes; the row loop takes the
    # "row_loop_tail" from its quoted id on, in parts of 16 rows.
    monkeypatch.setattr(cohort_module, "BLOCK_BYTES", 64)
    monkeypatch.setattr(cohort_module, "_ROW_LOOP_CHUNK", 16)
    data = columns_test_file(layout)
    ids = oracles.ingest_rows(io.BytesIO(data))["patient_ids"]
    outcomes = [f"{csv_writer_field(pid)},{24.0 + i},{i % 2}" for i, pid in enumerate(ids)]
    observations, outcomes_path = write_fold_files(tmp_path, [], outcomes)
    observations.write_bytes(data)
    parts = count_calls(monkeypatch, cohort_module.WindowTables, "add")
    row_loops = count_calls(monkeypatch, cohort_module, "_row_loop")
    assert_fold_matches_row_oracle(observations, outcomes_path, window_hours)
    assert parts["add"] > 50   # the fold's parts, then the oracle cohort's one chunk
    assert row_loops["_row_loop"] == (layout == "row_loop_tail")


def test_fold_errors_name_the_files(tmp_path):
    lines = ["p1,heart_rate,30,112", "p1,heart_rate,31,x"]
    observations, outcomes = write_fold_files(tmp_path, lines, ["p1,30,0"])
    with pytest.raises(ParseError, match=f"^{observations}: line 3: non-numeric value 'x'$"):
        load_cohort(observations, outcomes, 720, TABLE)
    observations, outcomes = write_fold_files(tmp_path, ["p2,heart_rate,30,112", "p3,gcs,5,9"], ["p1,30,0", "p2,30,0"])
    with pytest.raises(CohortError, match=rf"^{observations}, {outcomes}: observations and outcomes cover "
                                            rf"different patients \(e.g. \['p1', 'p3'\]\)$"):
        load_cohort(observations, outcomes, 720, TABLE)
    observations.write_text(HEADER + "\n")
    with pytest.raises(CohortError, match=f"^{observations}: no observations$"):
        load_cohort(observations, outcomes, 720, TABLE)


ROW_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5, np.nan])


@st.composite
def row_sets(draw):
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["mixed", "all equal", "all distinct"]))
    if kind == "all equal":
        return np.tile(draw(arrays(np.float64, d, elements=ROW_VALUES)), (n, 1))
    if kind == "all distinct":
        rows = np.arange(n * d, dtype=float).reshape(n, d)
        return rows[draw(st.permutations(range(n)))]
    return draw(arrays(np.float64, (n, d), elements=ROW_VALUES))


@settings(deadline=None)
@given(row_sets())
def test_distinct_rows_match_unique_oracle(rows):
    first, group = distinct_rows(rows)
    uniq, expected_first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(first, expected_first)
    assert np.array_equal(group, inverse.reshape(-1))
    assert np.array_equal(rows[first], uniq, equal_nan=True)


@st.composite
def pam_inputs(draw):
    n, d = draw(st.integers(1, 90)), draw(st.integers(1, 3))
    values = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    rows = draw(arrays(np.float64, (n, d), elements=values))
    binary = draw(st.booleans()) and d > 1
    if binary:   # the last column a 0/1 indicator, as in feature rows
        rows[:, -1] = rows[:, -1] > 4
    n_distinct = np.unique(rows, axis=0).shape[0]
    k = draw(st.integers(1, min(4, n_distinct)))
    max_fit_rows = draw(st.sampled_from([30, 2000]))
    kinds = (NUMERIC,) * (d - binary) + (BINARY,) * binary
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    return rows, k, max_fit_rows, kinds, perm


@settings(deadline=None)
@given(pam_inputs())
def test_pam_matches_unique_dedupe_oracle(case):
    rows, k, max_fit_rows, kinds, _ = case
    ranges = numeric_ranges(rows, kinds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features_module, "MAX_FIT_ROWS", max_fit_rows)
        model, labels, cost = pam_cluster(rows, k, seed=5, kinds=kinds)
        mp.setattr(features_module, "distinct_rows", oracles.dedupe_rows_unique)
        expected = pam_cluster(rows, k, seed=5, kinds=kinds)
    assert model.medoids.tobytes() == expected[0].medoids.tobytes()
    assert np.array_equal(labels, expected[1])
    assert cost == expected[2]
    # Labels and cost from one distance matrix over the distinct rows, as
    # `assign` and a full-row matrix give them; the count-weighted sum
    # reorders the cost's floating-point sum.
    assert np.array_equal(labels, model.assign(rows))
    full = float(gower_matrix(rows, model.medoids, kinds, ranges).min(axis=1).sum())
    assert cost == pytest.approx(full, rel=1e-12, abs=1e-15)


@settings(deadline=None)
@given(pam_inputs())
def test_pam_does_not_depend_on_row_order(case):
    rows, k, _, kinds, perm = case   # under the cap: no sample, no seed
    model, labels, cost = pam_cluster(rows, k, seed=5, kinds=kinds)
    permuted = pam_cluster(rows[perm], k, seed=6, kinds=kinds)
    assert model.medoids.tobytes() == permuted[0].medoids.tobytes()
    assert np.array_equal(labels[perm], permuted[1])
    assert cost == permuted[2]


ROWS_WITH_TIES = st.sampled_from([0.0, 1.0, 2.0, 5.0])


@st.composite
def labelled_rows(draw):
    """Rows with duplicates, equal rows under different labels, and
    clusters that may hold a single row."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    rows = draw(arrays(np.float64, (n, d), elements=ROWS_WITH_TIES))
    labels = draw(arrays(np.int64, n, elements=st.integers(1, 5)))
    if np.unique(labels).size < 2:
        labels[0] = 1 if labels[1] != 1 else 2
    binary = draw(st.booleans()) and d > 1
    if binary:
        rows[:, -1] = rows[:, -1] > 1
    kinds = (NUMERIC,) * (d - binary) + (BINARY,) * binary
    return rows, labels, kinds


@settings(deadline=None)
@given(labelled_rows())
def test_silhouette_matches_row_loop_oracle(case):
    rows, labels, kinds = case
    ranges = numeric_ranges(rows, kinds)
    got = features_module.silhouette(rows, labels, kinds)
    assert got == pytest.approx(oracles.silhouette_loop(rows, labels, kinds, ranges), rel=0, abs=1e-12)


@pytest.mark.parametrize("collide", [False, True])
@pytest.mark.parametrize("block_bytes", [8, 40, 200])
def test_names_seen_in_earlier_blocks_match_row_oracle(collide, block_bytes, monkeypatch):
    # Names come back in blocks whose widest name is wider or narrower than
    # in the block that first held them; two 2-word names share a last word,
    # and "heart_ra" is the first word of "heart_rate".
    names = ["gcs", "heart_rate", "heart_ra", "blood_pressure_systolic", "aaaaaaaaX", "bbbbbbbbX", "hr"]
    rng = np.random.default_rng(block_bytes)
    picks = [names[i] for i in rng.integers(0, len(names), 120)] + ["newcomer_name"]
    body = "".join(f"p{i // 7},{name},{i % 7},{i}\n" for i, name in enumerate(picks))
    data = (HEADER + "\n" + body).encode()
    monkeypatch.setattr(cohort_module, "BLOCK_BYTES", block_bytes)
    if collide:
        monkeypatch.setattr(cohort_module, "_MIX", np.uint64(0))
    assert_ingest_matches_oracle(lambda: io.BytesIO(data))


@settings(deadline=None)
@given(st.data())
def test_medians_from_counts_match_nanmedian(data):
    """`compute_medians` counts each score; np.nanmedian of the scores is
    the oracle, bit for bit, NaN where a window's cell or a variable has no
    sample at all."""
    names = ("heart_rate", "blood_pressure", "gcs", "temperature")[: data.draw(st.integers(1, 4))]
    spec = FeatureSpec(names, data.draw(st.sampled_from([5, 8, 12, 24])), TABLE)
    n = data.draw(st.integers(1, 30))
    scores = data.draw(arrays(np.int64, (n, spec.n_windows, len(names)), elements=st.integers(-1, 6)))
    if data.draw(st.booleans()):
        scores[:, :, data.draw(st.integers(0, len(names) - 1))] = -1   # a variable never observed
    if data.draw(st.booleans()):
        scores[:, data.draw(st.integers(0, spec.n_windows - 1)), data.draw(st.integers(0, len(names) - 1))] = -1
    matrix = FeatureMatrix.from_scores([f"p{i}" for i in range(n)], spec, scores, np.full(n, 48.0), np.zeros(n, bool))
    medians = compute_medians(matrix)
    observed = np.where(scores >= 0, scores, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # all-NaN slices
        cell = np.nanmedian(observed, axis=0)
        overall = np.nanmedian(observed.reshape(-1, len(names)), axis=0)
    assert medians.cell.tobytes() == cell.tobytes()
    assert medians.overall.tobytes() == overall.tobytes()


@settings(deadline=None)
@given(arrays(np.float64, st.integers(1, 60), elements=st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.0]), st.floats(-1e6, 1e6, allow_subnormal=False))))
def test_quartiles_match_percentile(values):
    # Equal as numbers: where -0.0 and 0.0 meet, sort and partition may
    # order them apart, and the bandwidth reads the spread only through iqr > 0.
    assert np.array_equal(oracles.quartiles(values), np.percentile(values, [25, 75]))
    if values.size > 1:
        sd = float(np.std(values, ddof=1))
        iqr = float(np.percentile(values, 75) - np.percentile(values, 25))
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        assert oracles.silverman_bandwidth(values) == max(0.9 * spread * values.size ** (-0.2), BANDWIDTH_FLOOR)


OUTCOME_HOURS = st.sampled_from(["+5", "1e3", " 7", "nan", "-0.0", "0", "-4", "inf", "x", "", "1_0"])
OUTCOME_FLAGS = st.sampled_from(["2", "", " 1", "001", "10"])


@st.composite
def outcome_files(draw):
    """The bytes of an outcomes file. Some rows are odd: a quoted id, a
    repeated id, an id that is not UTF-8; hours the block parser declines
    (`+5`, `nan`, `-0.0`, ...) or reads by `astype` (`1e3`); a flag of 0
    to 3 bytes. The file may be CRLF, hold an empty line, lack its last
    newline or have a bad header."""
    rows = []
    for i in range(draw(st.integers(0, 12))):
        pid, hours, flag = f"p{i}", draw(st.sampled_from(["5.0", "48", "24.25", "107.23456789012345"])), draw(st.sampled_from("01"))
        odd = draw(st.sampled_from(["", "", "", "", "id", "hours", "flag"]))
        if odd == "id":
            pid = draw(st.sampled_from([f'"p{i}"', f'"p,{i}"', f"p\xff{i}", f"p {i}", "", "p0"]))
        elif odd == "hours":
            hours = draw(OUTCOME_HOURS)
        elif odd == "flag":
            flag = draw(OUTCOME_FLAGS)
        rows.append(f"{pid},{hours},{flag}")
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), "")
    header = "patient_id,event_hours,death_flag" if draw(st.integers(0, 9)) else "patient_id,hours,flag"
    newline = "\n" if draw(st.integers(0, 3)) else "\r\n"
    body = newline.join([header] + rows) + (newline if draw(st.integers(0, 3)) else "")
    return body.encode().replace("\xff".encode(), b"\xff")


def outcomes_or_error(data):
    try:
        ids, event_hours, died = ingest_outcomes(io.BytesIO(data))
    except (ParseError, CohortError) as exc:
        return type(exc), str(exc)
    return cohort_module._texts(ids), event_hours.tobytes(), died.tolist()


@settings(deadline=None)
@given(outcome_files())
def test_outcomes_block_path_matches_row_loop(data):
    """A whole outcomes file parsed as a block gives what the `csv` row
    loop gives: the same ids, hours and flags, or the same error, line and
    message."""
    block = outcomes_or_error(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohort_module, "_outcome_columns", lambda data: None)
        assert block == outcomes_or_error(data)


def test_written_outcomes_take_the_block_path(small_cohort, tmp_path):
    path = tmp_path / "outcomes.csv"
    write_outcomes(small_cohort, path)
    ids, event_hours, died = cohort_module._outcome_columns(path.read_bytes())
    assert cohort_module._texts(ids) == small_cohort.patient_ids
    assert event_hours.tobytes() == small_cohort.event_hours.tobytes()
    assert np.array_equal(died, small_cohort.died)
