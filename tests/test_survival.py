import math

import numpy as np
import pytest

from icurisk.cohort import SynthConfig, filter_cohort, generate_synthetic_cohort, window_tables
from icurisk.features import (
    FeatureMatrix,
    FeatureSpec,
    build_feature_matrix,
    compute_medians,
    distinct_rows,
    impute_median,
    load_default_score_table,
)
from icurisk.evaluation import fit_logistic
from icurisk.survival import (
    TargetSpec,
    _fit_exponential,
    _spanning_columns,
    censor_by_target,
    compute_priors,
    death_prior,
    exponential_grad,
    exponential_loglik,
    fit_exponential_regression,
    fit_window_regressions,
    hazard,
    label_hidden_states,
    normalize_death_share,
)
import oracles


def random_censored_sample(rng, n=60, d=3):
    X = np.column_stack([np.ones(n), rng.uniform(0, 2, (n, d - 1))])
    times = rng.uniform(1, 100, n)
    events = (rng.random(n) < 0.5).astype(float)
    if events.sum() == 0:
        events[0] = 1.0
    return X, times, events


class TestExposureDuration:
    def test_as_printed_adds_elapsed_time(self):
        spec = TargetSpec(2, "as_printed")
        assert spec.exposure_duration(1, 12) == 60.0

    def test_remaining_subtracts_elapsed_time(self):
        spec = TargetSpec(2, "remaining")
        assert spec.exposure_duration(1, 12) == 36.0

    def test_day5_last_window(self):
        spec = TargetSpec(5, "as_printed")
        assert spec.exposure_duration(2, 12) == 144.0

    def test_remaining_exhausted_errors(self):
        spec = TargetSpec(1, "remaining")
        with pytest.raises(ValueError, match="remaining"):
            spec.exposure_duration(1, 24)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec(2, "sideways")


class TestCensoring:
    def test_death_before_target_is_event(self):
        times, events = censor_by_target([30.0], [True], 48.0)
        assert events[0] == 1 and times[0] == 30.0

    def test_death_after_target_censored_at_target(self):
        times, events = censor_by_target([90.0], [True], 48.0)
        assert events[0] == 0 and times[0] == 48.0

    def test_discharge_before_target_censored_at_discharge(self):
        times, events = censor_by_target([30.0], [False], 48.0)
        assert events[0] == 0 and times[0] == 30.0


class TestExponentialFit:
    def test_intercept_only_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = 50
            times = rng.uniform(1, 200, n)
            events = (rng.random(n) < 0.4).astype(float)
            if events.sum() == 0:
                events[0] = 1.0
            fit = fit_exponential_regression(np.ones((n, 1)), times, events)
            expected = math.log(events.sum() / times.sum())
            assert fit.beta[0] == pytest.approx(expected, rel=1e-10)

    def test_all_censored_errors(self):
        with pytest.raises(ValueError, match="no events"):
            fit_exponential_regression(np.ones((5, 1)), np.ones(5), np.zeros(5))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(20):
            X, times, events = random_censored_sample(rng)
            beta = rng.normal(0, 0.3, X.shape[1])
            grad = exponential_grad(beta, X, times, events)
            for j in range(len(beta)):
                e = np.zeros_like(beta)
                e[j] = h
                fd = (
                    exponential_loglik(beta + e, X, times, events)
                    - exponential_loglik(beta - e, X, times, events)
                ) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6)

    def test_loglik_non_decreasing_over_iterations(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X, times, events = random_censored_sample(rng, n=120, d=4)
            trace = []
            fit_exponential_regression(X, times, events, trace=trace)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-8)

    def test_converged_gradient_is_tiny(self):
        rng = np.random.default_rng(4)
        X, times, events = random_censored_sample(rng, n=200, d=4)
        fit = fit_exponential_regression(X, times, events)
        assert fit.grad_norm <= 1e-8

    def test_collinear_design_still_converges(self):
        rng = np.random.default_rng(5)
        X, times, events = random_censored_sample(rng, n=100, d=3)
        X = np.column_stack([X, np.ones(100)])  # duplicates the intercept
        fit = fit_exponential_regression(X, times, events)
        assert fit.grad_norm <= 1e-8
        assert fit.beta[-1] == 0.0   # aliased: dropped, not split with the intercept

    def test_separation_detected(self):
        # one group dies instantly, the other is only censored for ages
        X = np.column_stack([np.ones(20), np.repeat([0.0, 1.0], 10)])
        times = np.where(X[:, 1] == 1.0, 1e-4, 5000.0)
        events = X[:, 1]
        with pytest.raises(ValueError, match="separation"):
            fit_exponential_regression(X, times, events)


def repeated_rows_sample(rng, n=400, aliased=False):
    """Few distinct design rows; with `aliased`, an all-ones column and the
    sum of two columns are appended."""
    X = np.column_stack([np.ones(n), rng.integers(0, 3, (n, 2)), rng.integers(0, 2, n)])
    if aliased:
        X = np.column_stack([X, np.ones(n), X[:, 1] + X[:, 2]])
    times = rng.uniform(1, 100, n)
    events = (rng.random(n) < 0.4).astype(float)
    return X.astype(float), times, events


def same_fit(fit, reference):
    """A SurvivalFit against (beta, iterations, grad_norm) of an oracle, bit for bit."""
    beta, iterations, grad_norm = reference
    assert fit.beta.tobytes() == beta.tobytes()
    assert (fit.iterations, fit.grad_norm) == (iterations, grad_norm)


class TestNewtonBitForBit:
    """`newton_maximize` computes X beta once per iterate; the fits must give
    the bytes of `oracles.newton_maximize_callables`, whose three callables
    each compute it."""

    @pytest.mark.parametrize("seed", range(6))
    def test_exponential_matches_callables(self, seed):
        rng = np.random.default_rng(seed)
        X, times, events = random_censored_sample(rng, n=150, d=4)
        same_fit(fit_exponential_regression(X, times, events),
                 oracles.fit_exponential_callables(X, _spanning_columns(X), times, events))

    @pytest.mark.parametrize("aliased", [False, True])
    def test_grouped_rows_with_a_shared_keep_match_callables(self, aliased):
        rng = np.random.default_rng(8)
        X, times, events = repeated_rows_sample(rng, aliased=aliased)
        first, group = distinct_rows(X)
        keep = _spanning_columns(X[first])
        assert keep.all() != aliased
        for day in range(3):   # one keep shared by several responses, as for the target days
            day_times = times * (day + 1)
            summed = np.bincount(group, weights=day_times), np.bincount(group, weights=events)
            same_fit(_fit_exponential(X[first], keep, *summed),
                     oracles.fit_exponential_callables(X[first], keep, *summed))

    def test_small_gain_step_matches_callables(self):
        # A covariate nearly orthogonal to the intercept-only residual: the
        # first Newton step's predicted gain is below 1e-9.
        rng = np.random.default_rng(11)
        times = rng.uniform(1, 100, 200)
        events = (rng.random(200) < 0.4).astype(float)
        residual = events - events.sum() / times.sum() * times
        x = rng.normal(size=200)
        x -= (x @ residual) / (residual @ residual) * residual - 1e-7 * residual
        X = np.column_stack([np.ones(200), x])
        small_gain = []
        reference = oracles.fit_exponential_callables(X, _spanning_columns(X), times, events, small_gain)
        assert small_gain and small_gain[0] == 1
        same_fit(fit_exponential_regression(X, times, events), reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_logistic_matches_callables(self, seed):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(120), rng.integers(0, 4, (120, 2)), np.ones(120)]).astype(float)
        y = (rng.random(120) < 0.3 + 0.1 * X[:, 1]).astype(float)
        first, group = distinct_rows(X)
        counts, positives = np.bincount(group), np.bincount(group, weights=y)
        keep = _spanning_columns(X[first])
        for beta, reference in (
            (fit_logistic(X, y), oracles.fit_logistic_callables(X, _spanning_columns(X), y)),
            (fit_logistic(X[first], positives, counts),
             oracles.fit_logistic_callables(X[first], keep, positives, counts)),
        ):
            assert beta.tobytes() == reference[0].tobytes()


class TestNewtonSolve:
    def test_full_rank_design_matches_pinv_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            X, times, events = random_censored_sample(rng, n=120, d=4)
            fit = fit_exponential_regression(X, times, events)
            start = np.zeros(X.shape[1])
            start[0] = math.log(events.sum() / times.sum())
            beta, iterations, _ = oracles.newton_maximize_pinv(
                lambda b: exponential_loglik(b, X, times, events),
                lambda b: exponential_grad(b, X, times, events),
                lambda b: np.exp(X @ b) * times,
                X,
                start,
                max_iter=500,
            )
            np.testing.assert_allclose(fit.beta, beta, rtol=0, atol=1e-12)
            assert fit.iterations == iterations

    @pytest.mark.parametrize("aliased", [False, True])
    def test_distinct_rows_fit_matches_full_rows_oracle(self, aliased):
        rng = np.random.default_rng(7)
        for _ in range(5):
            X, times, events = repeated_rows_sample(rng, aliased=aliased)
            full = fit_exponential_regression(X, times, events)
            first, group = distinct_rows(X)
            assert first.size < 40
            grouped = fit_exponential_regression(
                X[first], np.bincount(group, weights=times), np.bincount(group, weights=events)
            )
            if aliased:
                np.testing.assert_allclose(X @ grouped.beta, X @ full.beta, rtol=0, atol=1e-12)
                assert grouped.beta[4] == 0.0 and grouped.beta[5] == 0.0
            else:
                np.testing.assert_allclose(grouped.beta, full.beta, rtol=0, atol=1e-12)

    def test_all_zero_column_gets_zero_coefficient(self):
        rng = np.random.default_rng(8)
        X, times, events = random_censored_sample(rng, n=80, d=3)
        X = np.column_stack([X[:, :1], np.zeros(80), X[:, 1:]])
        fit = fit_exponential_regression(X, times, events)
        reference = fit_exponential_regression(np.delete(X, 1, axis=1), times, events)
        assert fit.beta[1] == 0.0
        np.testing.assert_allclose(np.delete(fit.beta, 1), reference.beta, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def imputed_4k():
    """The feature matrix of 4,000 synthetic patients (the benchmark's cohort
    settings), its imputed cells, and day-2 times and events."""
    config = SynthConfig(
        n_patients=4000,
        n_variables=5,
        prevalence_target=0.15,
        missing_rate=0.1,
        sampling_rate_per_hour=1.0,
        seed=11,
    )
    table = load_default_score_table()
    cohort = filter_cohort(window_tables(generate_synthetic_cohort(config), 720, table))
    matrix = build_feature_matrix(cohort, cohort.variables)
    times, events = censor_by_target(cohort.event_hours, cohort.died, 48.0)
    return matrix, impute_median(matrix, compute_medians(matrix)), times, events


class TestPatientOrder:
    """The hazard fits of a design that has aliased columns do not depend on
    the order of its rows: minimum-norm steps on every column left an
    order-dependent share of the intercept on the aliased ones."""

    @staticmethod
    def _fits(matrix, rows, times, events, perm):
        full = np.column_stack([np.ones(matrix.n_patients), rows[matrix.cell_of[:, 1]]])
        permuted = matrix.subset(perm)
        return [
            (
                fit_exponential_regression(full, times, events).beta,
                fit_exponential_regression(full[perm], times[perm], events[perm]).beta,
            ),
            (
                fit_window_regressions(matrix, rows, [times], [events])[1].beta,
                # every patient is kept, so the permuted matrix has the same cells
                fit_window_regressions(permuted, rows, [times[perm]], [events[perm]])[1].beta,
            ),
        ]

    def test_window_fit_does_not_depend_on_patient_order(self, imputed_4k):
        matrix, rows, times, events = imputed_4k
        perm = np.random.default_rng(3).permutation(matrix.n_patients)
        X = np.column_stack([np.ones(matrix.n_patients), rows[matrix.cell_of[:, 1]]])
        constant = np.all(X == X[0], axis=0)
        constant[0] = False   # the intercept
        assert constant.sum() >= 4
        for beta, permuted in self._fits(matrix, rows, times, events, perm):
            assert np.max(np.abs(beta - permuted)) <= 1e-12
            assert np.all(beta[constant] == 0.0) and np.all(permuted[constant] == 0.0)


class TestHazard:
    def test_zero_coefficients_give_unit_rate(self):
        assert hazard(np.zeros(3), np.array([1.0, 5.0, 2.0])) == 1.0

    def test_log_two_gives_two(self):
        assert hazard(np.array([math.log(2.0)]), np.array([1.0])) == pytest.approx(2.0)

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            hazard(np.array([800.0]), np.array([1.0]))

    def test_underflow_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="underflow"):
            lam = hazard(np.array([-800.0]), np.array([1.0]))
        assert lam == np.finfo(float).tiny

    def test_matrix_input(self):
        lam = hazard(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [1.0, math.log(3.0)]]))
        assert lam == pytest.approx([1.0, 3.0])


class TestDeathPrior:
    def test_vanishing_exposure(self):
        assert death_prior(1e-12, 1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_log_two(self):
        assert death_prior(math.log(2.0), 1.0) == pytest.approx(0.5)

    def test_saturation(self):
        assert death_prior(20.0, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_rate_and_exposure(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            lam, v = rng.uniform(0.01, 2, 2)
            assert death_prior(lam * 1.1, v) > death_prior(lam, v)
            assert death_prior(lam, v * 1.1) > death_prior(lam, v)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            death_prior(0.0, 1.0)
        with pytest.raises(ValueError):
            death_prior(1.0, 0.0)


class TestNormalizeDeathShare:
    def test_mirrored_classes_give_half_at_center(self):
        rng = np.random.default_rng(7)
        surv = rng.uniform(0.0, 1.0, 200)
        death = 1.0 - surv  # exact mirror image around 0.5, equal counts
        probs = np.concatenate([surv, death])
        labels = np.concatenate([np.zeros(200), np.ones(200)])
        assert normalize_death_share(probs, labels, [0.5])[0] == pytest.approx(0.5, abs=1e-12)

    def test_query_deep_in_death_mass(self):
        death = np.linspace(0.8, 0.95, 50)
        surv = np.linspace(0.05, 0.2, 50)
        probs = np.concatenate([surv, death])
        labels = np.concatenate([np.zeros(50), np.ones(50)])
        assert normalize_death_share(probs, labels, [0.9])[0] == pytest.approx(1.0, abs=1e-6)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(8)
        probs = rng.uniform(0, 1, 100)
        labels = (rng.random(100) < 0.3).astype(int)
        values = normalize_death_share(probs, labels, rng.uniform(0, 1, 50))
        assert np.all((values >= 0) & (values <= 1))

    def test_tiny_class_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            normalize_death_share([0.1, 0.2, 0.3], [1, 0, 0], [0.2])

    def test_distant_query_falls_back_to_prior(self):
        probs = np.concatenate([np.full(30, 0.1), np.full(10, 0.2)])
        labels = np.concatenate([np.zeros(30), np.ones(10)])
        with pytest.warns(UserWarning, match="prior"):
            value = normalize_death_share(probs, labels, [1e6])[0]
        assert value == pytest.approx(0.25)


class TestLabeling:
    def _inputs(self, seed=9, n=80):
        rng = np.random.default_rng(seed)
        spec = FeatureSpec(("v", "w"), 12, load_default_score_table())
        scores = rng.integers(0, 8, (n, 2, 2))
        event_hours = rng.uniform(10, 150, n)
        died = rng.random(n) < 0.5
        matrix = FeatureMatrix.from_scores([f"p{i}" for i in range(n)], spec, scores, event_hours, died)
        return matrix, event_hours, died

    @staticmethod
    def _fit_and_label(matrix, event_hours, died, target):
        rows = impute_median(matrix, compute_medians(matrix))   # nothing missing: [scores, 1]
        times, events = censor_by_target(event_hours, died, target.target_hours)
        fits = fit_window_regressions(matrix, rows, [times], [events])
        return fits, label_hidden_states(matrix, rows, events, fits, target)

    def test_last_window_matches_outcome(self):
        matrix, event_hours, died = self._inputs()
        target = TargetSpec(3)
        _, labels = self._fit_and_label(matrix, event_hours, died, target)
        for i, (hours, dead) in enumerate(zip(event_hours, died)):
            expected = dead and hours <= target.target_hours
            assert labels.states[i, -1] == int(expected)

    def test_censored_by_target_counts_as_survival(self):
        matrix, event_hours, died = self._inputs()
        event_hours[0], died[0] = 200.0, True  # dies after day 3
        _, labels = self._fit_and_label(matrix, event_hours, died, TargetSpec(3))
        assert labels.states[0, -1] == 0

    def test_threshold_rule_on_earlier_windows(self):
        matrix, event_hours, died = self._inputs()
        _, labels = self._fit_and_label(matrix, event_hours, died, TargetSpec(3))
        lead = labels.probabilities[:, 0]
        assert np.array_equal(labels.states[:, 0], (lead >= 0.5).astype(np.uint8))
        assert np.all((lead >= 0) & (lead <= 1))

    def test_deterministic(self):
        matrix, event_hours, died = self._inputs()
        target = TargetSpec(2)
        fits, a = self._fit_and_label(matrix, event_hours, died, target)
        _, events = censor_by_target(event_hours, died, target.target_hours)
        b = label_hidden_states(matrix, impute_median(matrix, compute_medians(matrix)), events, fits, target)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_priors_respect_exposure_mode(self):
        matrix, event_hours, died = self._inputs()
        fits, _ = self._fit_and_label(matrix, event_hours, died, TargetSpec(2))
        rows = impute_median(matrix, compute_medians(matrix))
        theta_printed = compute_priors(matrix, rows, fits, TargetSpec(2, "as_printed"))
        theta_remaining = compute_priors(matrix, rows, fits, TargetSpec(2, "remaining"))
        assert np.all(theta_printed > theta_remaining)  # 60/72h vs 36/24h exposure
