import dataclasses
import json

import numpy as np
import pytest

import icurisk.survival
from icurisk.cohort import SynthConfig, filter_cohort, generate_synthetic_cohort, window_tables
from icurisk.features import FeatureSpec, ScoreTable, build_feature_matrix, load_default_score_table
from icurisk.hmm import (
    EmissionModel,
    _eta_forward_batch,
    estimate_emissions,
    fit_feature_stage,
    fit_risk_model,
    models_from_obj,
    models_to_obj,
    risk_score,
    score_patients,
    survival_curve,
)
from icurisk.survival import TargetSpec, censor_by_target, label_hidden_states, window_designs
from conftest import count_calls
from oracles import eta_enumerate, sequence_joint_probability, total_sequence_probability


def random_emissions(rng, k, low=0.05):
    initial = rng.uniform(low, 1.0, (k, 2))
    initial /= initial.sum(axis=0, keepdims=True)
    transition = rng.uniform(low, 1.0, (k, k, 2))
    transition /= transition.sum(axis=0, keepdims=True)
    return EmissionModel(initial=initial, transition=transition, alpha=1.0)


def uniform_emissions(k):
    return EmissionModel(
        initial=np.full((k, 2), 1.0 / k),
        transition=np.full((k, k, 2), 1.0 / k),
        alpha=1.0,
    )


class TestEstimateEmissions:
    def test_laplace_smoothed_single_transition(self):
        sequences = np.array([[1, 2]])
        states = np.array([[0, 0]])
        em = estimate_emissions(sequences, states, k=3, alpha=1.0)
        assert em.transition[1, 0, 0] == pytest.approx((1 + 1) / (1 + 3))

    def test_unseen_context_is_uniform(self):
        sequences = np.array([[1, 2]])
        states = np.array([[0, 0]])
        em = estimate_emissions(sequences, states, k=3, alpha=1.0)
        assert np.allclose(em.transition[:, 2, 1], 1.0 / 3)

    def test_every_conditional_sums_to_one(self):
        rng = np.random.default_rng(1)
        sequences = rng.integers(1, 5, (40, 3))
        states = rng.integers(0, 2, (40, 3))
        em = estimate_emissions(sequences, states, k=4, alpha=0.7)
        em.check_normalized()

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_emissions(np.empty((0, 2)), np.empty((0, 2)), k=3)

    def test_symbol_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="1..k"):
            estimate_emissions(np.array([[5, 1]]), np.array([[0, 0]]), k=3)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_smoothing_alpha_that_is_not_positive_rejected(self, alpha):
        # NaN fails `alpha <= 0` too, and would give all-NaN tables
        with pytest.raises(ValueError, match="^smoothing alpha must be positive$"):
            estimate_emissions(np.array([[1, 2]]), np.array([[0, 0]]), k=3, alpha=alpha)


class TestJointProbability:
    def test_single_window_product(self):
        em = uniform_emissions(2)
        psi = sequence_joint_probability([0.3], em, [1], [1])
        assert psi == pytest.approx(0.3 * 0.5)

    def test_two_window_hand_product(self):
        em = uniform_emissions(2)
        psi = sequence_joint_probability([0.2, 0.3], em, [1, 2], [0, 1])
        assert psi == pytest.approx(0.8 * 0.5 * 0.3 * 0.5)

    def test_always_a_probability(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            T = int(rng.integers(1, 7))
            k = int(rng.integers(2, 5))
            em = random_emissions(rng, k)
            theta = rng.uniform(0.01, 0.99, T)
            x = rng.integers(1, k + 1, T)
            s = rng.integers(0, 2, T)
            assert 0.0 <= sequence_joint_probability(theta, em, x, s) <= 1.0

    def test_length_mismatch_rejected(self):
        em = uniform_emissions(2)
        with pytest.raises(ValueError):
            sequence_joint_probability([0.2, 0.3], em, [1, 2], [0])


class TestRiskScore:
    def test_no_death_mass_gives_zero(self):
        em = uniform_emissions(3)
        assert risk_score([0.0, 0.0], em, [1, 2]) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_priors_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"priors must lie in \[0, 1\]"):
            risk_score([0.2, bad], uniform_emissions(2), [1, 2])

    def test_state_independent_emissions_reduce_to_prior_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            T = int(rng.integers(1, 8))
            k = int(rng.integers(2, 5))
            em = uniform_emissions(k)
            theta = rng.uniform(0.05, 0.95, T)
            x = rng.integers(1, k + 1, T)
            expected = 1.0 - np.prod(1.0 - theta)
            assert risk_score(theta, em, x) == pytest.approx(expected, abs=1e-12)

    def test_two_window_enumeration_by_hand(self):
        em = EmissionModel(
            initial=np.array([[0.7, 0.4], [0.3, 0.6]]),
            transition=np.array(
                [[[0.6, 0.2], [0.5, 0.3]], [[0.4, 0.8], [0.5, 0.7]]]
            ),
            alpha=1.0,
        )
        theta = np.array([0.2, 0.3])
        x = [1, 2]
        total = 0.0
        death = 0.0
        for s1 in (0, 1):
            for s2 in (0, 1):
                pri1 = theta[0] if s1 else 1 - theta[0]
                pri2 = theta[1] if s2 else 1 - theta[1]
                psi = pri1 * em.initial[0, s1] * pri2 * em.transition[1, 0, s2]
                total += psi
                if s1 or s2:
                    death += psi
        assert eta_enumerate(theta, em, x) == pytest.approx(death / total, abs=1e-15)
        assert risk_score(theta, em, x) == pytest.approx(death / total, abs=1e-15)

    def test_enumeration_equals_forward(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            T = int(rng.integers(1, 11))
            k = int(rng.integers(2, 6))
            em = random_emissions(rng, k)
            theta = rng.uniform(0.02, 0.98, T)
            x = rng.integers(1, k + 1, T)
            a = eta_enumerate(theta, em, x)
            b = risk_score(theta, em, x)
            assert abs(a - b) <= 1e-12

    def test_exact_zero_and_one_priors_match_enumeration(self):
        rng = np.random.default_rng(8)
        for T in (1, 2, 5, 11, 16):
            for _ in range(8):
                k = int(rng.integers(2, 6))
                em = random_emissions(rng, k)
                theta = rng.uniform(0.02, 0.98, T)
                theta[rng.random(T) < 0.3] = 0.0
                theta[rng.random(T) < 0.3] = 1.0
                x = rng.integers(1, k + 1, T)
                assert abs(risk_score(theta, em, x) - eta_enumerate(theta, em, x)) <= 1e-12
        em = random_emissions(rng, 3)
        x = rng.integers(1, 4, 16)
        for theta in (np.zeros(16), np.ones(16), np.r_[np.zeros(15), 1.0], np.r_[1.0, np.zeros(15)]):
            assert risk_score(theta, em, x) == eta_enumerate(theta, em, x)

    def test_normalization_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            T = int(rng.integers(1, 11))
            k = int(rng.integers(2, 6))
            em = random_emissions(rng, k)
            theta = rng.uniform(0.02, 0.98, T)
            x = rng.integers(1, k + 1, T)
            total_enum = total_sequence_probability(theta, em, x, method="enumeration")
            total_fact = total_sequence_probability(theta, em, x, method="factorized")
            assert total_enum == pytest.approx(total_fact, rel=1e-12)

    def test_monotone_in_priors_when_state_independent(self):
        rng = np.random.default_rng(6)
        em = uniform_emissions(3)
        theta = rng.uniform(0.1, 0.8, 4)
        x = rng.integers(1, 4, 4)
        base = risk_score(theta, em, x)
        for t in range(4):
            bumped = theta.copy()
            bumped[t] += 0.1
            assert risk_score(bumped, em, x) > base

    def test_long_sequences_do_not_underflow(self):
        k = 2
        tiny = 1e-300
        em = EmissionModel(
            initial=np.array([[1.0 - tiny, tiny], [tiny, 1.0 - tiny]]),
            transition=np.stack([np.array([[1.0 - tiny, tiny], [tiny, 1.0 - tiny]])] * 2, axis=1),
            alpha=1.0,
        )
        theta = np.full(64, tiny)
        x = np.ones(64, dtype=int)
        eta = risk_score(theta, em, x)
        assert np.isfinite(eta) and eta >= 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        k, T, n = 4, 2, 50
        em = random_emissions(rng, k)
        theta = rng.uniform(0.05, 0.95, (n, T))
        seqs = rng.integers(1, k + 1, (n, T))
        batch = _eta_forward_batch(theta, em, seqs)
        for i in range(n):
            assert abs(batch[i] - eta_enumerate(theta[i], em, seqs[i])) <= 1e-12


def one_bin_heart_rate_table():
    """The default table with one bin, score 1, for every heart rate."""
    obj = load_default_score_table().to_json_obj()
    return ScoreTable.from_json_obj({**obj, "heart_rate": [{"lower": 0, "upper": 1000, "score": 1}]})


@pytest.fixture(scope="module")
def trained(small_cohort):
    table = load_default_score_table()
    cohort = filter_cohort(window_tables(small_cohort, 720, table))
    matrix = build_feature_matrix(cohort, cohort.variables)
    stage = fit_feature_stage(matrix, 4, seed=[0])
    targets = [TargetSpec(day) for day in (2, 3, 4, 5)]
    model = fit_risk_model(stage, targets)
    return cohort, matrix, model


class TestRiskModel:
    def test_scores_bounded(self, trained):
        _, matrix, model = trained
        scores = score_patients(model, matrix)
        assert list(scores) == list(model) == [2, 3, 4, 5]
        for day_scores in scores.values():
            assert np.all((day_scores.eta >= 0.0) & (day_scores.eta <= 1.0))

    def test_scoring_is_pure(self, trained):
        _, matrix, model = trained
        a = score_patients(model, matrix)[2].eta.tolist()
        b = score_patients(model, matrix)[2].eta.tolist()
        assert a == b

    def test_scores_are_arrays_in_matrix_order(self, trained):
        _, matrix, model = trained
        scores = score_patients(model, matrix)[2]
        n, T = matrix.n_patients, matrix.spec.n_windows
        assert scores.eta.shape == (n,)
        assert scores.priors.shape == scores.sequences.shape == (n, T)
        for i in (0, n // 2, n - 1):
            eta = risk_score(scores.priors[i], model.days[2].emissions, scores.sequences[i])
            assert eta == pytest.approx(scores.eta[i], rel=1e-12, abs=1e-15)

    def test_days_fit_together_equal_days_fit_alone(self, trained):
        """Fitting all target days in one call, in any order, gives each day
        the fits and emission tables it gets when fit alone."""
        cohort, matrix, model = trained
        stage = fit_feature_stage(matrix, 4, seed=[0])
        together = fit_risk_model(stage, [TargetSpec(d) for d in (5, 3, 2, 4)])
        assert list(together) == [2, 3, 4, 5]
        for day in (2, 5):
            alone = fit_risk_model(stage, [TargetSpec(day)]).days[day]
            for fit in (model.days[day], together.days[day]):
                assert fit.target == alone.target
                assert [f.beta.tobytes() for f in fit.fits] == [f.beta.tobytes() for f in alone.fits]
                assert fit.emissions.transition.tobytes() == alone.emissions.transition.tobytes()
            assert score_patients(together, matrix)[day].eta.tobytes() == score_patients(
                model, matrix
            )[day].eta.tobytes()

    @pytest.mark.parametrize("days", [(2, 3, 2), ()], ids=["repeated", "none"])
    def test_repeated_or_missing_target_days_rejected(self, trained, days):
        cohort, matrix, _ = trained
        stage = fit_feature_stage(matrix, 4, seed=[0])
        with pytest.raises(ValueError, match="target days must be distinct and at least one"):
            fit_risk_model(stage, [TargetSpec(d) for d in days])

    def test_serialization_round_trip(self, trained):
        _, matrix, model = trained
        obj = json.loads(json.dumps(models_to_obj(model, {"seed": 0}), sort_keys=True))
        restored, config = models_from_obj(obj)
        assert config == {"seed": 0}
        assert list(restored) == list(model)
        original, revived = score_patients(model, matrix), score_patients(restored, matrix)
        for day in model:
            assert original[day].eta.tolist() == revived[day].eta.tolist()

    @pytest.mark.parametrize("days", [[], None], ids=["list", "null"])
    def test_days_not_an_object_rejected(self, trained, days):
        obj = json.loads(json.dumps(models_to_obj(trained[2])))
        obj["days"] = days
        with pytest.raises(ValueError, match="^days must be a non-empty object$"):
            models_from_obj(obj)

    def test_variable_mismatch_rejected(self, trained):
        cohort, matrix, model = trained
        other_spec = FeatureSpec(("something_else",), 12, model.spec.score_table)
        bad = type(matrix).from_scores(
            matrix.patient_ids, other_spec, matrix.scores[:, :, :1], matrix.event_hours, matrix.died
        )
        with pytest.raises(ValueError, match="something_else.*does not match the trained model.*in variable_names$"):
            score_patients(model, bad)

    def test_matrix_of_another_score_table_rejected(self, trained, small_cohort):
        """A matrix folded with another score table is refused, naming the
        table, not scored with the model's fits; one folded with an equal
        table loaded on its own is scored as the training matrix is."""
        _, matrix, model = trained
        other = load_default_score_table().to_json_obj()
        other["default_score"] += 1
        message = r"does not match the trained model's FeatureSpec\(.*\) in score_table$"
        for table in (ScoreTable.from_json_obj(other), one_bin_heart_rate_table()):
            tables = filter_cohort(window_tables(small_cohort, 720, table))
            with pytest.raises(ValueError, match=message):
                score_patients(model, build_feature_matrix(tables, model.spec.variable_names))
        again = ScoreTable.from_json_obj(load_default_score_table().to_json_obj())
        tables = filter_cohort(window_tables(small_cohort, 720, again))
        same = score_patients(model, build_feature_matrix(tables, model.spec.variable_names))
        whole = score_patients(model, matrix)
        assert [same[day].eta.tobytes() for day in model] == [whole[day].eta.tobytes() for day in model]

    def test_model_records_the_table_its_matrix_was_folded_with(self, trained, small_cohort):
        """The model's spec, and so `model.json`, hold the table the training
        tables were folded with: no other table can be given to the fit."""
        _, _, model = trained
        table = one_bin_heart_rate_table()
        tables = filter_cohort(window_tables(small_cohort, 720, table))
        matrix = build_feature_matrix(tables, tables.variables)
        other = fit_risk_model(fit_feature_stage(matrix, 4, seed=[0]), [TargetSpec(2)])
        assert other.spec is matrix.spec and other.spec.score_table is table
        assert models_to_obj(other)["score_table"] == table.to_json_obj()
        assert models_to_obj(model)["score_table"] == load_default_score_table().to_json_obj()
        assert not hasattr(other, "score_table")

    @pytest.mark.parametrize("window_hours", [6, 8, 24])
    def test_window_size_mismatch_rejected(self, trained, small_cohort, window_hours):
        """A matrix in other windows than the model's is refused with both
        specs named, not scored with the wrong windows' fits."""
        _, _, model = trained
        table = load_default_score_table()
        other = build_feature_matrix(window_tables(small_cohort, 60 * window_hours, table), model.spec.variable_names)
        with pytest.raises(ValueError, match=rf"window_hours={window_hours}\).*window_hours=12\)"):
            score_patients(model, other)

    def test_risk_does_not_depend_on_the_patients_scored_with_it(self, trained):
        """A patient's risk has the same bytes scored alone, in reversed
        patient order and in the whole cohort."""
        _, matrix, model = trained
        whole = score_patients(model, matrix)
        backwards = score_patients(model, matrix.subset(np.arange(matrix.n_patients)[::-1]))
        for day in model:
            assert backwards[day].eta[::-1].tobytes() == whole[day].eta.tobytes()
        for i in range(matrix.n_patients):
            alone = score_patients(model, matrix.subset([i]))
            assert [alone[day].eta.tobytes() for day in model] == [whole[day].eta[i:i + 1].tobytes() for day in model]

    def test_each_window_design_ranked_once_for_all_days(self, trained, monkeypatch):
        """The aliased columns of a window's design are found once and shared
        by the fits of all four target days."""
        cohort, matrix, _ = trained
        stage = fit_feature_stage(matrix, 4, seed=[0])
        calls = count_calls(monkeypatch, icurisk.survival, "_spanning_columns")
        fit_risk_model(stage, [TargetSpec(d) for d in (2, 3, 4, 5)])
        assert calls == {"_spanning_columns": matrix.spec.n_windows}

    def test_remaining_duration_mode_trains_and_scores(self, trained):
        _, matrix, _ = trained
        stage = fit_feature_stage(matrix, 4, seed=[1])
        model = fit_risk_model(stage, [TargetSpec(3, "remaining")])
        etas = score_patients(model, matrix)[3].eta
        assert np.all((etas >= 0) & (etas <= 1))
        assert len(np.unique(etas)) > 10  # still discriminates

    def test_nan_cell_medians_survive_serialization(self, trained):
        cohort, matrix, model = trained
        cell = model.medians.cell.copy()
        cell[0, 0] = np.nan  # a cell with no training data
        patched = dataclasses.replace(model, medians=dataclasses.replace(model.medians, cell=cell))
        obj = json.loads(json.dumps(models_to_obj(patched), sort_keys=True))
        restored, _ = models_from_obj(obj)
        assert np.isnan(restored.medians.cell[0, 0])
        assert np.array_equal(
            restored.medians.cell[1:], patched.medians.cell[1:], equal_nan=True
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_training_does_not_depend_on_patient_order(seed):
    """A 4,000-patient cohort (the benchmark's settings) and the same
    patients in another order train the same medoids, states and emission
    tables: PAM searches all distinct rows, with ties in sorted order."""
    table = load_default_score_table()
    cohort = filter_cohort(window_tables(generate_synthetic_cohort(SynthConfig(
        n_patients=4000, n_variables=5, prevalence_target=0.15, missing_rate=0.1,
        sampling_rate_per_hour=1.0, seed=seed,
    )), 720, table))
    matrix = build_feature_matrix(cohort, cohort.variables)
    perm = np.random.default_rng(seed).permutation(matrix.n_patients)
    runs = []
    for order in (np.arange(matrix.n_patients), perm):
        ordered = matrix.subset(order)
        hours, died = cohort.event_hours[order], cohort.died[order]
        stage = fit_feature_stage(ordered, 4)
        model = fit_risk_model(stage, [TargetSpec(d) for d in (2, 3, 4, 5)])
        states, emissions, designs = {}, {}, window_designs(ordered, stage.rows)
        for day, day_fit in model.days.items():
            _, events = censor_by_target(hours, died, day_fit.target.target_hours)
            states[day] = label_hidden_states(ordered, designs, events, day_fit.fits, day_fit.target).states
            emissions[day] = day_fit.emissions
        runs.append((stage, states, emissions))
    (stage, states, emissions), (p_stage, p_states, p_emissions) = runs
    assert stage.cluster.medoids.tobytes() == p_stage.cluster.medoids.tobytes()
    assert np.array_equal(stage.sequences[perm], p_stage.sequences)
    for day in (2, 3, 4, 5):
        assert np.array_equal(states[day][perm], p_states[day])
        assert emissions[day].initial.tobytes() == p_emissions[day].initial.tobytes()
        assert emissions[day].transition.tobytes() == p_emissions[day].transition.tobytes()


class TestSurvivalCurve:
    def test_complement_of_risk(self, trained):
        cohort, matrix, model = trained
        eta, died = score_patients(model, matrix)[2].eta, cohort.died
        bands = survival_curve({2: eta}, died)
        band = next(b for b in bands if b.group == "death")
        assert band.mean_survival == pytest.approx(1.0 - np.mean(eta[died]))

    def test_bounds_and_order(self, trained):
        cohort, matrix, model = trained
        etas = {d: scores.eta for d, scores in score_patients(model, matrix).items()}
        bands = survival_curve(etas, cohort.died)
        assert len(bands) == 8
        for b in bands:
            assert 0.0 <= b.ci_low <= b.mean_survival <= b.ci_high <= 1.0

    def test_single_patient_group_zero_width(self, trained):
        cohort, matrix, model = trained
        eta, died = score_patients(model, matrix)[2].eta, cohort.died
        rows = np.concatenate((np.flatnonzero(died)[:1], np.flatnonzero(~died)))
        bands = survival_curve({2: eta[rows]}, died[rows])
        band = next(b for b in bands if b.group == "death")
        assert band.ci_low == band.ci_high == band.mean_survival == pytest.approx(1.0 - eta[rows[0]])

    def test_missing_group_warns_and_skips(self, trained):
        cohort, matrix, model = trained
        eta, died = score_patients(model, matrix)[2].eta, cohort.died
        with pytest.warns(UserWarning, match="death"):
            bands = survival_curve({2: eta[~died]}, died[~died])
        assert all(b.group == "survival" for b in bands)
