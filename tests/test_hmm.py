import json

import numpy as np
import pytest

from icurisk.cohort import filter_cohort
from icurisk.features import FeatureSpec, build_feature_matrix, load_default_score_table
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
from icurisk.survival import TargetSpec
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


@pytest.fixture(scope="module")
def trained(small_cohort):
    cohort = filter_cohort(small_cohort)
    table = load_default_score_table()
    variables = sorted({o.variable for obs in cohort.patients.values() for o in obs})
    matrix = build_feature_matrix(cohort, FeatureSpec(tuple(variables), 12), table)
    stage = fit_feature_stage(matrix, 4, seed=[0])
    models = {
        day: fit_risk_model(
            matrix, cohort.outcomes, TargetSpec(day, 12), table, stage=stage
        )
        for day in (2, 3, 4, 5)
    }
    return cohort, matrix, models


class TestRiskModel:
    def test_scores_bounded(self, trained):
        _, matrix, models = trained
        for model in models.values():
            for s in score_patients(model, matrix):
                assert 0.0 <= s.eta <= 1.0

    def test_scoring_is_pure(self, trained):
        _, matrix, models = trained
        a = [s.eta for s in score_patients(models[2], matrix)]
        b = [s.eta for s in score_patients(models[2], matrix)]
        assert a == b

    def test_serialization_round_trip(self, trained):
        _, matrix, models = trained
        obj = json.loads(json.dumps(models_to_obj(models, {"seed": 0}), sort_keys=True))
        restored, config = models_from_obj(obj)
        assert config == {"seed": 0}
        for day, model in models.items():
            original = [s.eta for s in score_patients(model, matrix)]
            revived = [s.eta for s in score_patients(restored[day], matrix)]
            assert original == revived

    def test_variable_mismatch_rejected(self, trained):
        cohort, matrix, models = trained
        other_spec = FeatureSpec(("something_else",), 12)
        bad = type(matrix)(matrix.patient_ids, other_spec, matrix.y[:, :, :1], matrix.b[:, :, :1])
        with pytest.raises(ValueError, match="variables"):
            score_patients(models[2], bad)

    def test_remaining_duration_mode_trains_and_scores(self, trained):
        cohort, matrix, _ = trained
        table = load_default_score_table()
        model = fit_risk_model(
            matrix, cohort.outcomes, TargetSpec(3, 12, "remaining"), table, seed=[1]
        )
        etas = np.array([s.eta for s in score_patients(model, matrix)])
        assert np.all((etas >= 0) & (etas <= 1))
        assert len(np.unique(etas)) > 10  # still discriminates

    def test_nan_cell_medians_survive_serialization(self, trained):
        cohort, matrix, models = trained
        model = models[2]
        medians = model.medians
        cell = medians.cell.copy()
        cell[0, 0] = np.nan  # a cell with no training data
        patched = type(model)(
            spec=model.spec,
            score_table=model.score_table,
            target=model.target,
            medians=type(medians)(cell=cell, overall=medians.overall),
            cluster=model.cluster,
            fits=model.fits,
            emissions=model.emissions,
        )
        obj = json.loads(json.dumps(models_to_obj({2: patched}), sort_keys=True))
        restored, _ = models_from_obj(obj)
        assert np.isnan(restored[2].medians.cell[0, 0])
        assert np.array_equal(
            restored[2].medians.cell[1:], patched.medians.cell[1:], equal_nan=True
        )


class TestSurvivalCurve:
    def test_complement_of_risk(self, trained):
        cohort, matrix, models = trained
        scores = {2: score_patients(models[2], matrix)}
        bands = survival_curve(scores, cohort.outcomes)
        death_etas = [
            s.eta for s in scores[2] if cohort.outcomes[s.patient_id].death_flag
        ]
        band = next(b for b in bands if b.group == "death")
        assert band.mean_survival == pytest.approx(1.0 - np.mean(death_etas))

    def test_bounds_and_order(self, trained):
        cohort, matrix, models = trained
        scores = {d: score_patients(models[d], matrix) for d in (2, 3, 4, 5)}
        bands = survival_curve(scores, cohort.outcomes)
        assert len(bands) == 8
        for b in bands:
            assert 0.0 <= b.ci_low <= b.mean_survival <= b.ci_high <= 1.0

    def test_single_patient_group_zero_width(self, trained):
        cohort, matrix, models = trained
        dead = [
            s for s in score_patients(models[2], matrix)
            if cohort.outcomes[s.patient_id].death_flag
        ][:1]
        alive = [
            s for s in score_patients(models[2], matrix)
            if not cohort.outcomes[s.patient_id].death_flag
        ]
        bands = survival_curve({2: dead + alive}, cohort.outcomes)
        band = next(b for b in bands if b.group == "death")
        assert band.ci_low == band.ci_high == band.mean_survival == pytest.approx(1.0 - dead[0].eta)

    def test_missing_group_warns_and_skips(self, trained):
        cohort, matrix, models = trained
        alive_only = [
            s for s in score_patients(models[2], matrix)
            if not cohort.outcomes[s.patient_id].death_flag
        ]
        with pytest.warns(UserWarning, match="death"):
            bands = survival_curve({2: alive_only}, cohort.outcomes)
        assert all(b.group == "survival" for b in bands)
