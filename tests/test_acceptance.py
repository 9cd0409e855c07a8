"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import itertools
import json
import math
import time

import mpmath
import numpy as np
import pytest

from icurisk.cli import main as cli_main
from icurisk.cohort import SynthConfig, filter_cohort, generate_synthetic_cohort, window_tables
from icurisk.evaluation import (
    ScoredSet,
    auroc,
    aucpr,
    concordance,
    logistic_grad,
    logistic_loglik,
    paired_t_test_one_tailed,
    run_cv,
)
from icurisk.features import (
    NUMERIC,
    BINARY,
    build_feature_matrix,
    gower_matrix,
    load_default_score_table,
    numeric_ranges,
    pam_cluster,
)
from icurisk.hmm import (
    EmissionModel,
    fit_feature_stage,
    fit_risk_model,
    risk_score,
    score_patients,
    survival_curve,
)
from icurisk.survival import (
    TargetSpec,
    exponential_grad,
    exponential_loglik,
    fit_exponential_regression,
)
from oracles import eta_enumerate, total_sequence_probability

ACCEPTANCE_SEED = 123


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} failed: {detail}"


def random_emission_tables(rng, k):
    initial = rng.uniform(0.02, 1.0, (k, 2))
    initial /= initial.sum(axis=0, keepdims=True)
    transition = rng.uniform(0.02, 1.0, (k, k, 2))
    transition /= transition.sum(axis=0, keepdims=True)
    return EmissionModel(initial=initial, transition=transition, alpha=1.0)


@pytest.fixture(scope="module")
def random_hmm_instances():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    instances = []
    for _ in range(500):
        T = int(rng.integers(1, 11))
        k = int(rng.integers(2, 6))
        em = random_emission_tables(rng, k)
        theta = rng.uniform(0.02, 0.98, T)
        x = rng.integers(1, k + 1, T)
        instances.append((theta, em, x))
    return instances


@pytest.fixture(scope="module")
def synthetic_cohort():
    cfg = SynthConfig(
        n_patients=4000,
        n_variables=5,
        prevalence_target=0.15,
        missing_rate=0.1,
        sampling_rate_per_hour=1.0,
        seed=ACCEPTANCE_SEED,
    )
    return generate_synthetic_cohort(cfg)


@pytest.mark.acceptance
def test_01_risk_score_oracle_equivalence(random_hmm_instances):
    start = time.monotonic()
    worst = 0.0
    for theta, em, x in random_hmm_instances:
        a = eta_enumerate(theta, em, x)
        b = risk_score(theta, em, x)
        worst = max(worst, abs(a - b))
    elapsed = time.monotonic() - start
    report(
        1,
        "risk-score enumeration vs factorized recursion",
        worst <= 1e-12 and elapsed < 10.0,
        f"max |diff| = {worst:.2e}, {elapsed:.1f}s for 500 instances",
    )


@pytest.mark.acceptance
def test_02_normalization_identity(random_hmm_instances):
    worst = 0.0
    for theta, em, x in random_hmm_instances:
        total_enum = total_sequence_probability(theta, em, x, method="enumeration")
        total_fact = total_sequence_probability(theta, em, x, method="factorized")
        worst = max(worst, abs(total_enum - total_fact) / total_fact)
    report(
        2,
        "sum over state sequences equals factorized product",
        worst <= 1e-12,
        f"max rel err = {worst:.2e}",
    )


@pytest.mark.acceptance
def test_03_mle_oracles():
    rng = np.random.default_rng(ACCEPTANCE_SEED)

    worst_mle = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 120))
        times = rng.uniform(1, 200, n)
        events = (rng.random(n) < 0.4).astype(float)
        if events.sum() == 0:
            events[0] = 1.0
        fit = fit_exponential_regression(np.ones((n, 1)), times, events)
        closed = math.log(events.sum() / times.sum())
        worst_mle = max(worst_mle, abs(fit.beta[0] - closed) / abs(closed))

    h = 1e-5
    worst_grad = 0.0
    for _ in range(20):
        n, d = 50, 4
        X = np.column_stack([np.ones(n), rng.uniform(0, 2, (n, d - 1))])
        times = rng.uniform(1, 100, n)
        events = (rng.random(n) < 0.5).astype(float)
        beta = rng.normal(0, 0.3, d)
        grad = exponential_grad(beta, X, times, events)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (
                exponential_loglik(beta + e, X, times, events)
                - exponential_loglik(beta - e, X, times, events)
            ) / (2 * h)
            worst_grad = max(worst_grad, abs(grad[j] - fd) / max(abs(fd), 1e-12))
    for _ in range(20):
        n, d = 50, 4
        X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, d - 1))])
        y = rng.integers(0, 2, n).astype(float)
        beta = rng.normal(0, 0.4, d)
        grad = logistic_grad(beta, X, y)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (logistic_loglik(beta + e, X, y) - logistic_loglik(beta - e, X, y)) / (2 * h)
            worst_grad = max(worst_grad, abs(grad[j] - fd) / max(abs(fd), 1e-12))

    report(
        3,
        "closed-form exponential MLE and finite-difference gradients",
        worst_mle <= 1e-10 and worst_grad <= 1e-6,
        f"MLE rel err = {worst_mle:.2e}, grad rel err = {worst_grad:.2e}",
    )


@pytest.mark.acceptance
def test_04_pam_small_scale_optimality():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(3, n) + 1))
        kinds = tuple(NUMERIC if rng.random() < 0.7 else BINARY for _ in range(d))
        rows = np.empty((n, d))
        for j in range(d):
            rows[:, j] = rng.uniform(0, 10, n) if kinds[j] == NUMERIC else rng.integers(0, 2, n)
        ranges = numeric_ranges(rows, kinds)
        distinct = {tuple(r) for r in rows}
        if k > len(distinct):
            continue
        _, _, cost = pam_cluster(rows, k, kinds=kinds, ranges=ranges)
        dist = gower_matrix(rows, rows, kinds, ranges)
        uniq_idx = list({tuple(rows[i]): i for i in range(n)}.values())
        optimum = min(
            dist[:, list(c)].min(axis=1).sum()
            for c in itertools.combinations(uniq_idx, k)
        )
        worst = max(worst, abs(cost - optimum))
        checked += 1
    report(
        4,
        "k-medoid cost equals exhaustive optimum at small scale",
        worst <= 1e-12,
        f"100 instances, max |cost diff| = {worst:.2e}",
    )


@pytest.mark.acceptance
def test_05_metric_oracles():
    rng = np.random.default_rng(ACCEPTANCE_SEED)

    def brute_auroc(s):
        pos = s.scores[s.labels == 1]
        neg = s.scores[s.labels == 0]
        credit = sum(
            1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
        )
        return credit / (len(pos) * len(neg))

    def brute_concordance(s):
        num = den = 0.0
        n = len(s.scores)
        for i in range(n):
            for j in range(n):
                if s.times[i] < s.times[j] and s.events[i] == 1:
                    den += 1
                    if s.scores[i] > s.scores[j]:
                        num += 1
                    elif s.scores[i] == s.scores[j]:
                        num += 0.5
        return num / den if den else None

    exact = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(10, 201))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            continue
        scores = rng.choice(np.linspace(0, 1, 17), n)  # coarse grid forces ties
        times = rng.integers(1, 50, n).astype(float)
        events = rng.integers(0, 2, n)
        s = ScoredSet(scores, labels, times, events)
        if brute_concordance(s) is None:
            continue
        exact &= auroc(s) == brute_auroc(s)
        exact &= concordance(s) == brute_concordance(s)
        checked += 1

    prevalence = 0.15
    labels = (rng.random(1000) < prevalence).astype(int)
    values = [aucpr(ScoredSet(rng.uniform(0, 1, 1000), labels, np.ones(1000), labels)) for _ in range(200)]
    gap = abs(float(np.mean(values)) - labels.mean())

    report(
        5,
        "pairwise metric oracles and random-scorer AUCPR baseline",
        exact and gap <= 0.02,
        f"pairwise exact = {exact}, AUCPR gap to prevalence = {gap:.4f}",
    )


@pytest.mark.acceptance
@pytest.mark.slow
def test_06_directional_replication(synthetic_cohort):
    start = time.monotonic()
    table = load_default_score_table()
    rep = run_cv(
        window_tables(synthetic_cohort, 720, table),
        repeats=10,
        seed=ACCEPTANCE_SEED,
    )
    elapsed = time.monotonic() - start
    passing_days = 0
    details = []
    for day in (2, 3, 4, 5):
        model = rep.summary[day]["chf_ar_hmm"]["auroc"]["mean"]
        saps = rep.summary[day]["saps"]["auroc"]["mean"]
        if model > 0.70 and model - saps >= 0.01:
            passing_days += 1
        details.append(f"d{day}: {model:.3f} vs {saps:.3f}")
    report(
        6,
        "synthetic-cohort AUROC beats the max-score baseline",
        passing_days >= 3 and elapsed < 300.0,
        f"{passing_days}/4 days, {elapsed:.0f}s; " + ", ".join(details),
    )


@pytest.mark.acceptance
@pytest.mark.slow
def test_07_survival_curve_separation(synthetic_cohort):
    table = load_default_score_table()
    cohort = filter_cohort(window_tables(synthetic_cohort, 720, table))
    matrix = build_feature_matrix(cohort, cohort.variables)
    stage = fit_feature_stage(matrix, 4, seed=[ACCEPTANCE_SEED])
    targets = [TargetSpec(day) for day in (2, 3, 4, 5)]
    model = fit_risk_model(stage, targets)
    eta_by_day = {day: scores.eta for day, scores in score_patients(model, matrix).items()}
    bands = survival_curve(eta_by_day, cohort.died)
    death = [b.mean_survival for b in bands if b.group == "death"]
    alive = [b.mean_survival for b in bands if b.group == "survival"]
    separated = all(d < s for d, s in zip(death, alive))
    monotone = all(a >= b for a, b in zip(death, death[1:])) and all(
        a >= b for a, b in zip(alive, alive[1:])
    )
    report(
        7,
        "survival curves separate groups and decay with the horizon",
        separated and monotone,
        f"death {['%.3f' % v for v in death]}, survival {['%.3f' % v for v in alive]}",
    )


@pytest.mark.acceptance
@pytest.mark.slow
def test_08_end_to_end_determinism(tmp_path):
    config = {
        "paths": {"out_dir": ""},
        "target_days": [2, 3, 4, 5],
        "cv": {"folds": 3, "repeats": 2},
        "seed": ACCEPTANCE_SEED,
        "synth": {
            "n_patients": 600,
            "n_variables": 5,
            "prevalence_target": 0.35,
            "missing_rate": 0.1,
            "sampling_rate_per_hour": 1.0,
            "seed": ACCEPTANCE_SEED,
        },
    }
    outputs = {}
    for run_name in ("first", "second"):
        base = tmp_path / run_name
        base.mkdir()
        out = base / "out"
        config["paths"] = {
            "observations": str(out / "observations.csv"),
            "outcomes": str(out / "outcomes.csv"),
            "out_dir": str(out),
        }
        cfg_path = base / "config.json"
        cfg_path.write_text(json.dumps(config))
        for command in ("synth", "train", "evaluate", "curves"):
            assert cli_main([command, "--config", str(cfg_path)]) == 0
        outputs[run_name] = {
            name: (out / name).read_bytes()
            for name in (
                "observations.csv",
                "outcomes.csv",
                "model.json",
                "report.json",
                "metrics.csv",
                "curves.csv",
            )
        }
    identical = outputs["first"] == outputs["second"]
    report(8, "end-to-end byte-identical reruns", identical, "6 artifact files compared")


@pytest.mark.acceptance
def test_09_paired_t_test_reference():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    mpmath.mp.dps = 50

    def reference_p(d):
        m = len(d)
        mean = mpmath.fsum(d) / m
        var = mpmath.fsum([(x - mean) ** 2 for x in d]) / (m - 1)
        t = mean / (mpmath.sqrt(var) / mpmath.sqrt(m))
        nu = m - 1
        const = mpmath.gamma((nu + 1) / 2) / (
            mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2)
        )
        pdf = lambda u: const * (1 + u * u / nu) ** (-(nu + 1) / 2)
        return float(mpmath.quad(pdf, [t, mpmath.inf]))

    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 13))
        a = rng.normal(0.02, 0.05, m)
        b = rng.normal(0.0, 0.05, m)
        p = paired_t_test_one_tailed(a, b)
        worst = max(worst, abs(p - reference_p(list(a - b))))
    report(
        9,
        "one-tailed paired t-test vs 50-digit quadrature",
        worst <= 1e-8,
        f"max |diff| = {worst:.2e} over 50 cases",
    )
