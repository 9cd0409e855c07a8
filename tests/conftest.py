import json

import numpy as np
import pytest

from icurisk.cohort import (
    RawCohort,
    SynthConfig,
    generate_synthetic_cohort,
    write_observations,
    write_outcomes,
)


@pytest.fixture(scope="session")
def small_cohort():
    """Cohort with enough events that no CV fold risks quasi-separation."""
    cfg = SynthConfig(
        n_patients=600,
        n_variables=5,
        prevalence_target=0.35,
        missing_rate=0.1,
        sampling_rate_per_hour=1.0,
        seed=424242,
    )
    return generate_synthetic_cohort(cfg)


def cohort_from_rows(rows, outcomes):
    """RawCohort from (patient_id, variable, offset_minutes, value) rows and
    {patient_id: (event_hours, death_flag)}; patients follow the outcomes'
    order and may have no rows."""
    index = {pid: i for i, pid in enumerate(outcomes)}
    rows = sorted(rows, key=lambda r: (index[r[0]], r[2]))  # stable
    codes = {}
    variable = [codes.setdefault(r[1], len(codes)) for r in rows]
    return RawCohort(
        patient_ids=list(outcomes),
        vocabulary=tuple(codes),
        patient=[index[r[0]] for r in rows],
        variable=variable,
        offset_minutes=[r[2] for r in rows],
        value=[r[3] for r in rows],
        event_hours=np.array([hours for hours, _ in outcomes.values()], dtype=float),
        died=np.array([died for _, died in outcomes.values()], dtype=bool),
    )


def count_calls(monkeypatch, module, *names):
    """Replace each named function of `module` with one that counts its
    calls; returns the live {name: count} dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def write_cohort_files(cohort, directory):
    obs = directory / "observations.csv"
    out = directory / "outcomes.csv"
    write_observations(cohort, obs)
    write_outcomes(cohort, out)
    return obs, out


def write_config(directory, **overrides):
    cfg = {
        "paths": {
            "observations": str(directory / "observations.csv"),
            "outcomes": str(directory / "outcomes.csv"),
            "out_dir": str(directory / "out"),
        },
        "target_days": [2, 3, 4, 5],
        "cv": {"folds": 3, "repeats": 2},
        "seed": 11,
        "synth": {
            "n_patients": 600,
            "n_variables": 5,
            "prevalence_target": 0.35,
            "missing_rate": 0.1,
            "sampling_rate_per_hour": 1.0,
            "seed": 424242,
        },
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = directory / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path
