import csv
import json
import os

import numpy as np
import pytest

from icurisk.cohort import (
    RawCohort,
    SynthConfig,
    _observation_parts,
    _RowIds,
    _SeenTexts,
    _texts,
    generate_synthetic_cohort,
    write_observations,
    write_outcomes,
)
import oracles


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


def parse_observations(stream) -> dict:
    """The observation columns the library parses from a binary CSV stream,
    in the form of `oracles.ingest_rows`: the parts of `_observation_parts`
    concatenated, with the patients numbered by first appearance
    (`_RowIds.numbering`), then sorted by patient and offset, ties in file
    order."""
    patients, variables = _RowIds(), _SeenTexts()
    parts = list(_observation_parts(stream, patients, variables))
    patient, variable, offset, value = (np.concatenate(column) for column in zip(*parts))
    rank, ids = patients.numbering()
    patient = rank[patient]
    order = np.lexsort((offset, patient))
    return {
        "patient_ids": _texts(ids),
        "vocabulary": tuple(variables.index),
        "patient": patient[order],
        "variable": variable[order],
        "offset_minutes": offset[order],
        "value": value[order],
    }


def rows_cohort(observations, outcomes) -> RawCohort:
    """The cohort in two CSV files as `oracles.ingest_rows` reads the
    observations, one record at a time, with the outcomes paired by id."""
    with open(observations, "rb") as f:
        columns = oracles.ingest_rows(f)
    with open(outcomes, encoding="utf-8", newline="") as f:
        rows = {pid: (float(hours), flag == "1") for pid, hours, flag in [r for r in csv.reader(f) if r][1:]}
    outcome = [rows[pid] for pid in columns["patient_ids"]]
    return RawCohort(**columns, event_hours=[h for h, _ in outcome], died=[d for _, d in outcome])


TABLE_ARRAYS = ("worst", "seen", "n_rows", "event_hours", "died")


def assert_same_tables(got, expected):
    """Two WindowTables alike in every field, bit for bit."""
    assert got.patient_ids == expected.patient_ids
    assert got.vocabulary == expected.vocabulary
    assert got.window_minutes == expected.window_minutes
    assert got.score_table is expected.score_table
    for name in TABLE_ARRAYS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


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


def no_child_left():
    """This process has no child, live or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
