"""Patient data model, CSV ingestion, and a seeded synthetic cohort generator.

A cohort is one table of observations in parallel columns (patient, variable,
offset, value), one row per CSV row, plus one outcome per patient.
`window_cells` is the one rule that places rows in first-day windows; patient
filtering, the feature matrix and the baseline features all use it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

OBSERVATIONS_HEADER = ("patient_id", "variable", "offset_minutes", "value")
OUTCOMES_HEADER = ("patient_id", "event_hours", "death_flag")

FIRST_DAY_MINUTES = 1440

# Day used to anchor the synthetic generator's prevalence calibration.
PREVALENCE_REFERENCE_DAY = 5

DEFAULT_REQUIRED_VARIABLES = ("heart_rate", "blood_pressure", "gcs")


class CohortError(ValueError):
    """Invalid cohort content (bad values, broken invariants)."""


class ParseError(CohortError):
    """Malformed CSV input; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class PatientOutcome:
    patient_id: str
    event_hours: float
    death_flag: bool

    def __post_init__(self):
        if not (math.isfinite(self.event_hours) and self.event_hours > 0):
            raise CohortError(
                f"event_hours must be finite and > 0, got {self.event_hours} "
                f"for {self.patient_id}"
            )


@dataclass(eq=False)
class RawCohort:
    """Observations as parallel columns, plus one outcome per patient.

    Row i is variable `vocabulary[variable[i]]` of patient
    `patient_ids[patient[i]]`, sampled `offset_minutes[i]` after admission
    with value `value[i]`. Rows are sorted by patient, then offset.
    """

    patient_ids: list[str]
    vocabulary: tuple[str, ...]
    patient: np.ndarray          # (rows,) int64 index into patient_ids
    variable: np.ndarray         # (rows,) int64 index into vocabulary
    offset_minutes: np.ndarray   # (rows,) int64
    value: np.ndarray            # (rows,) float64
    outcomes: dict[str, PatientOutcome]

    def __post_init__(self):
        self.patient = np.asarray(self.patient, dtype=np.int64)
        self.variable = np.asarray(self.variable, dtype=np.int64)
        self.offset_minutes = np.asarray(self.offset_minutes, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=float)
        n_rows = self.patient.size
        columns = (self.patient, self.variable, self.offset_minutes, self.value)
        if any(col.shape != (n_rows,) for col in columns):
            raise CohortError("observation columns must be 1-D and of equal length")
        if set(self.patient_ids) != set(self.outcomes):
            missing = sorted(set(self.patient_ids) ^ set(self.outcomes))[:5]
            raise CohortError(
                f"observations and outcomes cover different patients (e.g. {missing})"
            )
        if n_rows == 0:
            return
        if not (
            0 <= self.patient.min() and self.patient.max() < len(self.patient_ids)
            and 0 <= self.variable.min() and self.variable.max() < len(self.vocabulary)
        ):
            raise CohortError("patient index or variable code out of range")
        if self.offset_minutes.min() < 0:
            raise CohortError(f"offset_minutes must be >= 0, got {self.offset_minutes.min()}")
        if not np.all(np.isfinite(self.value)):
            raise CohortError("non-finite observation value")
        step = np.diff(self.patient)
        back = (step < 0) | ((step == 0) & (np.diff(self.offset_minutes) < 0))
        if back.any():
            pid = self.patient_ids[self.patient[np.argmax(back) + 1]]
            raise CohortError(f"observations are not sorted by patient, then offset (at {pid})")

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def variables(self) -> list[str]:
        """Sorted names of the variables with at least one row in this cohort."""
        return sorted(self.vocabulary[code] for code in np.unique(self.variable).tolist())

    @property
    def patients(self) -> dict[str, range]:
        """Each patient's row indices, in patient order."""
        bounds = np.searchsorted(self.patient, np.arange(self.n_patients + 1)).tolist()
        return {pid: range(a, b) for pid, a, b in zip(self.patient_ids, bounds, bounds[1:])}

    def subset(self, keep) -> "RawCohort":
        """The patients where the boolean mask `keep` is true, with their rows."""
        keep = np.asarray(keep, dtype=bool)
        rows = keep[self.patient]
        ids = [pid for pid, kept in zip(self.patient_ids, keep.tolist()) if kept]
        return RawCohort(
            patient_ids=ids,
            vocabulary=self.vocabulary,
            patient=(np.cumsum(keep) - 1)[self.patient[rows]],
            variable=self.variable[rows],
            offset_minutes=self.offset_minutes[rows],
            value=self.value[rows],
            outcomes={pid: self.outcomes[pid] for pid in ids},
        )


def _csv_rows(stream, header, what):
    """(line number, row) for each CSV row after the header row, which must
    equal `header`.

    A binary stream is decoded as UTF-8 while it is read, and a text stream
    is read as it is, so the file is never held in memory whole. The caller's
    stream is left open.
    """
    if isinstance(stream, (str, bytes)):
        raise TypeError("expected a file-like object, not a path or raw string")
    text = stream if isinstance(stream, io.TextIOBase) else io.TextIOWrapper(
        stream, encoding="utf-8", newline=""
    )
    try:
        reader = csv.reader(text)
        first = next(reader, None)
        if first is None:
            raise CohortError(f"no {what}")
        if tuple(first) != header:
            raise ParseError(1, f"expected header {','.join(header)}")
        yield from enumerate(reader, start=2)
    finally:
        if text is not stream and not stream.closed:
            text.detach()  # closing the wrapper would close the caller's stream


def ingest_observations(stream) -> dict:
    """Parse an observations CSV into every RawCohort field but `outcomes`.

    The stream must be UTF-8 CSV with header patient_id,variable,offset_minutes,value.
    Patients and variables are numbered in order of first appearance; rows
    at or beyond minute 1440 are kept.
    """
    patient_index: dict[str, int] = {}
    variable_code: dict[str, int] = {}
    patient, variable, offsets, values = [], [], [], []
    for line_no, row in _csv_rows(stream, OBSERVATIONS_HEADER, "observations"):
        if not row:
            continue
        if tuple(row) == OBSERVATIONS_HEADER:
            raise ParseError(line_no, "duplicate header row")
        if len(row) != 4:
            raise ParseError(line_no, f"expected 4 fields, got {len(row)}")
        pid, name, offset_s, value_s = row
        try:
            offset = int(offset_s)
        except ValueError:
            raise ParseError(line_no, f"non-integer offset_minutes {offset_s!r}") from None
        try:
            value = float(value_s)
        except ValueError:
            raise ParseError(line_no, f"non-numeric value {value_s!r}") from None
        if offset < 0:
            raise ParseError(line_no, f"offset_minutes must be >= 0, got {offset}")
        if not math.isfinite(value):
            raise ParseError(line_no, f"non-finite value for {pid}/{name}")
        patient.append(patient_index.setdefault(pid, len(patient_index)))
        variable.append(variable_code.setdefault(name, len(variable_code)))
        offsets.append(offset)
        values.append(value)

    if not patient:
        raise CohortError("no observations")
    patient, offsets = np.array(patient), np.array(offsets)
    order = np.lexsort((offsets, patient))  # stable: ties keep file order
    return {
        "patient_ids": list(patient_index),
        "vocabulary": tuple(variable_code),
        "patient": patient[order],
        "variable": np.array(variable)[order],
        "offset_minutes": offsets[order],
        "value": np.array(values)[order],
    }


def ingest_outcomes(stream) -> dict[str, PatientOutcome]:
    """Parse an outcomes CSV; exactly one row per patient_id."""
    outcomes: dict[str, PatientOutcome] = {}
    for line_no, row in _csv_rows(stream, OUTCOMES_HEADER, "outcomes"):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(row)}")
        pid, hours_s, flag_s = row
        if pid in outcomes:
            raise ParseError(line_no, f"duplicate patient_id {pid!r}")
        try:
            hours = float(hours_s)
        except ValueError:
            raise ParseError(line_no, f"non-numeric event_hours {hours_s!r}") from None
        if flag_s not in ("0", "1"):
            raise ParseError(line_no, f"death_flag must be 0 or 1, got {flag_s!r}")
        try:
            outcomes[pid] = PatientOutcome(pid, hours, flag_s == "1")
        except CohortError as exc:
            raise ParseError(line_no, str(exc)) from None

    if not outcomes:
        raise CohortError("no outcomes")
    return outcomes


def load_cohort(observations_path, outcomes_path) -> RawCohort:
    with open(observations_path, "rb") as f:
        columns = ingest_observations(f)
    with open(outcomes_path, "rb") as f:
        outcomes = ingest_outcomes(f)
    return RawCohort(**columns, outcomes=outcomes)


def write_observations(cohort: RawCohort, path) -> None:
    pids = np.array(cohort.patient_ids, dtype=object)[cohort.patient].tolist()
    names = np.array(cohort.vocabulary, dtype=object)[cohort.variable].tolist()
    values = map(repr, cohort.value.tolist())
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(OBSERVATIONS_HEADER)
        writer.writerows(zip(pids, names, cohort.offset_minutes.tolist(), values))


def write_outcomes(cohort: RawCohort, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(OUTCOMES_HEADER)
        for pid in cohort.outcomes:
            out = cohort.outcomes[pid]
            writer.writerow([pid, repr(out.event_hours), int(out.death_flag)])


def window_cells(cohort: RawCohort, variable_names, window_minutes: int, n_windows: int):
    """The one window rule: window t (0-based) holds offsets in
    [window_minutes * t, window_minutes * (t + 1)). Rows at or past
    window_minutes * n_windows, and rows of other variables, are dropped.

    Returns the kept row indices and, per kept row, its patient index,
    window and position in `variable_names`.
    """
    position = {name: j for j, name in enumerate(variable_names)}
    column_of = np.array([position.get(name, -1) for name in cohort.vocabulary], dtype=np.int64)
    column = column_of[cohort.variable]
    window = cohort.offset_minutes // window_minutes
    rows = np.flatnonzero((column >= 0) & (window < n_windows))
    return rows, cohort.patient[rows], window[rows], column[rows]


def filter_cohort(
    cohort: RawCohort,
    required_variables=DEFAULT_REQUIRED_VARIABLES,
    window_hours: int = 12,
    min_stay_hours: float = 24.0,
) -> RawCohort:
    """Keep patients with >= 24 h of follow-up and complete required coverage.

    A patient qualifies when event_hours >= min_stay_hours and every required
    variable has at least one sample in every window of the first day.
    """
    required = list(dict.fromkeys(required_variables))
    n_windows = 24 // window_hours
    _, patient, window, column = window_cells(cohort, required, 60 * window_hours, n_windows)
    covered = np.zeros((cohort.n_patients, n_windows, len(required)), dtype=bool)
    covered[patient, window, column] = True
    stayed = [cohort.outcomes[pid].event_hours >= min_stay_hours for pid in cohort.patient_ids]
    return cohort.subset(np.array(stayed, dtype=bool) & covered.all(axis=(1, 2)))


# --------------------------------------------------------------------------
# Synthetic cohort generation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    n_patients: int
    n_variables: int
    prevalence_target: float
    missing_rate: float
    sampling_rate_per_hour: float
    seed: int

    def __post_init__(self):
        if self.n_patients < 1:
            raise CohortError("n_patients must be positive")
        if self.n_variables < 1:
            raise CohortError("n_variables must be positive")
        if not 0.0 < self.prevalence_target < 1.0:
            raise CohortError("prevalence_target must lie in (0, 1)")
        if not 0.0 <= self.missing_rate < 1.0:
            raise CohortError("missing_rate must lie in [0, 1)")
        if self.sampling_rate_per_hour <= 0:
            raise CohortError("sampling_rate_per_hour must be positive")
        if not 0 <= self.seed < 2**64:
            raise CohortError("seed must fit in 64 unsigned bits")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SynthConfig":
        expected = {
            "n_patients", "n_variables", "prevalence_target",
            "missing_rate", "sampling_rate_per_hour", "seed",
        }
        keys = set(obj)
        if keys != expected:
            extra = sorted(keys - expected)
            missing = sorted(expected - keys)
            raise CohortError(
                f"synthetic config must have exactly {sorted(expected)}; "
                f"missing {missing}, unexpected {extra}"
            )
        return cls(
            n_patients=int(obj["n_patients"]),
            n_variables=int(obj["n_variables"]),
            prevalence_target=float(obj["prevalence_target"]),
            missing_rate=float(obj["missing_rate"]),
            sampling_rate_per_hour=float(obj["sampling_rate_per_hour"]),
            seed=int(obj["seed"]),
        )


# Per-variable emission models: baseline, scale, noise sd, severity loading.
# Signs follow clinical direction (sicker = faster heart rate, lower pressure,
# lower GCS, higher temperature); baselines sit close to a score-bin boundary
# so severity shifts actually register in the discretized scores.
_VALUE_MODELS = {
    "heart_rate": (107.0, 16.0, 4.0, 0.92),
    "blood_pressure": (112.0, -15.0, 5.0, 0.82),
    "gcs": (14.2, -2.6, 0.5, 0.45),
    "temperature": (37.4, 1.0, 0.25, 0.88),
}
_EXTRA_VALUE_MODEL = (50.0, 10.0, 3.0, 0.5)

_SEVERITY_SLOPE = 2.0          # log-hazard per unit risk, hazard in 1/h
_TRAJECTORY_SD = 1.0           # sd of the per-patient deterioration slope
_TRAJECTORY_RISK_WEIGHT = 2.2  # the direction of travel outweighs the level
_AGE_RISK_WEIGHT = 0.18        # age joins acute severity in the hazard
_DISCHARGE_MIN_HOURS = 24.0
_DISCHARGE_SCALE_HOURS = 72.0  # mean extra stay beyond the first day


def synthetic_variable_names(n_variables: int) -> list[str]:
    canonical = ["heart_rate", "blood_pressure", "gcs", "temperature", "age"]
    names = canonical[:n_variables]
    names += [f"var_{i + 1}" for i in range(len(names), n_variables)]
    return names


def _death_by_probability(log_rate: float, tau_hours: float) -> float:
    # P(death before discharge and before tau) with discharge ~ 24h + Exp(scale)
    lam = math.exp(log_rate)
    mu = 1.0 / _DISCHARGE_SCALE_HOURS
    t0 = min(tau_hours, _DISCHARGE_MIN_HOURS)
    p = -math.expm1(-lam * t0)
    if tau_hours > _DISCHARGE_MIN_HOURS:
        span = tau_hours - _DISCHARGE_MIN_HOURS
        p += (lam / (lam + mu)) * math.exp(-lam * _DISCHARGE_MIN_HOURS) * -math.expm1(
            -(lam + mu) * span
        )
    return p


def _calibrate_intercept(prevalence_target: float, tau_hours: float) -> float:
    """Bisect the log-hazard intercept so the expected death fraction by tau
    matches the target, integrating over severity ~ N(0, 1)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(101)
    weights = weights / math.sqrt(2.0 * math.pi)

    def expected_fraction(b0):
        return float(
            sum(
                w * _death_by_probability(b0 + _SEVERITY_SLOPE * x, tau_hours)
                for x, w in zip(nodes, weights)
            )
        )

    lo, hi = -20.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_fraction(mid) < prevalence_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_synthetic_cohort(config: SynthConfig) -> RawCohort:
    """Generate a cohort that follows the model's own generative assumptions.

    Per patient: a latent severity vector drives both the observed physiology
    (with an upward drift across the first day for high-risk patients) and an
    exponential death time whose rate is the exponent of a linear function of
    severity. Discharge is drawn independently; event_hours records whichever
    comes first. Deterministic for a fixed config, independent of thread count.

    Parameters
    ----------
    config : SynthConfig
        Cohort size, variable count, target death fraction by day 5,
        missing-sample probability, sampling rate, and RNG seed.
    """
    rng = np.random.default_rng(config.seed)
    variables = synthetic_variable_names(config.n_variables)
    has_age = "age" in variables
    intercept = _calibrate_intercept(
        config.prevalence_target, 24.0 * PREVALENCE_REFERENCE_DAY
    )
    interval = 60.0 / config.sampling_rate_per_hour
    n_samples = max(1, int(math.floor(FIRST_DAY_MINUTES / interval)))
    width = len(str(config.n_patients))

    outcomes: dict[str, PatientOutcome] = {}
    patient, variable, offset_col, value_col = [], [], [], []
    for i in range(config.n_patients):
        pid = f"p{i + 1:0{width}d}"
        # Severity follows a linear trajectory over the first day, and the
        # hazard weights the direction of travel above the level: a patient
        # deteriorating toward a given state is in more danger than one
        # improving through it.
        severity = float(rng.standard_normal())
        slope = float(rng.standard_normal()) * _TRAJECTORY_SD
        z = rng.standard_normal(config.n_variables)
        course = (severity + _TRAJECTORY_RISK_WEIGHT * slope) / math.sqrt(
            1.0 + (_TRAJECTORY_RISK_WEIGHT * _TRAJECTORY_SD) ** 2
        )

        # Standard-normal risk: clinical course plus an age contribution.
        if has_age:
            w = math.sqrt(1.0 - _AGE_RISK_WEIGHT**2)
            risk = w * course + _AGE_RISK_WEIGHT * z[variables.index("age")]
        else:
            risk = course
        rate = math.exp(intercept + _SEVERITY_SLOPE * risk)
        t_death = rng.exponential(1.0 / rate)
        t_discharge = _DISCHARGE_MIN_HOURS + rng.exponential(_DISCHARGE_SCALE_HOURS)
        died = bool(t_death <= t_discharge)
        event_hours = float(min(t_death, t_discharge))

        for j, var in enumerate(variables):
            if var == "age":
                age = float(np.clip(round(62.0 + 14.0 * z[j]), 18.0, 100.0))
                if rng.random() < config.missing_rate:
                    continue
                offsets, values = np.zeros(1), np.array([age])
            else:
                offsets = np.arange(n_samples) * interval + rng.uniform(0.0, interval, n_samples)
                frac = offsets / FIRST_DAY_MINUTES
                base, scale, noise, loading = _VALUE_MODELS.get(var, _EXTRA_VALUE_MODEL)
                latent = (
                    loading * (severity + slope * frac)
                    + math.sqrt(1.0 - loading**2) * z[j]
                )
                values = base + scale * latent + rng.normal(0.0, noise, n_samples)
                if var == "gcs":
                    values = np.clip(np.rint(values), 3.0, 15.0)
                keep = rng.random(n_samples) >= config.missing_rate
                offsets, values = offsets[keep], values[keep]
            patient.append(np.full(offsets.size, i))
            variable.append(np.full(offsets.size, j))
            offset_col.append(offsets.astype(np.int64))  # whole minutes, truncated
            value_col.append(values)

        outcomes[pid] = PatientOutcome(pid, event_hours, died)

    patient, variable, offsets, values = (
        np.concatenate(c) for c in (patient, variable, offset_col, value_col)
    )
    order = np.lexsort((offsets, patient))  # stable: ties keep variable order
    return RawCohort(
        patient_ids=list(outcomes),
        vocabulary=tuple(variables),
        patient=patient[order],
        variable=variable[order],
        offset_minutes=offsets[order],
        value=values[order],
        outcomes=outcomes,
    )
