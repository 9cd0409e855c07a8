"""Reference implementations the library is checked against.

Each computes its result straight from the definition, slowly, and exists
only so tests can compare a library path with it:

- `eta_enumerate`, `total_sequence_probability(method="enumeration")` and
  `sequence_joint_probability` sum the joint probability over all 2^T state
  sequences (T <= ENUMERATION_LIMIT). They check the factorized log-space
  recursion behind `icurisk.hmm.risk_score` and `score_patients`
  (`_eta_forward_batch`, `_joint_logs`).
- `gower_distance` scores one pair of rows at a time. It checks the
  vectorized `icurisk.features.gower_matrix`.
- `score_value` scans a variable's bins for one value. It checks the
  vectorized `ScoreTable.scores`.
- `window_segment`, `discretize_scores`, `missingness_indicators`,
  `filter_ids` and `first_day_max_scores` walk each patient's rows one at a
  time, with the windows as nested dicts of lists. They check the columnar
  `build_feature_matrix`, `filter_cohort` and
  `icurisk.evaluation.first_day_max_scores`, which share one window fold
  (`icurisk.cohort.window_tables`).
- `subset` takes the patients of a boolean mask with one fancy index per
  column and a gather-and-remap of the patient column. It checks
  `icurisk.cohort.filter_cohort`, which takes the kept patients out of the
  window tables: they must equal `window_tables` of the subset.
- `auroc_rankdata` ranks the scores with `scipy.stats.rankdata`. It checks
  `icurisk.evaluation.auroc`, which builds the same mid-ranks with NumPy
  and must give the same float.
- `t_tail_betainc` takes the Student-t upper tail from
  `scipy.special.betainc`. It checks `icurisk.evaluation._t_upper_tail`,
  whose own continued fraction must agree to 1e-12 relative.
- `censor_by_target_loop` censors one patient's (hours, died) at a time.
  It checks the vectorised `icurisk.survival.censor_by_target`, which must
  give the same floats.
- `calibrate_intercept_bisection` runs all 200 bisection steps. It checks
  `icurisk.cohort._calibrate_intercept`, which stops once the interval can
  shrink no further and must return the same float.
- `concordance_pairs` builds the N x N comparable-pair and credit matrices,
  and `brute_force_concordance` loops over every pair in Python. They check
  the rank-counting `icurisk.evaluation.concordance`.
- `kde_all_samples` sums the kernel over every training sample at every
  query point, and `normalize_all_samples` builds the class-density share on
  it. They check `icurisk.survival.normalize_death_share` and
  `label_hidden_states`, which sum over distinct values with counts.
- `ingest_rows` parses an observations CSV one `csv` record at a time, with
  `int` and `float` per field. It checks the block-vectorised parser
  (`icurisk.cohort._observation_parts`, its parts joined and sorted by
  `conftest.parse_observations`), and `window_tables` of the cohort it reads
  checks the fold of the files, `icurisk.cohort.load_cohort`. A binary
  stream that is not UTF-8 makes it raise the decoder's bare
  UnicodeDecodeError.
- `generate_patient_loop` builds the synthetic cohort one patient and one
  variable at a time, drawing each distribution with its location and scale
  and concatenating per-variable arrays. It checks the array-based
  `icurisk.cohort.generate_synthetic_cohort`, which must make the same draws
  in the same order and give the same cohort bit for bit.
- `write_observations_rows` and `write_outcomes_rows` write one
  `csv.writer` row per observation or outcome. They check
  `icurisk.cohort.write_observations` and `write_outcomes`, which must write
  the same bytes.
- `newton_maximize_pinv` takes minimum-norm pseudo-inverse Newton steps on
  every column. It checks `icurisk.survival.newton_maximize`, which drops
  aliased columns and solves; on a full-rank design both reach the same MLE.
- `newton_maximize_callables` is the damped Newton loop with three
  callables of beta (log-likelihood, gradient, Hessian weights), each of
  which computes X beta, with the `exponential_*` and `logistic_*`
  callables that go with it. It checks `icurisk.survival.newton_maximize`,
  which computes X beta once per iterate: `fit_exponential_regression`,
  `_fit_exponential` and `fit_logistic` must give the same bytes of beta,
  iterations and gradient norm.
- `aucpr_stable_argsort` orders the scores by a stable descending argsort.
  It checks `icurisk.evaluation.aucpr`, which orders them by their ranks.
- `dedupe_rows_unique` groups rows with `np.unique(..., axis=0)`. It checks
  `icurisk.features.distinct_rows`, and `pam_cluster` must find the same
  medoids, labels and cost with it in place of `distinct_rows`.
- `silhouette_loop` builds the full n x n Gower matrix and scores one row
  at a time. It checks `icurisk.features.silhouette`, which scores each
  distinct (row, label) pair once, weighted by its count.
- `patient_scores`, `impute_patients`, `patient_window_design`,
  `patient_priors`, `risk_model_per_patient` and `score_per_patient` train
  and score on one row per patient and window: float scores with NaN and
  0/1 indicators, PAM over all N x T rows, each window's design grouped
  from its N patient rows, and priors, KDE labels and cluster labels at
  every patient. They check the cell path of `build_feature_matrix`,
  `fit_feature_stage`, `fit_risk_model` and `score_patients`, which compute
  each of these once per distinct window cell.
"""

import csv
import io
import math

import numpy as np
from scipy.special import betainc
from scipy.stats import rankdata

from icurisk.cohort import (
    _AGE_RISK_WEIGHT,
    _DISCHARGE_MIN_HOURS,
    _DISCHARGE_SCALE_HOURS,
    _EXTRA_VALUE_MODEL,
    _SEVERITY_SLOPE,
    _TRAJECTORY_RISK_WEIGHT,
    _TRAJECTORY_SD,
    _VALUE_MODELS,
    FIRST_DAY_MINUTES,
    OBSERVATIONS_HEADER,
    OUTCOMES_HEADER,
    PREVALENCE_REFERENCE_DAY,
    CohortError,
    ParseError,
    RawCohort,
    SynthConfig,
    _calibrate_intercept,
    _death_by_probability,
    synthetic_variable_names,
)
from icurisk.features import BINARY, compute_medians, distinct_rows, feature_kinds, gower_matrix, pam_cluster
from icurisk.hmm import DEATH, SURVIVAL, _check_sequence, _eta_forward_batch, _joint_logs, estimate_emissions
from icurisk.survival import (
    _silverman_bandwidth,
    censor_by_target,
    fit_exponential_regression,
    normalize_death_share,
)

ENUMERATION_LIMIT = 16


def _emission_terms(emissions, x_seq):
    """Per-window emission probability for each state, given the symbol path."""
    T = x_seq.size
    em = np.empty((T, 2))
    em[0] = emissions.initial[x_seq[0] - 1]
    for t in range(1, T):
        em[t] = emissions.transition[x_seq[t] - 1, x_seq[t - 1] - 1]
    return em


def sequence_joint_probability(theta, emissions, x_seq, s_seq) -> float:
    """Joint probability of one full state/observation sequence pair.

    Each window contributes its own state prior (Death prior theta_t, Survival
    its complement) times the autoregressive emission term.
    """
    theta, x_seq = _check_sequence(theta, x_seq, emissions.k)
    s_seq = np.asarray(s_seq, dtype=int)
    if s_seq.shape != theta.shape:
        raise ValueError("state sequence length mismatch")
    if np.any((s_seq != SURVIVAL) & (s_seq != DEATH)):
        raise ValueError("states must be 0 (Survival) or 1 (Death)")
    idx = np.arange(theta.size)
    prior = np.where(s_seq == DEATH, theta, 1.0 - theta)
    return float(np.prod(prior * _emission_terms(emissions, x_seq)[idx, s_seq]))


def _all_joint_probabilities(theta, emissions, x_seq):
    """Joint probability of every state sequence; bit t of row i is s_t."""
    T = theta.size
    if T > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supports T <= {ENUMERATION_LIMIT}")
    bits = (np.arange(2 ** T)[:, None] >> np.arange(T)[None, :]) & 1
    em = _emission_terms(emissions, x_seq)
    prior_terms = np.where(bits == DEATH, theta[None, :], 1.0 - theta[None, :])
    emission_terms = np.where(bits == DEATH, em[:, DEATH][None, :], em[:, SURVIVAL][None, :])
    return (prior_terms * emission_terms).prod(axis=1)


def eta_enumerate(theta, emissions, x_seq) -> float:
    """Risk score as the Death-containing share of all 2^T joint probabilities."""
    theta, x_seq = _check_sequence(theta, x_seq, emissions.k)
    psi = _all_joint_probabilities(theta, emissions, x_seq)
    survival_only = psi[0]          # bit pattern 0 = all-Survival
    total = psi.sum()
    return float((total - survival_only) / total)


def total_sequence_probability(theta, emissions, x_seq, method: str = "factorized") -> float:
    """Sum of joint probabilities over all 2^T state sequences.

    "enumeration" adds up every sequence explicitly; "factorized" multiplies
    per-window sums over the two states of the library's log terms.
    """
    theta, x_seq = _check_sequence(theta, x_seq, emissions.k)
    if method == "enumeration":
        return float(_all_joint_probabilities(theta, emissions, x_seq).sum())
    if method == "factorized":
        lp = _joint_logs(theta[None, :], emissions, x_seq[None, :])[0]
        return float(np.exp(np.logaddexp(lp[:, SURVIVAL], lp[:, DEATH]).sum()))
    raise ValueError(f"unknown method {method!r}")


def gower_distance(row_a, row_b, kinds, ranges) -> float:
    """Mean per-column Gower dissimilarity of one pair of rows, in [0, 1]."""
    row_a = np.asarray(row_a, dtype=float)
    row_b = np.asarray(row_b, dtype=float)
    if row_a.shape != row_b.shape or row_a.ndim != 1:
        raise ValueError("rows must be 1-D and of equal length")
    if len(kinds) != row_a.size or len(ranges) != row_a.size:
        raise ValueError("kinds/ranges must match row length")
    total = 0.0
    for j, kind in enumerate(kinds):
        if kind == BINARY:
            total += float(row_a[j] != row_b[j])
        elif ranges[j] > 0:
            total += min(abs(row_a[j] - row_b[j]) / ranges[j], 1.0)
    return total / row_a.size


def score_value(table, variable, value) -> int:
    """Score of the first bin with lower <= value < upper, else the default."""
    if variable not in table.bins:
        raise ValueError(f"variable {variable!r} not in score table")
    for b in table.bins[variable]:
        if b.lower <= value < b.upper:
            return b.score
    return table.default_score


def cohort_rows(cohort) -> dict:
    """Each patient's rows as (variable, offset_minutes, value), in row order."""
    return {
        pid: [
            (
                cohort.vocabulary[cohort.variable[i]],
                int(cohort.offset_minutes[i]),
                float(cohort.value[i]),
            )
            for i in rows
        ]
        for pid, rows in cohort.patients.items()
    }


def window_segment(cohort, spec):
    """Bucket each patient's first-day samples into half-open windows.

    Window t (1-based) takes offsets in [60*n*(t-1), 60*n*t); samples at or
    beyond the last window boundary (and past minute 1440) are discarded.
    """
    span = 60 * spec.window_hours
    limit = span * spec.n_windows
    windowed = {}
    for pid, rows in cohort_rows(cohort).items():
        windows = [{v: [] for v in spec.variable_names} for _ in range(spec.n_windows)]
        for variable, offset, value in rows:
            if offset >= limit or variable not in windows[0]:
                continue
            windows[offset // span][variable].append(value)
        windowed[pid] = windows
    return windowed


def discretize_scores(windowed, table, spec) -> np.ndarray:
    """Worst-case (max) bin score per variable per window; NaN where empty."""
    y = np.full((len(windowed), spec.n_windows, spec.n_variables), np.nan)
    for i, windows in enumerate(windowed.values()):
        for t, per_var in enumerate(windows):
            for j, var in enumerate(spec.variable_names):
                samples = per_var[var]
                if samples:
                    y[i, t, j] = max(score_value(table, var, v) for v in samples)
    return y


def missingness_indicators(windowed, spec) -> np.ndarray:
    """1 where the variable was measured at least once in the window, else 0."""
    b = np.zeros((len(windowed), spec.n_windows, spec.n_variables), dtype=np.uint8)
    for i, windows in enumerate(windowed.values()):
        for t, per_var in enumerate(windows):
            for j, var in enumerate(spec.variable_names):
                if per_var[var]:
                    b[i, t, j] = 1
    return b


def subset(cohort, keep) -> RawCohort:
    """The patients where the boolean mask `keep` is true, with their rows."""
    keep = np.asarray(keep, dtype=bool)
    rows = keep[cohort.patient]
    ids = [pid for pid, kept in zip(cohort.patient_ids, keep.tolist()) if kept]
    return RawCohort(
        patient_ids=ids,
        vocabulary=cohort.vocabulary,
        patient=(np.cumsum(keep) - 1)[cohort.patient[rows]],
        variable=cohort.variable[rows],
        offset_minutes=cohort.offset_minutes[rows],
        value=cohort.value[rows],
        event_hours=cohort.event_hours[keep],
        died=cohort.died[keep],
    )


def filter_ids(cohort, required_variables, window_hours) -> list:
    """Ids of patients with 24 h of follow-up or more and every required
    variable sampled in every full window of the first day."""
    n_windows = 24 // window_hours
    kept = []
    for (pid, rows), hours in zip(cohort_rows(cohort).items(), cohort.event_hours.tolist()):
        if hours < 24.0:
            continue
        seen = {(v, t): False for v in required_variables for t in range(n_windows)}
        for variable, offset, _ in rows:
            if variable in required_variables and offset < 60 * window_hours * n_windows:
                seen[(variable, offset // (60 * window_hours))] = True
        if all(seen.values()):
            kept.append(pid)
    return kept


def first_day_max_scores(cohort, variables, table) -> np.ndarray:
    """Per-patient, per-variable maximum bin score over minutes [0, 1440);
    0 where a variable was not sampled."""
    column = {v: j for j, v in enumerate(variables)}
    out = np.zeros((cohort.n_patients, len(variables)))
    for i, rows in enumerate(cohort_rows(cohort).values()):
        for variable, offset, value in rows:
            j = column.get(variable)
            if j is None or offset >= FIRST_DAY_MINUTES:
                continue
            out[i, j] = max(out[i, j], score_value(table, variable, value))
    return out


def aucpr_stable_argsort(s) -> float:
    """Average precision over positives, the scores ordered by a stable
    descending argsort."""
    n_pos = int((s.labels == 1).sum())
    if n_pos == 0:
        raise ValueError("AUCPR needs at least one positive")
    labels = s.labels[np.argsort(-s.scores, kind="stable")]
    precision = np.cumsum(labels) / np.arange(1, labels.size + 1)
    return float(precision[labels == 1].sum() / n_pos)


def auroc_rankdata(s) -> float:
    """Mann-Whitney AUROC from the rank sum of the positives, with ties
    given their average rank by `scipy.stats.rankdata`."""
    pos = s.labels == 1
    n_pos = int(pos.sum())
    n_neg = s.labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes")
    ranks = rankdata(s.scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def t_tail_betainc(t: float, nu: int) -> float:
    """P(T > t) for Student's t with nu degrees of freedom, from
    `scipy.special.betainc`."""
    tail = 0.5 * float(betainc(nu / 2.0, 0.5, nu / (nu + t * t)))
    return tail if t >= 0 else 1.0 - tail


def censor_by_target_loop(event_hours, died, target_hours: float):
    """Death-by-target events and censored times, one patient at a time."""
    times = np.empty(len(event_hours))
    events = np.zeros(len(event_hours), dtype=np.uint8)
    for i, (hours, dead) in enumerate(zip(event_hours, died)):
        if dead and hours <= target_hours:
            events[i] = 1
            times[i] = hours
        else:
            times[i] = min(hours, target_hours)
    return times, events


def calibrate_intercept_bisection(prevalence_target: float, tau_hours: float) -> float:
    """The generator's log-hazard intercept after 200 bisection steps, each
    evaluated, whether or not it can still move the interval."""
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


def concordance_pairs(s) -> float:
    """Fraction of comparable pairs where the shorter survivor scores higher.

    A pair is comparable when its strictly shorter-time member had an event;
    score ties credit half. Censored-before-event pairs are incomparable.
    """
    t = s.times
    shorter_event = (t[:, None] < t[None, :]) & (s.events[:, None] == 1)
    n_comparable = int(shorter_event.sum())
    if n_comparable == 0:
        raise ValueError("no comparable pairs")
    diff = s.scores[:, None] - s.scores[None, :]
    credit = np.where(diff > 0, 1.0, np.where(diff == 0, 0.5, 0.0))
    return float((credit * shorter_event).sum() / n_comparable)


def brute_force_concordance(s) -> float:
    """Concordance with one Python loop iteration per ordered pair."""
    n = len(s.scores)
    num = den = 0.0
    for i in range(n):
        for j in range(n):
            if s.times[i] < s.times[j] and s.events[i] == 1:
                den += 1
                if s.scores[i] > s.scores[j]:
                    num += 1
                elif s.scores[i] == s.scores[j]:
                    num += 0.5
    if den == 0:
        raise ValueError("no comparable pairs")
    return num / den


def kde_all_samples(points, samples, bandwidth) -> np.ndarray:
    """Gaussian kernel density summed over every sample at every point."""
    # Chunked so the (m, n) kernel matrix stays small.
    out = np.empty(points.size)
    norm = samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    for start in range(0, points.size, 2048):
        chunk = points[start:start + 2048]
        z = (chunk[:, None] - samples[None, :]) / bandwidth
        out[start:start + 2048] = np.exp(-0.5 * z * z).sum(axis=1) / norm
    return out


def normalize_all_samples(probs, labels, queries) -> np.ndarray:
    """Death-class share of the class-weighted densities at each query, with
    each class density summed over all its training samples."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels).astype(bool)
    queries = np.atleast_1d(np.asarray(queries, dtype=float))
    death, survival = probs[labels], probs[~labels]
    weight = death.size / probs.size
    f_death = kde_all_samples(queries, death, _silverman_bandwidth(death)) * weight
    f_surv = kde_all_samples(queries, survival, _silverman_bandwidth(survival)) * (1.0 - weight)
    total = f_death + f_surv
    dead_zone = total <= 0
    total[dead_zone] = 1.0
    f_death[dead_zone] = weight
    return f_death / total


def _csv_rows(stream, header, what):
    """(line number, row) for each CSV row after the header row, which must
    equal `header`.

    The binary stream is decoded as UTF-8 while it is read, so the file is
    never held in memory whole. The caller's stream is left open.
    """
    if isinstance(stream, (str, bytes)):
        raise TypeError("expected a file-like object, not a path or raw string")
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    try:
        reader = csv.reader(text)
        first = next(reader, None)
        if first is None:
            raise CohortError(f"no {what}")
        if tuple(first) != header:
            raise ParseError(1, f"expected header {','.join(header)}")
        yield from enumerate(reader, start=2)
    finally:
        if not stream.closed:
            text.detach()  # closing the wrapper would close the caller's stream


def ingest_rows(stream) -> dict:
    """Parse an observations CSV into every RawCohort field but `event_hours` and `died`.

    The stream must be binary, UTF-8 CSV with header
    patient_id,variable,offset_minutes,value. Patients and variables are
    numbered in order of first appearance; rows at or beyond minute 1440 are
    kept.
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
        if offset >= 2**63:
            raise ParseError(line_no, f"offset_minutes must be < 2**63, got {offset}")
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


def generate_patient_loop(config: SynthConfig) -> RawCohort:
    """The seeded synthetic cohort, one patient and one variable at a time:
    each draw is made with its location and scale, and each variable's rows
    are an array of their own, concatenated at the end."""
    rng = np.random.default_rng(config.seed)
    variables = synthetic_variable_names(config.n_variables)
    has_age = "age" in variables
    intercept = _calibrate_intercept(
        config.prevalence_target, 24.0 * PREVALENCE_REFERENCE_DAY
    )
    interval = 60.0 / config.sampling_rate_per_hour
    n_samples = max(1, int(math.floor(FIRST_DAY_MINUTES / interval)))
    width = len(str(config.n_patients))

    patient_ids, event_hours_col, died_col = [], [], []
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

        patient_ids.append(pid)
        event_hours_col.append(event_hours)
        died_col.append(died)

    patient, variable, offsets, values = (
        np.concatenate(c) for c in (patient, variable, offset_col, value_col)
    )
    order = np.lexsort((offsets, patient))  # stable: ties keep variable order
    return RawCohort(
        patient_ids=patient_ids,
        vocabulary=tuple(variables),
        patient=patient[order],
        variable=variable[order],
        offset_minutes=offsets[order],
        value=values[order],
        event_hours=np.array(event_hours_col, dtype=float),
        died=np.array(died_col, dtype=bool),
    )


def write_observations_rows(cohort: RawCohort, path) -> None:
    """The observations CSV, one `csv.writer` row per observation."""
    pids = np.array(cohort.patient_ids, dtype=object)[cohort.patient].tolist()
    names = np.array(cohort.vocabulary, dtype=object)[cohort.variable].tolist()
    values = map(repr, cohort.value.tolist())
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(OBSERVATIONS_HEADER)
        writer.writerows(zip(pids, names, cohort.offset_minutes.tolist(), values))


def write_outcomes_rows(cohort: RawCohort, path) -> None:
    """The outcomes CSV, one `csv.writer` row per patient."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(OUTCOMES_HEADER)
        for i, pid in enumerate(cohort.patient_ids):
            writer.writerow([pid, repr(float(cohort.event_hours[i])), int(cohort.died[i])])


def newton_maximize_pinv(loglik, grad, hessian_weights, X, beta, max_iter: int):
    """Damped Newton with minimum-norm steps pinv(X^T diag(w) X) g on all
    columns, halved until the log-likelihood does not drop, with a
    gradient-ascent fallback. Returns (beta, iterations, gradient max-norm)."""
    ll = loglik(beta)
    for iteration in range(1, max_iter + 1):
        g = grad(beta)
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= 1e-8:
            return beta, iteration - 1, grad_norm
        w = hessian_weights(beta)
        step = np.linalg.pinv(X.T @ (w[:, None] * X), hermitian=True) @ g
        if 0.5 * float(g @ step) < 1e-9:
            beta = beta + step
            ll = loglik(beta)
            continue
        for scale, direction in [(0.5**i, step) for i in range(60)] + [
            (0.5**i / max(grad_norm, 1.0), g) for i in range(60)
        ]:
            trial = beta + scale * direction
            trial_ll = loglik(trial)
            if trial_ll >= ll:
                break
        else:
            raise RuntimeError(f"line search stalled at iteration {iteration}")
        beta, ll = trial, trial_ll
        if np.max(np.abs(beta)) > 30.0:
            raise ValueError("quasi-separation: coefficient magnitude exceeded 30")
    raise RuntimeError(f"no convergence after {max_iter} iterations")


def newton_maximize_callables(loglik, grad, hessian_weights, X, keep, beta, max_iter: int, small_gain=None):
    """`icurisk.survival.newton_maximize` with the log-likelihood, gradient
    and Hessian weights as three callables of beta, each computing X beta.
    `small_gain`, when a list, collects the iterations that took the full
    step below log-likelihood resolution. Returns (beta, iterations,
    gradient max-norm)."""
    kept = X[:, keep]
    beta = np.where(keep, beta, 0.0)
    ll = loglik(beta)
    for iteration in range(1, max_iter + 1):
        g = grad(beta)
        grad_norm = float(np.abs(g).max())
        if grad_norm <= 1e-8:
            return beta, iteration - 1, grad_norm
        w = hessian_weights(beta)
        step = np.zeros(beta.shape)
        step[keep] = np.linalg.solve(kept.T @ (w[:, None] * kept), g[keep])
        if 0.5 * float(g @ step) < 1e-9:
            if small_gain is not None:
                small_gain.append(iteration)
            beta = beta + step
            ll = loglik(beta)
            continue
        scale = 1.0
        for _ in range(60):
            trial = beta + scale * step
            trial_ll = loglik(trial)
            if trial_ll >= ll:
                break
            scale *= 0.5
        else:
            raise RuntimeError(f"line search stalled at iteration {iteration}, grad max-norm {grad_norm:.3e}")
        beta, ll = trial, trial_ll
        if np.abs(beta).max() > 30.0:
            raise ValueError("quasi-separation: coefficient magnitude exceeded 30")
    grad_norm = float(np.max(np.abs(grad(beta))))
    raise RuntimeError(f"no convergence after {max_iter} iterations (grad max-norm {grad_norm:.3e})")


def exponential_callables(X, times, events):
    """Log-likelihood, gradient and Hessian weights of the censored
    exponential regression, for `newton_maximize_callables`."""

    def loglik(beta):
        xb = X @ beta
        with np.errstate(over="ignore"):
            lam = np.exp(xb)
        return float(events @ xb - lam @ times)

    def grad(beta):
        with np.errstate(over="ignore"):
            lam = np.exp(X @ beta)
        return X.T @ (events - lam * times)

    def hessian_weights(beta):
        with np.errstate(over="ignore"):
            return np.exp(X @ beta) * times

    return loglik, grad, hessian_weights


def fit_exponential_callables(X, keep, times, events, small_gain=None):
    """`icurisk.survival._fit_exponential` on `newton_maximize_callables`."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    beta = np.zeros(X.shape[1])
    beta[0] = math.log(float(events.sum()) / float(times.sum()))
    return newton_maximize_callables(
        *exponential_callables(X, times, events), X, keep, beta, max_iter=500, small_gain=small_gain
    )


def fit_logistic_callables(X, keep, y, counts=None):
    """`icurisk.evaluation.fit_logistic` on `newton_maximize_callables`."""
    y = np.asarray(y, dtype=float)
    counts = np.ones_like(y) if counts is None else np.asarray(counts, dtype=float)

    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def hessian_weights(beta):
        p = sigmoid(X @ beta)
        return counts * p * (1.0 - p)

    return newton_maximize_callables(
        lambda b: float(np.sum(y * (X @ b) - counts * np.logaddexp(0.0, X @ b))),
        lambda b: X.T @ (y - counts * sigmoid(X @ b)),
        hessian_weights,
        X,
        keep,
        np.zeros(X.shape[1]),
        max_iter=200,
    )


def dedupe_rows_unique(rows):
    """`distinct_rows`' (first, group) from `np.unique(rows, axis=0)`: the
    first occurrence of each distinct row in sorted order, and the group of
    every row."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def silhouette_loop(rows, labels, kinds, ranges) -> float:
    """Mean silhouette width from the full Gower matrix, one row at a time;
    singleton clusters score 0."""
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels)
    values = np.unique(labels)
    if values.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    dist = gower_matrix(rows, rows, kinds, ranges)
    n = rows.shape[0]
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own == 1:
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = min(dist[i, labels == v].mean() for v in values if v != labels[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def patient_scores(matrix):
    """The matrix as one row per patient and window: scores y, (N, T, p)
    float with NaN where missing, and indicators b, (N, T, p) uint8."""
    scores = matrix.scores
    return np.where(scores >= 0, scores, np.nan), (scores >= 0).astype(np.uint8)


def impute_patients(y, medians, spec):
    """y with each patient's missing scores filled, one (window, variable) at
    a time: the window's median, else the variable's, rounded half up."""
    y = y.copy()
    miss = np.isnan(y)
    for t in range(spec.n_windows):
        for j in range(spec.n_variables):
            hole = miss[:, t, j]
            if not hole.any():
                continue
            m = medians.cell[t, j]
            if np.isnan(m):
                m = medians.overall[j]
            if np.isnan(m):
                raise ValueError(f"no training values to impute {spec.variable_names[j]!r} (window {t + 1})")
            y[hole, t, j] = math.floor(float(m) + 0.5)
    return y


def patient_window_design(y, b, t):
    """Window t's hazard design, one row per patient: intercept, scores, indicators."""
    return np.column_stack([np.ones(y.shape[0]), y[:, t, :], b[:, t, :]])


def risk_model_per_patient(matrix, event_hours, died, targets, k, seed=0, alpha=1.0):
    """Train on `matrix`, one row per patient and window.

    Returns (medians, cluster, sequences, {day: (betas, states, emissions)}).
    """
    spec = matrix.spec
    y, b = patient_scores(matrix)
    medians = compute_medians(matrix)
    imputed = impute_patients(y, medians, spec)
    n, T, p = y.shape
    rows = np.concatenate([imputed.reshape(n * T, p), b.reshape(n * T, p)], axis=1)
    cluster, labels, _ = pam_cluster(rows, k, seed, kinds=feature_kinds(spec))
    sequences = labels.reshape(n, T)
    days = {}
    for target in targets:
        times, events = censor_by_target(event_hours, died, target.target_hours)
        betas = []
        for t in range(T):
            X = patient_window_design(imputed, b, t)
            first, group = distinct_rows(X)
            fit = fit_exponential_regression(
                X[first], np.bincount(group, weights=times), np.bincount(group, weights=events)
            )
            betas.append(fit.beta)
        theta = patient_priors(imputed, b, betas, target, spec.window_hours)
        states = np.zeros((n, T), dtype=np.uint8)
        states[:, T - 1] = events
        for t in range(T - 1):
            states[:, t] = normalize_death_share(theta[:, t], events, theta[:, t]) >= 0.5
        days[target.target_day] = (betas, states, estimate_emissions(sequences, states, k, alpha))
    return medians, cluster, sequences, days


def patient_priors(imputed, b, betas, target, window_hours):
    """(N, T) Death priors from exp(X beta) of every patient's design row in
    windows of `window_hours`."""
    return np.column_stack([
        -np.expm1(-np.exp(patient_window_design(imputed, b, t) @ beta) * target.exposure_duration(t + 1, window_hours))
        for t, beta in enumerate(betas)
    ])


def score_per_patient(matrix, medians, cluster, betas, emissions, target):
    """(eta, sequences) of the matrix's patients, one row per patient and window."""
    y, b = patient_scores(matrix)
    imputed = impute_patients(y, medians, matrix.spec)
    n, T, p = y.shape
    rows = np.concatenate([imputed.reshape(n * T, p), b.reshape(n * T, p)], axis=1)
    sequences = cluster.assign(rows).reshape(n, T)
    theta = patient_priors(imputed, b, betas, target, matrix.spec.window_hours)
    return _eta_forward_batch(theta, emissions, sequences), sequences
