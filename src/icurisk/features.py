"""Feature engineering: window segmentation, worst-case score discretization,
missingness indicators, median imputation, Gower distance, and PAM clustering.

The end product per patient is a discrete observation sequence x_1..x_T, one
cluster label per time window, feeding the sequence model.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cohort import RawCohort

NUMERIC = "numeric"
BINARY = "binary"

MAX_EXACT_SETS = 20000


@dataclass(frozen=True, slots=True)
class ScoreBin:
    lower: float   # inclusive
    upper: float   # exclusive
    score: int


class ScoreTable:
    """Per-variable score bins plus a default score for out-of-range values."""

    def __init__(self, bins: dict[str, list[ScoreBin]], default_score: int):
        self.default_score = int(default_score)
        self.bins = {v: tuple(sorted(bs, key=lambda b: b.lower)) for v, bs in bins.items()}
        self._validate()

    def _validate(self):
        if self.default_score < 0:
            raise ValueError("default_score must be >= 0")
        for var, bs in self.bins.items():
            for b in bs:
                if not b.lower < b.upper:
                    raise ValueError(f"{var}: bin lower must be < upper ({b})")
                if b.score < 0:
                    raise ValueError(f"{var}: scores must be >= 0 ({b})")
            for prev, cur in zip(bs, bs[1:]):
                if cur.lower < prev.upper:
                    raise ValueError(f"{var}: bins overlap near {cur.lower}")

    @property
    def variables(self) -> list[str]:
        return sorted(self.bins)

    def score_value(self, variable: str, value: float) -> int:
        if variable not in self.bins:
            raise ValueError(f"variable {variable!r} not in score table")
        for b in self.bins[variable]:
            if b.lower <= value < b.upper:
                return b.score
        return self.default_score

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScoreTable":
        if "default_score" not in obj:
            raise ValueError("score table is missing 'default_score'")
        bins = {}
        for var, entries in obj.items():
            if var == "default_score":
                continue
            bins[var] = [
                ScoreBin(float(e["lower"]), float(e["upper"]), int(e["score"]))
                for e in entries
            ]
        return cls(bins, obj["default_score"])

    def to_json_obj(self) -> dict:
        obj = {
            var: [{"lower": b.lower, "upper": b.upper, "score": b.score} for b in bs]
            for var, bs in sorted(self.bins.items())
        }
        obj["default_score"] = self.default_score
        return obj

    @classmethod
    def from_file(cls, path) -> "ScoreTable":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_obj(json.load(f))


def load_default_score_table() -> ScoreTable:
    text = resources.files("icurisk.data").joinpath("default_score_table.json").read_text()
    return ScoreTable.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class FeatureSpec:
    """Which variables feed the model and how the first day is segmented."""

    variable_names: tuple[str, ...]
    window_hours: int

    def __post_init__(self):
        if len(self.variable_names) < 1:
            raise ValueError("at least one variable is required")
        if not 1 <= self.window_hours <= 24:
            raise ValueError("window_hours must lie in 1..24")
        object.__setattr__(self, "variable_names", tuple(self.variable_names))

    @property
    def n_variables(self) -> int:
        return len(self.variable_names)

    @property
    def n_windows(self) -> int:
        return 24 // self.window_hours


def window_segment(cohort: RawCohort, spec: FeatureSpec):
    """Bucket each patient's first-day samples into half-open windows.

    Window t (1-based) takes offsets in [60*n*(t-1), 60*n*t); samples at or
    beyond the last window boundary (and past minute 1440) are discarded.
    """
    span = 60 * spec.window_hours
    limit = span * spec.n_windows
    windowed = {}
    for pid, observations in cohort.patients.items():
        windows = [{v: [] for v in spec.variable_names} for _ in range(spec.n_windows)]
        for obs in observations:
            if obs.offset_minutes >= limit or obs.variable not in windows[0]:
                continue
            windows[obs.offset_minutes // span][obs.variable].append(obs.value)
        windowed[pid] = windows
    return windowed


def discretize_scores(windowed, table: ScoreTable, spec: FeatureSpec) -> np.ndarray:
    """Worst-case (max) bin score per variable per window; NaN where empty."""
    for var in spec.variable_names:
        if var not in table.bins:
            raise ValueError(f"variable {var!r} missing from score table")
    y = np.full((len(windowed), spec.n_windows, spec.n_variables), np.nan)
    for i, windows in enumerate(windowed.values()):
        for t, per_var in enumerate(windows):
            for j, var in enumerate(spec.variable_names):
                samples = per_var[var]
                if samples:
                    y[i, t, j] = max(table.score_value(var, v) for v in samples)
    return y


def missingness_indicators(windowed, spec: FeatureSpec) -> np.ndarray:
    """1 where the variable was measured at least once in the window, else 0."""
    b = np.zeros((len(windowed), spec.n_windows, spec.n_variables), dtype=np.uint8)
    for i, windows in enumerate(windowed.values()):
        for t, per_var in enumerate(windows):
            for j, var in enumerate(spec.variable_names):
                if per_var[var]:
                    b[i, t, j] = 1
    return b


@dataclass
class FeatureMatrix:
    """Per patient, T rows of [y_1..y_p, b_1..b_p]; NaN in y marks missing."""

    patient_ids: list[str]
    spec: FeatureSpec
    y: np.ndarray   # (N, T, p) float, NaN where no sample before imputation
    b: np.ndarray   # (N, T, p) uint8

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    def subset(self, indices) -> "FeatureMatrix":
        indices = np.asarray(indices)
        return FeatureMatrix(
            patient_ids=[self.patient_ids[i] for i in indices],
            spec=self.spec,
            y=self.y[indices],
            b=self.b[indices],
        )

    def rows(self) -> np.ndarray:
        """Flatten to one row per (patient, window): [y, b], windows fastest."""
        n, t, p = self.y.shape
        return np.concatenate(
            [self.y.reshape(n * t, p), self.b.reshape(n * t, p).astype(float)], axis=1
        )


def build_feature_matrix(cohort: RawCohort, spec: FeatureSpec, table: ScoreTable) -> FeatureMatrix:
    windowed = window_segment(cohort, spec)
    return FeatureMatrix(
        patient_ids=list(windowed),
        spec=spec,
        y=discretize_scores(windowed, table, spec),
        b=missingness_indicators(windowed, spec),
    )


@dataclass(frozen=True)
class Medians:
    cell: np.ndarray      # (T, p), NaN where a cell had no training data
    overall: np.ndarray   # (p,), NaN where a variable was never observed


def compute_medians(matrix: FeatureMatrix) -> Medians:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
        cell = np.nanmedian(matrix.y, axis=0)
        overall = np.nanmedian(matrix.y.reshape(-1, matrix.spec.n_variables), axis=0)
    return Medians(cell=cell, overall=overall)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def impute_median(matrix: FeatureMatrix, medians: Medians) -> FeatureMatrix:
    """Fill missing scores with training medians (cell first, then variable).

    Scores stay integral: medians are rounded half-up. The b columns are never
    touched. Raises when both the cell and the variable median are undefined.
    """
    y = matrix.y.copy()
    miss = np.isnan(y)
    for t in range(matrix.spec.n_windows):
        for j in range(matrix.spec.n_variables):
            hole = miss[:, t, j]
            if not hole.any():
                continue
            m = medians.cell[t, j]
            if np.isnan(m):
                m = medians.overall[j]
            if np.isnan(m):
                var = matrix.spec.variable_names[j]
                raise ValueError(f"no training values to impute {var!r} (window {t + 1})")
            y[hole, t, j] = _round_half_up(float(m))
    return FeatureMatrix(matrix.patient_ids, matrix.spec, y, matrix.b)


# --------------------------------------------------------------------------
# Gower distance and PAM clustering
# --------------------------------------------------------------------------

def feature_kinds(spec: FeatureSpec) -> tuple[str, ...]:
    """Column kinds for flattened rows: p numeric score columns, p binary."""
    return (NUMERIC,) * spec.n_variables + (BINARY,) * spec.n_variables


def numeric_ranges(rows: np.ndarray, kinds) -> np.ndarray:
    """Observed max-min per numeric column; zero for binary and degenerate ones."""
    ranges = np.zeros(rows.shape[1])
    for j, kind in enumerate(kinds):
        if kind == NUMERIC:
            ranges[j] = float(rows[:, j].max() - rows[:, j].min())
    return ranges


def gower_matrix(rows_a: np.ndarray, rows_b: np.ndarray, kinds, ranges) -> np.ndarray:
    """Pairwise Gower distances: mean per-column dissimilarity in [0, 1].

    Numeric columns contribute |a-b|/range (0 when the training range is
    degenerate, capped at 1 for out-of-range queries); binary columns
    contribute 0 on match and 1 on mismatch. Vectorized one column at a time.
    """
    out = np.zeros((rows_a.shape[0], rows_b.shape[0]))
    for j, kind in enumerate(kinds):
        a = rows_a[:, j][:, None]
        b = rows_b[:, j][None, :]
        if kind == BINARY:
            out += a != b
        elif ranges[j] > 0:
            out += np.minimum(np.abs(a - b) / ranges[j], 1.0)
    out /= len(kinds)
    return out


@dataclass
class ClusterModel:
    """Fitted medoids with the distance metadata needed to assign new rows."""

    medoids: np.ndarray        # (k, d), actual training rows
    kinds: tuple[str, ...]
    ranges: np.ndarray

    @property
    def k(self) -> int:
        return self.medoids.shape[0]

    def assign(self, rows: np.ndarray) -> np.ndarray:
        """1-based index of the nearest medoid; ties go to the lower cluster."""
        d = gower_matrix(np.atleast_2d(rows), self.medoids, self.kinds, self.ranges)
        return d.argmin(axis=1) + 1


def _dedupe_rows(rows: np.ndarray):
    """Distinct rows in first-occurrence order, with multiplicities."""
    uniq, first, inverse, counts = np.unique(
        rows, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], counts[order], rank[inverse]


def _build_swap_medoids(dist: np.ndarray, weights: np.ndarray, k: int, trace=None) -> list[int]:
    """Classic BUILD initialization plus steepest-descent SWAP passes.

    A SWAP pass evaluates every (medoid, candidate) exchange and applies the
    single best strict improvement; passes repeat until none exists. Known to
    settle in a 1-swap local optimum on a small share of instances. `trace`,
    when a list, collects the total cost after BUILD and after each swap.
    """
    n = dist.shape[0]
    totals = dist @ weights
    medoids = [int(np.argmin(totals))]
    dmin = dist[medoids[0]].copy()
    while len(medoids) < k:
        gain = np.maximum(dmin[None, :] - dist, 0.0) @ weights
        gain[medoids] = -np.inf
        c = int(np.argmax(gain))
        medoids.append(c)
        dmin = np.minimum(dmin, dist[c])

    cost = float(dist[medoids].min(axis=0) @ weights)
    if trace is not None:
        trace.append(cost)
    candidates = np.ones(n, dtype=bool)
    candidates[medoids] = False
    while True:
        best = (cost, None, None)
        for mi in range(k):
            others = [m for i, m in enumerate(medoids) if i != mi]
            dmin_excl = dist[others].min(axis=0) if others else np.full(n, np.inf)
            cand = np.flatnonzero(candidates)
            trial_costs = weights @ np.minimum(dmin_excl[:, None], dist[:, cand])
            j = int(np.argmin(trial_costs))
            if trial_costs[j] < best[0]:
                best = (float(trial_costs[j]), mi, int(cand[j]))
        if best[1] is None:
            return medoids
        cost, mi, h = best
        if trace is not None:
            trace.append(cost)
        candidates[medoids[mi]] = True
        candidates[h] = False
        medoids[mi] = h


def _exact_medoids(dist: np.ndarray, weights: np.ndarray, k: int) -> list[int]:
    """Exhaustive medoid search; ties go to the lexicographically first set."""
    n = dist.shape[0]
    best_cost, best_set = math.inf, None
    combos = itertools.combinations(range(n), k)
    while True:
        chunk = list(itertools.islice(combos, 2048))
        if not chunk:
            break
        idx = np.array(chunk)
        costs = dist[:, idx].min(axis=2).T @ weights
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost, best_set = float(costs[j]), list(chunk[j])
    return best_set


def pam_cluster(
    rows: np.ndarray,
    k: int,
    seed=0,
    *,
    kinds=None,
    ranges=None,
    max_fit_rows: int = 2000,
):
    """K-medoids under Gower distance, exact at small scale.

    Identical rows are collapsed with multiplicity weights first (the
    objective is unchanged). When the number of candidate medoid sets is at
    most MAX_EXACT_SETS the optimum is found by exhaustive enumeration;
    otherwise BUILD plus steepest-descent SWAP passes run until no swap
    lowers the total cost. When more than max_fit_rows rows remain after
    deduplication, medoids are searched on a seeded subsample and every row
    is still assigned afterwards. Ties break toward the lowest original row
    index throughout.

    Returns (ClusterModel, 1-based labels for all input rows, total cost).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("rows must be a nonempty 2-D array")
    if kinds is None:
        kinds = (NUMERIC,) * rows.shape[1]
    if ranges is None:
        ranges = numeric_ranges(rows, kinds)

    fit_rows = rows
    if rows.shape[0] > max_fit_rows:
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(rows.shape[0], size=max_fit_rows, replace=False))
        fit_rows = rows[pick]

    uniq, counts, _ = _dedupe_rows(fit_rows)
    n_distinct = uniq.shape[0]
    if not 1 <= k <= n_distinct:
        raise ValueError(f"k must lie in 1..{n_distinct} (distinct rows), got {k}")

    dist = gower_matrix(uniq, uniq, kinds, ranges)
    weights = counts.astype(float)
    if math.comb(n_distinct, k) <= MAX_EXACT_SETS:
        medoids = _exact_medoids(dist, weights, k)
    else:
        medoids = _build_swap_medoids(dist, weights, k)

    model = ClusterModel(medoids=uniq[medoids].copy(), kinds=tuple(kinds), ranges=np.asarray(ranges, dtype=float))
    labels = model.assign(rows)
    all_cost = float(
        gower_matrix(rows, model.medoids, kinds, ranges).min(axis=1).sum()
    )
    return model, labels, all_cost


def encode_observations(model: ClusterModel, matrix: FeatureMatrix) -> np.ndarray:
    """Cluster-label sequences, one 1-based label per (patient, window)."""
    labels = model.assign(matrix.rows())
    return labels.reshape(matrix.n_patients, matrix.spec.n_windows)


def silhouette(rows: np.ndarray, labels: np.ndarray, kinds, ranges) -> float:
    """Mean silhouette width under Gower distance; singleton clusters score 0."""
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
