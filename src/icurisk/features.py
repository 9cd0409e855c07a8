"""Feature engineering: worst-case window scores with missingness indicators,
median imputation, Gower distance, and PAM clustering.

The end product per patient is a discrete observation sequence x_1..x_T, one
cluster label per time window, feeding the sequence model.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .cohort import WindowTables, json_number

NUMERIC = "numeric"
BINARY = "binary"

MAX_EXACT_SETS = 20000
MAX_FIT_ROWS = 2000       # distinct rows PAM searches medoids on
SILHOUETTE_CHUNK = 2048   # rows per distance block in `silhouette`


@dataclass(frozen=True, slots=True)
class ScoreBin:
    lower: float   # inclusive
    upper: float   # exclusive
    score: int


class ScoreTable:
    """Per-variable score bins plus a default score for values in no bin; `scores` is the one rule."""

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

    def scores(self, variable: str, values) -> np.ndarray:
        """Bin score of each value: the score of the bin with lower <= value <
        upper, or default_score in gaps between bins and out of range."""
        self.require((variable,))
        # A leading empty bin [-inf, -inf) gives every value a last bin with
        # lower <= value; the value lies in that bin when it is below upper.
        bins = (ScoreBin(-math.inf, -math.inf, 0),) + self.bins[variable]
        lower = np.array([b.lower for b in bins])
        upper = np.array([b.upper for b in bins])
        score = np.array([b.score for b in bins])
        values = np.asarray(values, dtype=float)
        last = np.searchsorted(lower, values, side="right") - 1
        return np.where(values < upper[last], score[last], self.default_score)

    def require(self, variables) -> None:
        """Raise for the first of `variables` that has no bins here."""
        for variable in variables:
            if variable not in self.bins:
                raise ValueError(f"variable {variable!r} not in score table")

    def edge_table(self, variables) -> tuple[np.ndarray, np.ndarray]:
        """`scores` tabulated on the union of the variables' bin edges: sorted
        edges (E,) and lut (len(variables), E + 1), where lut[j, i] is variable
        j's score at the left end of interval i (column 0: below edges[0]). Every
        bin bound is an edge, so `lut[j, np.searchsorted(edges, v, "right")]` is `scores`."""
        edges = np.array(sorted({x for v in variables for b in self.bins.get(v, ()) for x in (b.lower, b.upper)}))
        lut = [self.scores(v, np.concatenate([[-math.inf], edges])) for v in variables]
        return edges, np.array(lut, dtype=np.int64).reshape(len(variables), edges.size + 1)

    def __eq__(self, other) -> bool:   # by value: two loads of one file are equal
        return isinstance(other, ScoreTable) and (self.bins, self.default_score) == (other.bins, other.default_score)

    def __hash__(self) -> int:
        return hash((frozenset(self.bins.items()), self.default_score))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScoreTable":
        """The table of a JSON object; bins that are not a list of objects,
        a bin bound that is not a JSON number and a score or default score
        that is not a JSON integer, missing ones included, raise a
        ValueError naming the field."""
        if not isinstance(obj, dict) or "default_score" not in obj:
            raise ValueError("score table is not an object with a 'default_score'")
        bins = {}
        for var, entries in obj.items():
            if var == "default_score":
                continue
            if not isinstance(entries, list):
                raise ValueError(f"score_table.{var} must be a list of bins, got {json.dumps(entries)}")
            bins[var] = []
            for i, e in enumerate(entries):
                if not isinstance(e, dict):
                    raise ValueError(f"score_table.{var}.{i} must be an object, got {json.dumps(e)}")
                bins[var].append(ScoreBin(*(json_number(f"score_table.{var}.{i}.{key}", e.get(key), kind)
                                            for key, kind in (("lower", float), ("upper", float), ("score", int)))))
        return cls(bins, json_number("score_table.default_score", obj["default_score"], int))

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
    """Which variables feed the model, how the first day is segmented, and
    the score table the tables were folded with (compared by value)."""

    variable_names: tuple[str, ...]
    window_hours: int
    score_table: ScoreTable = field(repr=False)

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


@dataclass
class FeatureMatrix:
    """Each patient's worst score per window and variable (-1 where the window
    holds no sample of it) as one integer cell table per window: a window's
    cells are its distinct score tuples, in `distinct_rows` order, stacked
    window by window, and patient i's cell in window t is `cell_of[i, t]`.
    Everything after the medians and medoids is computed once per cell.
    With its patients' outcomes, the matrix is the whole training set."""

    patient_ids: list[str]
    spec: FeatureSpec
    cells: np.ndarray     # (U, p) int64 score tuples, -1 where missing
    window: np.ndarray    # (U,) window of each cell, ascending
    cell_of: np.ndarray   # (N, T) cell of each patient and window
    event_hours: np.ndarray   # (N,) float
    died: np.ndarray          # (N,) bool

    @classmethod
    def from_scores(cls, patient_ids, spec: FeatureSpec, scores, event_hours, died) -> "FeatureMatrix":
        """Group (N, T, p) integer scores into cells, one `distinct_rows` per window; outcomes are not copied."""
        scores = np.asarray(scores, dtype=np.int64)
        groups = [distinct_rows(scores[:, t]) for t in range(spec.n_windows)]
        starts = np.cumsum([0] + [first.size for first, _ in groups])
        cells = np.concatenate([scores[first, t] for t, (first, _) in enumerate(groups)])
        window = np.repeat(np.arange(spec.n_windows), np.diff(starts))
        cell_of = np.stack([group + start for (_, group), start in zip(groups, starts)], axis=1)
        return cls(list(patient_ids), spec, cells, window, cell_of, event_hours, died)

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def scores(self) -> np.ndarray:
        """(N, T, p) worst scores, -1 where missing."""
        return self.cells[self.cell_of]

    def counts(self) -> np.ndarray:
        """Number of patients in each cell, at least one."""
        return np.bincount(self.cell_of.ravel())

    def cells_in(self, t: int) -> slice:
        """The cells of window t (0-based)."""
        return slice(*np.searchsorted(self.window, [t, t + 1]).tolist())

    def subset(self, indices) -> "FeatureMatrix":
        """The patients at `indices` with the cells they use and their outcomes, in the same order."""
        indices = np.asarray(indices, dtype=np.intp)
        present, cell_of = np.unique(self.cell_of[indices].ravel(), return_inverse=True)
        cell_of = cell_of.reshape(indices.size, self.spec.n_windows)
        ids = [self.patient_ids[i] for i in indices]
        return FeatureMatrix(ids, self.spec, self.cells[present], self.window[present], cell_of,
                             self.event_hours[indices], self.died[indices])


def window_hours_of(cohort: WindowTables) -> int:
    """The window hours of the tables features are read from: a TypeError if
    they are not WindowTables (see `window_tables`), a ValueError for windows
    of a fraction of an hour or tables folded without a score table."""
    if not isinstance(cohort, WindowTables):
        raise TypeError(f"expected WindowTables, got {type(cohort).__name__}: fold the rows with window_tables")
    if cohort.window_minutes % 60:
        raise ValueError(f"tables of {cohort.window_minutes}-minute windows: features need whole-hour windows")
    if cohort.score_table is None:
        raise ValueError("tables folded without a score table: features need one")
    return cohort.window_minutes // 60


def build_feature_matrix(cohort: WindowTables, variable_names) -> FeatureMatrix:
    """Worst scores of `variable_names` over the first day's windows, grouped
    into each window's cells, with the tables' outcome arrays (not copies):
    the window size and score table are those the tables were folded with
    (`load_cohort` or `window_tables`, checked by `window_hours_of`)."""
    spec = FeatureSpec(tuple(variable_names), window_hours_of(cohort), cohort.score_table)
    scores = cohort.scores(spec.variable_names, spec.n_windows)
    return FeatureMatrix.from_scores(cohort.patient_ids, spec, scores, cohort.event_hours, cohort.died)


@dataclass(frozen=True)
class Medians:
    cell: np.ndarray      # (T, p), NaN where a cell had no training data
    overall: np.ndarray   # (p,), NaN where a variable was never observed


def compute_medians(matrix: FeatureMatrix) -> Medians:
    scores = matrix.scores
    y = np.where(scores >= 0, scores, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
        cell = np.nanmedian(y, axis=0)
        overall = np.nanmedian(y.reshape(-1, matrix.spec.n_variables), axis=0)
    return Medians(cell=cell, overall=overall)


def impute_median(matrix: FeatureMatrix, medians: Medians) -> np.ndarray:
    """Each cell of the matrix as a float row [y_1..y_p, b_1..b_p], (U, 2p):
    b is 1 where the score was observed, and a missing y is the training
    median of its window (else of its variable) rounded half up, so scores
    stay integral. Raises when both medians of a missing score are undefined."""
    observed = matrix.cells >= 0
    fill = np.floor(np.where(np.isnan(medians.cell), medians.overall, medians.cell) + 0.5)[matrix.window]
    cell, column = np.nonzero(~observed & np.isnan(fill))
    if cell.size:
        t, j = min(zip(matrix.window[cell], column))
        var = matrix.spec.variable_names[j]
        raise ValueError(f"no training values to impute {var!r} (window {t + 1})")
    y = np.where(observed, matrix.cells, fill)
    return np.concatenate([y, observed], axis=1)


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


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of a 2-D array.

    Returns (first, group): the index of each distinct row's first
    occurrence, with distinct rows in lexicographic order (column 0 first,
    NaN last, the order of NumPy's `unique` along axis 0), and the group of
    every row. Rows compare by value, so -0.0 equals 0.0 and a row holding
    NaN equals no other row. One stable `np.lexsort` over the columns and
    one comparison of sorted neighbours, with no per-row Python.
    """
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


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


def pam_cluster(rows: np.ndarray, k: int, seed=0, *, counts=None, kinds=None):
    """K-medoids under Gower distance, exact at small scale.

    Row i stands for counts[i] equal rows (one by default), so a matrix's
    cells with their patient counts cluster as its per-patient rows do. All
    rows are grouped with `distinct_rows` first, and the medoids are
    searched on the distinct rows weighted by their summed counts (the
    objective is unchanged): by exhaustive enumeration when there are at most
    MAX_EXACT_SETS candidate medoid sets, otherwise by BUILD plus
    steepest-descent SWAP passes until no swap lowers the total cost. Ties
    break toward the distinct row first in `distinct_rows`' sorted order,
    so the medoids depend on the rows and their counts but not on their
    order. Only above MAX_FIT_ROWS distinct rows is the search run on a
    sample of that many, drawn with `seed` without replacement and weighted
    by count. The Gower ranges are the rows' `numeric_ranges`.

    Returns (ClusterModel, 1-based labels for all input rows, total cost),
    the labels and cost from one (distinct rows x k) distance matrix.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("rows must be a nonempty 2-D array")
    if kinds is None:
        kinds = (NUMERIC,) * rows.shape[1]
    first, group = distinct_rows(rows)
    uniq = rows[first] + 0.0   # -0.0 groups with 0.0; keep 0.0 whichever came first
    counts = np.bincount(group, np.ones(rows.shape[0]) if counts is None else counts)
    ranges = numeric_ranges(uniq, kinds)

    fit = np.arange(uniq.shape[0])
    if fit.size > MAX_FIT_ROWS:
        rng = np.random.default_rng(seed)
        fit = np.sort(rng.choice(fit.size, MAX_FIT_ROWS, replace=False, p=counts / counts.sum()))
    if not 1 <= k <= fit.size:
        raise ValueError(f"k must lie in 1..{fit.size} (distinct rows), got {k}")

    dist = gower_matrix(uniq[fit], uniq[fit], kinds, ranges)
    if math.comb(fit.size, k) <= MAX_EXACT_SETS:
        medoids = _exact_medoids(dist, counts[fit], k)
    else:
        medoids = _build_swap_medoids(dist, counts[fit], k)

    model = ClusterModel(medoids=uniq[fit[medoids]], kinds=tuple(kinds), ranges=ranges)
    # As `model.assign`: ties go to the lower cluster.
    to_medoids = gower_matrix(uniq, model.medoids, kinds, ranges)
    return model, to_medoids.argmin(axis=1)[group] + 1, float(to_medoids.min(axis=1) @ counts)


def encode_observations(model: ClusterModel, matrix: FeatureMatrix, rows: np.ndarray) -> np.ndarray:
    """Cluster-label sequences, one 1-based label per (patient, window): each
    of the matrix's imputed cell rows (`impute_median`) is assigned once."""
    return model.assign(rows)[matrix.cell_of]


def silhouette(rows: np.ndarray, labels: np.ndarray, kinds, *, counts=None) -> float:
    """Mean silhouette width under Gower distance with the `numeric_ranges`
    of the rows, as `pam_cluster`; singleton clusters score 0.

    Row i stands for counts[i] equal rows under its label (one by default).
    Exact for every row: each distinct (row, label) pair is scored once,
    weighted by its count, against all pairs in chunks of SILHOUETTE_CHUNK
    pairs, so memory stays linear in the number of distinct pairs.
    """
    rows = np.asarray(rows, dtype=float)
    values, cluster = np.unique(np.asarray(labels), return_inverse=True)
    if values.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    first, group = distinct_rows(np.column_stack([rows, cluster]))
    counts = np.bincount(group, np.ones(rows.shape[0]) if counts is None else counts)
    ranges = numeric_ranges(rows, kinds)
    own = cluster[first]
    members = np.zeros((first.size, values.size))   # count of each pair in its cluster
    members[np.arange(first.size), own] = counts
    sizes = members.sum(axis=0)
    scores = np.zeros(first.size)
    for start in range(0, first.size, SILHOUETTE_CHUNK):
        part = slice(start, start + SILHOUETTE_CHUNK)
        sums = gower_matrix(rows[first[part]], rows[first], kinds, ranges) @ members
        mine, n_own = (np.arange(sums.shape[0]), own[part]), sizes[own[part]]
        a = sums[mine] / np.maximum(n_own - 1, 1)
        sums /= sizes
        sums[mine] = np.inf
        b = sums.min(axis=1)
        with np.errstate(invalid="ignore"):   # a == b == 0 scores 0
            scores[part] = np.where(n_own > 1, np.nan_to_num((b - a) / np.maximum(a, b)), 0.0)
    return float(scores @ counts / counts.sum())
