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
"""

import numpy as np

from icurisk.features import BINARY
from icurisk.hmm import DEATH, SURVIVAL, _check_sequence, _joint_logs

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
