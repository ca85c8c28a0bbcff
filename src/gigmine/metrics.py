"""Ranking and classification metrics shared by the forecasting tasks.

roc_auc is the Mann-Whitney statistic normalized by the number of
positive-negative pairs, with midrank handling for tied scores, so it agrees
exactly with the pairwise-comparison definition: the fraction of
(positive, negative) pairs ranked correctly, ties counting one half
(Hanley & McNeil, Radiology 1982). The midranks are computed here in numpy
with SciPy ``rankdata``'s tie rule (equal under ``==``, so -0.0 ties 0.0)
and are the same floats as ``rankdata(scores, method="average")``.
"""

from __future__ import annotations

import numpy as np

from gigmine.errors import GigmineError


def _as_score_label_arrays(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise GigmineError(
            f"scores and labels must be parallel 1-d sequences, got {s.shape} vs {y.shape}"
        )
    if not np.all(np.isfinite(s)):
        raise GigmineError("scores must be finite")
    return s, y


def _midranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks of ``s``; each run of equal values shares its mean rank.

    A run over sorted positions [start, end) gets ``(start + end + 1) / 2``,
    an exact half-integer, so the result is bit-identical to
    ``rankdata(s, method="average")``.
    """
    order = np.argsort(s, kind="stable")
    ranked = s[order]
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    ends = np.append(starts[1:], s.size)
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve for binary ``labels`` ranked by ``scores``.

    Computed as the normalized Mann-Whitney U statistic: midranks are
    assigned to tied scores, the positive ranks are summed, and the result is
    ``(sum_ranks_pos - P*(P+1)/2) / (P*N)``. Requires at least one positive
    and one negative.
    """
    s, y = _as_score_label_arrays(scores, labels)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise GigmineError(
            f"roc_auc needs both classes, got {n_pos} positives / {n_neg} negatives"
        )
    ranks = _midranks(s)
    u = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def precision_recall_f1(scores, labels, threshold: float = 0.5) -> tuple[float, float, float]:
    """Confusion-matrix metrics at a fixed score threshold.

    A score >= threshold predicts positive. Precision (or recall) is defined
    as 0 when its denominator is 0, and F1 is 0 when precision + recall is 0.
    """
    s, y = _as_score_label_arrays(scores, labels)
    pred = s >= threshold
    tp = int(np.sum(pred & y))
    fp = int(np.sum(pred & ~y))
    fn = int(np.sum(~pred & y))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1
