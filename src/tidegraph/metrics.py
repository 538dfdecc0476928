"""Ranking metrics for link prediction evaluation."""

from __future__ import annotations

import numpy as np

from .errors import MetricError

__all__ = ["average_precision", "auc_roc"]


def average_precision(scores, labels) -> float:
    """Area under the precision-recall steps of the score-descending ranking.

    Equal scores keep their input order (stable sort), so the result is a
    deterministic function of the inputs. Requires at least one positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    n_pos = int(np.count_nonzero(labels))
    if n_pos == 0:
        raise MetricError("average precision is undefined without positives")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order].astype(np.float64)
    cum_pos = np.cumsum(ranked)
    precision_at = cum_pos / np.arange(1, len(ranked) + 1)
    return float((precision_at * ranked).sum() / n_pos)


def auc_roc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Computed as the Mann-Whitney statistic with ties counting one half;
    requires both classes to be present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    n_pos = int(np.count_nonzero(labels))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC-ROC is undefined with a single class")
    # midranks: a tie group's 1-based ranks end at cumsum(counts), so their
    # average is that end minus (counts - 1) / 2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = ranks[labels].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
