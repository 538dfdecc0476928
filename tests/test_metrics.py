"""Ranking metrics against hand-computed and pairwise references."""

import numpy as np
import pytest

from tidegraph.errors import MetricError
from tidegraph.metrics import auc_roc, average_precision


def pairwise_auc(scores, labels):
    """Mann-Whitney count over every (positive, negative) pair, ties one half."""
    pos, neg = scores[labels], scores[~labels]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_matches_pairwise_count_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        size = int(rng.integers(2, 40))
        scores = rng.integers(0, int(rng.integers(1, 6)), size) / 4.0
        labels = rng.random(size) < 0.5
        labels[:2] = [True, False]
        assert auc_roc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), rel=1e-12)


def test_ap_tied_scores_keep_input_order():
    scores = [0.9, 0.5, 0.5, 0.1]
    # ranked labels 0, 1, 0, 1: precision 1/2 at both positives
    assert average_precision(scores, [0, 1, 0, 1]) == 0.5
    # the tied pair swapped: ranked 0, 0, 1, 1, precision 1/3 and 2/4
    assert average_precision(scores, [0, 0, 1, 1]) == pytest.approx(5 / 12, rel=1e-15)


def test_single_class_raises():
    scores = [0.2, 0.4, 0.6]
    with pytest.raises(MetricError):
        auc_roc(scores, [1, 1, 1])
    with pytest.raises(MetricError):
        auc_roc(scores, [0, 0, 0])
    with pytest.raises(MetricError):
        average_precision(scores, [0, 0, 0])
