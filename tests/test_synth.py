"""The cycle corpus and its model-free oracle."""

import numpy as np
import pytest

from tidegraph.metrics import auc_roc, average_precision
from tidegraph.sampling import NegativeSampler, NegativeSamplingStrategy
from tidegraph.synth import cycle_oracle_scores, generate_cycle_corpus, generate_hotnode_corpus


def test_cycle_oracle_is_a_near_perfect_ceiling():
    store, _ = generate_cycle_corpus(num_sources=20, num_targets=60, num_events=1200, seed=3)
    positives = list(zip(store.src.tolist(), store.tgt.tolist(), store.timestamps.tolist()))
    negatives, fell_back = NegativeSampler(store, NegativeSamplingStrategy("random", seed=1)).sample(positives)
    pos_scores = cycle_oracle_scores(store, positives, store.tgt)
    neg_scores = cycle_oracle_scores(store, positives, negatives)

    # a source's fifth event on has seen each transition of its cycle once
    prior = np.array([np.count_nonzero(store.src[:i] == s) for i, s in enumerate(store.src)])
    lapped = prior >= 4
    assert lapped.mean() > 0.9
    np.testing.assert_array_equal(pos_scores[lapped], 1.0)
    np.testing.assert_array_equal(neg_scores[lapped], 0.0)
    # until then the last target's successor is unknown: no opinion
    np.testing.assert_array_equal(pos_scores[~lapped], 0.5)
    np.testing.assert_array_equal(neg_scores[~lapped], 0.5)
    assert not fell_back.any()

    scores = np.concatenate([pos_scores, neg_scores])
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(positives))])
    assert average_precision(scores, labels) >= 0.99
    assert auc_roc(scores, labels) >= 0.99


@pytest.mark.parametrize("events", [-3, 0, 4])
@pytest.mark.parametrize("generate", [generate_cycle_corpus, generate_hotnode_corpus])
def test_fewer_events_than_sources_is_refused(generate, events):
    # each source emits num_events // num_sources events: none here
    with pytest.raises(ValueError, match=r"at least num_sources \(5\)"):
        generate(num_sources=5, num_events=events)


@pytest.mark.parametrize("generate", [generate_cycle_corpus, generate_hotnode_corpus])
def test_one_event_per_source_is_the_smallest_corpus(generate):
    store = generate(num_sources=5, num_events=5)[0]
    assert store.num_events == 5
    np.testing.assert_array_equal(np.sort(store.src), np.arange(5))
