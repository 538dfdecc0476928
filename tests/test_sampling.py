"""Neighbor windows, batch dictionaries, and negative sampling."""

import numpy as np
import pytest

from tidegraph import harness
from tidegraph.errors import LeakageError, MetricError
from tidegraph.events import EventStore, SplitRanges, inductive_mask
from tidegraph.harness import sample_pair_windows
from tidegraph.model import ModelConfig
from tidegraph.sampling import (
    PAD_ID,
    NegativeSampler,
    NegativeSamplingStrategy,
    NeighborSampler,
)


def _store_from_rows(rows, **kw):
    src, tgt, ts = zip(*rows)
    return EventStore(src, tgt, ts, np.zeros((len(rows), 2)), **kw)


def _window(store, anchor, query_time, n, strategy="recent", rng=None):
    return NeighborSampler(store).sample(anchor, query_time, n, strategy, rng)


def _batch_index(store, pairs, n):
    _, index = sample_pair_windows(NeighborSampler(store), pairs, ModelConfig(n_neighbors=n))
    return index


def _negatives(store, positives, strategy, train_range=None):
    return NegativeSampler(store, strategy, train_range).sample(positives)


def _brute_history(store, anchor, query_time):
    """All (time, partner, event_id) of anchor strictly before query_time."""
    out = []
    for i in range(store.num_events):
        s, t, ts = int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i])
        if ts >= query_time:
            continue
        if s == anchor:
            out.append((ts, t, i))
        if t == anchor:
            out.append((ts, s, i))
    out.sort(key=lambda x: (x[0], x[2]))
    return out


class TestNeighborWindows:
    def test_underfull_window_left_pads(self):
        store = _store_from_rows([(0, 5, 1.0), (0, 6, 2.0), (1, 7, 3.0)])
        seq = _window(store, 0, 10.0, n=4)
        np.testing.assert_array_equal(seq.ids, [PAD_ID, PAD_ID, 5, 6])
        np.testing.assert_array_equal(seq.times, [10.0, 10.0, 1.0, 2.0])
        np.testing.assert_array_equal(seq.mask, [False, False, True, True])
        assert np.all(seq.edge_feats[:2] == 0)

    def test_no_history_all_pad(self):
        store = _store_from_rows([(0, 5, 1.0)])
        seq = _window(store, 3, 10.0, n=4)
        assert int(seq.mask.sum()) == 0
        np.testing.assert_array_equal(seq.ids, [PAD_ID] * 4)

    def test_recent_takes_latest_before_query(self):
        rows = [(0, 10 + k, float(k)) for k in range(6)]
        store = _store_from_rows(rows)
        seq = _window(store, 0, 4.5, n=4)
        # history before 4.5 is t=0..4; the 4 latest are t=1..4
        expected = [(t, p) for t, p, _ in _brute_history(store, 0, 4.5)][-4:]
        np.testing.assert_array_equal(seq.times, [t for t, _ in expected])
        np.testing.assert_array_equal(seq.ids, [p for _, p in expected])

    def test_strictly_before_query_time(self):
        store = _store_from_rows([(0, 5, 2.0), (0, 6, 2.0)])
        seq = _window(store, 0, 2.0, n=4)
        assert int(seq.mask.sum()) == 0

    def test_recent_is_history_suffix_randomized(self):
        rng = np.random.default_rng(0)
        n_events = 300
        ts = np.sort(rng.uniform(0, 500, n_events))
        store = EventStore(rng.integers(0, 15, n_events), rng.integers(0, 15, n_events), ts)
        sampler = NeighborSampler(store)
        for _ in range(1000):
            anchor = int(rng.integers(0, 15))
            q = float(rng.uniform(0, 600))
            n = int(rng.integers(1, 9))
            seq = sampler.sample(anchor, q, n)
            hist = _brute_history(store, anchor, q)
            suffix = hist[-min(n, len(hist)) :] if hist else []
            real = int(seq.mask.sum())
            assert real == min(n, len(hist))
            np.testing.assert_array_equal(seq.ids[n - real :], [p for _, p, _ in suffix])
            np.testing.assert_array_equal(seq.event_ids[n - real :], [e for _, _, e in suffix])
            assert np.all(seq.times[seq.mask] < q)

    def test_uniform_no_leakage_and_reproducible(self):
        rng = np.random.default_rng(1)
        n_events = 200
        ts = np.sort(rng.uniform(0, 100, n_events))
        store = EventStore(rng.integers(0, 8, n_events), rng.integers(0, 8, n_events), ts)
        sampler = NeighborSampler(store)
        a = sampler.sample(2, 80.0, 6, "uniform", np.random.default_rng(42))
        b = sampler.sample(2, 80.0, 6, "uniform", np.random.default_rng(42))
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.event_ids, b.event_ids)
        assert np.all(a.times[a.mask] < 80.0)
        mask_times = a.times[a.mask]
        assert np.all(np.diff(mask_times) >= 0)

    def test_uniform_underfull_takes_everything(self):
        store = _store_from_rows([(0, 5, 1.0), (0, 6, 2.0)])
        seq = _window(store, 0, 9.0, n=5, strategy="uniform", rng=np.random.default_rng(0))
        assert int(seq.mask.sum()) == 2

    def test_leakage_guard(self):
        store = _store_from_rows([(0, 5, 1.0), (0, 6, 2.0)])
        sampler = NeighborSampler(store)
        # break the sort order so the binary search admits a future event
        sampler._times[sampler._ptr[0] : sampler._ptr[1]] = [50.0, 5.0]
        with pytest.raises(LeakageError):
            sampler.sample(0, 10.0, 2)


class TestBatchIndex:
    def test_single_pair(self):
        store = _store_from_rows([(0, 5, 1.0), (1, 6, 2.0)])
        index = _batch_index(store, [(0, 5, 3.0)], n=4)
        assert set(index.src_index) == {0}
        assert set(index.tgt_index) == {5}

    def test_duplicate_src_last_wins(self):
        store = _store_from_rows([(0, 5, 1.0), (0, 6, 2.0), (0, 7, 3.0)])
        index = _batch_index(store, [(0, 5, 2.5), (0, 6, 3.5)], n=4)
        assert list(index.src_index) == [0]
        # the surviving window was sampled at the later query time
        assert index.src_index[0].query_time == 3.5

    def test_default_batch_size_distinct_keys(self):
        rows = [(i, 200 + i, float(i)) for i in range(200)]
        store = _store_from_rows(rows)
        batch = [(i, 200 + i, 300.0) for i in range(200)]
        index = _batch_index(store, batch, n=2)
        assert len(index.src_index) == 200
        assert len(index.tgt_index) == 200


class TestNegativeSampling:
    def test_forced_choice_with_two_targets(self):
        store = _store_from_rows([(0, 10, 1.0), (1, 11, 2.0)])
        strat = NegativeSamplingStrategy("random", seed=0)
        for trial in range(20):
            neg, fell = _negatives(store, [(0, 10, 3.0)], strat)
            assert neg[0] == 11
            assert not fell[0]

    def test_historical_fallback_flagged(self):
        store = _store_from_rows([(0, 10, 1.0), (1, 11, 2.0)])
        strat = NegativeSamplingStrategy("historical", seed=0)
        # src 2 has no history at all -> random fallback
        neg, fell = _negatives(store, [(2, 10, 3.0)], strat, train_range=(0, 2))
        assert fell[0]
        assert neg[0] in (11,)  # only non-positive target

    def test_historical_pool_matches_brute_force(self):
        rng = np.random.default_rng(5)
        rows = []
        t = 0.0
        for _ in range(20):
            t += float(rng.uniform(0.5, 2.0))
            rows.append((int(rng.integers(0, 4)), int(10 + rng.integers(0, 5)), t))
        store = _store_from_rows(rows)
        train_range = (0, 20)  # whole toy stream is the training range
        strat = NegativeSamplingStrategy("historical", seed=3)
        sampler = NegativeSampler(store, strat, train_range)
        query_t = t + 10.0
        for src in range(4):
            for pos_tgt in range(10, 15):
                pool = sampler._pool(src, query_t, pos_tgt)
                brute = {
                    int(tg)
                    for s, tg, _ in rows
                    if s == src and tg != pos_tgt
                }
                assert set(int(v) for v in pool) == brute

    def test_historical_draws_come_from_pool(self):
        rows = [(0, 10, 1.0), (0, 11, 2.0), (0, 12, 3.0), (1, 13, 4.0)]
        store = _store_from_rows(rows)
        strat = NegativeSamplingStrategy("historical", seed=9)
        positives = [(0, 12, 5.0)] * 50
        neg, fell = _negatives(store, positives, strat, train_range=(0, 4))
        assert not fell.any()
        assert set(neg) <= {10, 11}

    def test_inductive_restricted_to_new_edges(self):
        # (0,10) first seen in train; (0,11) first seen after the train range
        rows = [(0, 10, 1.0), (1, 12, 2.0), (0, 11, 3.0), (0, 10, 4.0)]
        store = _store_from_rows(rows)
        strat = NegativeSamplingStrategy("inductive", seed=2)
        positives = [(0, 13, 5.0)] * 30
        # universe misses 13, so no SamplingError; train covers first 2 events
        neg, fell = NegativeSampler(store, strat, (0, 2)).sample(positives)
        assert not fell.any()
        assert set(neg) == {11}

    def test_inductive_fallback_when_all_pairs_trained(self):
        rows = [(0, 10, 1.0), (0, 11, 2.0)]
        store = _store_from_rows(rows)
        strat = NegativeSamplingStrategy("inductive", seed=2)
        neg, fell = NegativeSampler(store, strat, (0, 2)).sample([(0, 10, 3.0)])
        assert fell[0]

    def test_strategy_aliases(self):
        assert NegativeSamplingStrategy("rnd").kind == "random"
        assert NegativeSamplingStrategy("hist").kind == "historical"
        assert NegativeSamplingStrategy("ind").kind == "inductive"
        with pytest.raises(ValueError):
            NegativeSamplingStrategy("bogus")

    def test_random_excludes_only_paired_positive(self):
        store = _store_from_rows([(0, 10, 1.0), (0, 11, 2.0), (0, 12, 3.0)])
        strat = NegativeSamplingStrategy("random", seed=1)
        neg, _ = _negatives(store, [(0, 11, 4.0)] * 200, strat)
        assert 11 not in set(neg)
        assert set(neg) == {10, 12}


def _random_store(rng, num_events=300):
    """Sources 0..9 and targets 10..29, plus late-only nodes 30..39 that
    enter in the last third, with repeated (src, tgt) pairs throughout."""
    src = rng.integers(0, 10, num_events)
    tgt = rng.integers(10, 30, num_events)
    late = np.arange(num_events) >= 2 * num_events // 3
    fresh = late & (rng.random(num_events) < 0.3)
    tgt[fresh] = rng.integers(30, 40, int(fresh.sum()))
    fresh_src = late & (rng.random(num_events) < 0.1)
    src[fresh_src] = rng.integers(30, 40, int(fresh_src.sum()))
    return EventStore(src, tgt, np.arange(num_events, dtype=np.float64), np.zeros((num_events, 1)))


class TestInductiveArrays:
    """The inductive pools, built with array operations, against the loop
    forms they replace."""

    @pytest.mark.parametrize("seed", range(4))
    def test_new_pairs_match_first_seen_loop(self, seed):
        rng = np.random.default_rng(seed)
        store = _random_store(rng)
        for lo, hi in ((0, 200), (50, 150), (0, store.num_events), (120, 121)):
            first_seen = {}
            for i in range(store.num_events):
                first_seen.setdefault((int(store.src[i]), int(store.tgt[i])), i)
            want = {k for k, i in first_seen.items() if i < lo or i >= hi}
            got = NegativeSampler(store, NegativeSamplingStrategy("inductive"), (lo, hi))._new_pairs
            assert got == want
            assert all(type(s) is int and type(t) is int for s, t in got)

    def test_new_pairs_with_ids_past_32_bits(self):
        # keyed as src * (max_tgt + 1) + tgt in int64, these two pairs would
        # wrap onto the same key: 2**32 * 2**32 is 2**64
        big = 2**32
        store = EventStore(np.array([0, big, 5]), np.array([big - 1, big - 1, 7]),
                           np.arange(3, dtype=np.float64), np.zeros((3, 1)))
        got = NegativeSampler(store, NegativeSamplingStrategy("inductive"), (2, 3))._new_pairs
        assert got == {(0, big - 1), (big, big - 1)}

    @pytest.mark.parametrize("seed", range(4))
    def test_touched_positives_match_loop(self, seed, monkeypatch):
        class Stop(Exception):
            pass

        def recording(store, idx):
            seen.append(np.asarray(idx))
            raise Stop

        monkeypatch.setattr(harness, "_event_pairs", recording)
        rng = np.random.default_rng(seed)
        store = _random_store(rng)
        splits = SplitRanges(train=(0, 200), val=(200, 250), test=(250, 300))
        for ev_range in (splits.val, splits.test, (0, 300)):
            unseen = inductive_mask(store, splits.train)
            want = [i for i in range(*ev_range) if int(store.src[i]) in unseen or int(store.tgt[i]) in unseen]
            assert want, "the random store should have positives touching unseen nodes"
            seen = []
            with pytest.raises(Stop):
                harness.evaluate_link_prediction(
                    None, ModelConfig(), store, None, ev_range,
                    splits=splits, setting="inductive", batch_size=10**6,
                )
            np.testing.assert_array_equal(seen[0], want)

        # every node seen in training, or an empty range: a MetricError, not an IndexError
        whole = SplitRanges(train=(0, 300), val=(200, 250), test=(250, 300))
        for split, ev_range in ((whole, whole.test), (splits, (250, 250))):
            with pytest.raises(MetricError):
                harness.evaluate_link_prediction(
                    None, ModelConfig(), store, None, ev_range, splits=split, setting="inductive",
                )
