"""Neighbor windows, batch dictionaries, and negative sampling."""

import tracemalloc

import numpy as np
import pytest

from tidegraph import harness
from tidegraph.errors import LeakageError, MetricError, SamplingError
from tidegraph.events import EventStore, SplitRanges, inductive_mask
from tidegraph.harness import sample_pair_windows
from tidegraph.model import ModelConfig, ModelParameters
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
    _, index = sample_pair_windows(NeighborSampler(store), pairs, ModelConfig(n_neighbors=n, use_ste=False))
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
        np.testing.assert_array_equal(seq.event_ids, [-1, -1, 0, 1])

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
        sampler._times[sampler._nodes == 0] = [50.0, 5.0]
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
        queries = [(src, pos_tgt) for src in range(4) for pos_tgt in range(10, 15)]
        src, pos_tgt = np.array(queries).T
        u = sampler.universe
        exclude = np.where(np.isin(pos_tgt, u), u.searchsorted(pos_tgt), -1)
        pools, starts, sizes = sampler._pools(src, np.full(len(queries), t + 10.0), exclude)
        for (s0, tg0), a, k in zip(queries, starts, sizes):
            brute = sorted({int(tg) for s, tg, _ in rows if s == s0 and tg != tg0})
            assert u[pools[a : a + k]].tolist() == brute

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

    @staticmethod
    def _inductive_entries(sampler):
        """The inductive pool's entries as ``{(src, tgt): first time}``; each pair once."""
        pairs = list(zip(sampler._key["node"].tolist(), sampler.universe[sampler._ranks].tolist()))
        assert len(pairs) == len(set(pairs))
        assert all(type(s) is int and type(t) is int for s, t in pairs)
        return dict(zip(pairs, sampler._key["time"].tolist()))

    @pytest.mark.parametrize("seed", range(4))
    def test_new_pairs_match_first_seen_loop(self, seed):
        rng = np.random.default_rng(seed)
        store = _random_store(rng)
        for lo, hi in ((0, 200), (50, 150), (0, store.num_events), (120, 121)):
            first_seen = {}
            for i in range(store.num_events):
                first_seen.setdefault((int(store.src[i]), int(store.tgt[i])), i)
            want = {k: float(store.timestamps[i]) for k, i in first_seen.items() if i < lo or i >= hi}
            sampler = NegativeSampler(store, NegativeSamplingStrategy("inductive"), (lo, hi))
            assert self._inductive_entries(sampler) == want

    def test_new_pairs_with_ids_past_32_bits(self):
        # keyed as src * (max_tgt + 1) + tgt in int64, these two pairs would
        # wrap onto the same key: 2**32 * 2**32 is 2**64
        big = 2**32
        store = EventStore(np.array([0, big, 5]), np.array([big - 1, big - 1, 7]),
                           np.arange(3, dtype=np.float64), np.zeros((3, 1)))
        sampler = NegativeSampler(store, NegativeSamplingStrategy("inductive"), (2, 3))
        assert self._inductive_entries(sampler) == {(0, big - 1): 0.0, (big, big - 1): 1.0}
        neg, fell = sampler.sample([(big, 3, 5.0), (0, big - 1, 5.0)])
        assert neg.tolist() == [big - 1, 7] and fell.tolist() == [False, True]

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


class LoopNegativeSampler:
    """The per-positive reference: each positive's pool built on its own,
    then one draw for it, in batch order."""

    def __init__(self, store, strategy, train_range=(0, 0)):
        self.strategy = strategy
        self.universe = np.unique(store.tgt)
        self.rng = np.random.default_rng(strategy.seed)
        self.fallback_count = 0
        order = np.lexsort((np.arange(store.num_events), store.timestamps, store.src))
        self.src, self.tgt, self.ts = store.src[order], store.tgt[order], store.timestamps[order]
        first_seen = {}
        for i in range(store.num_events):
            first_seen.setdefault((int(store.src[i]), int(store.tgt[i])), i)
        lo, hi = train_range
        self.new_pairs = {k for k, i in first_seen.items() if i < lo or i >= hi}

    def _random_target(self, exclude):
        u = self.universe
        if u.size == 1 and u[0] == exclude:
            raise SamplingError("target universe contains only the positive target")
        pos = np.searchsorted(u, exclude)
        hit = pos < u.size and u[pos] == exclude
        r = int(self.rng.integers(u.size - 1 if hit else u.size))
        if hit and r >= pos:
            r += 1
        return int(u[r])

    def _pool(self, src, t, exclude):
        partners = np.unique(self.tgt[(self.src == src) & (self.ts < t)])
        partners = partners[partners != exclude]
        if self.strategy.kind == "inductive":
            partners = np.array([p for p in partners if (src, int(p)) in self.new_pairs], dtype=np.int64)
        return partners

    def sample(self, positives):
        neg = np.empty(len(positives), dtype=np.int64)
        fell_back = np.zeros(len(positives), dtype=bool)
        for i, (src, tgt, t) in enumerate(positives):
            src, tgt, t = int(src), int(tgt), float(t)
            if self.strategy.kind == "random":
                neg[i] = self._random_target(tgt)
                continue
            pool = self._pool(src, t, tgt)
            if pool.size:
                neg[i] = int(pool[self.rng.integers(pool.size)])
            else:
                neg[i] = self._random_target(tgt)
                fell_back[i] = True
                self.fallback_count += 1
        return neg, fell_back


class TestNegativesAgainstLoop:
    """Batch draws against :class:`LoopNegativeSampler`: negatives, fallback
    flags and counts, and the generator state after every batch, bitwise."""

    @staticmethod
    def _store(rng, bipartite):
        e = int(rng.integers(1, 300))
        if bipartite:
            src, tgt = rng.integers(0, 8, e), rng.integers(8, 30, e)
        else:
            src, tgt = rng.integers(0, 20, e), rng.integers(0, 20, e)
        # integer times, so that events tie and queries land on event times
        ts = np.sort(rng.integers(0, 60, e)).astype(np.float64)
        return EventStore(src, tgt, ts, bipartite=bipartite)

    @staticmethod
    def _positives(rng, store, m):
        out = []
        for i in rng.integers(0, store.num_events, m):
            src = int(store.src[i]) if rng.random() < 0.9 else int(rng.integers(0, 40))  # some never seen
            tgt = int(store.tgt[i]) if rng.random() < 0.9 else int(rng.integers(0, 40))  # often outside the universe
            out.append((src, tgt, max(0.0, float(store.timestamps[i] + rng.integers(-2, 3)))))
        return out

    def _assert_same(self, store, kind, seed, train_range, batches):
        got = NegativeSampler(store, NegativeSamplingStrategy(kind, seed=seed), train_range)
        want = LoopNegativeSampler(store, NegativeSamplingStrategy(kind, seed=seed), train_range)
        for positives in batches:
            g_neg, g_fell = got.sample(positives)
            w_neg, w_fell = want.sample(positives)
            assert g_neg.dtype == w_neg.dtype and g_fell.dtype == w_fell.dtype
            np.testing.assert_array_equal(g_neg, w_neg)
            np.testing.assert_array_equal(g_fell, w_fell)
            assert got.fallback_count == want.fallback_count
            assert got.rng.bit_generator.state == want.rng.bit_generator.state
        return got

    @pytest.mark.parametrize("kind", ["random", "historical", "inductive"])
    @pytest.mark.parametrize("bipartite", [True, False])
    def test_randomized(self, kind, bipartite):
        fallbacks = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            store = self._store(rng, bipartite)
            lo, hi = np.sort(rng.integers(0, store.num_events + 1, 2))
            batches = [self._positives(rng, store, int(rng.integers(0, 50))) for _ in range(4)]
            fallbacks += self._assert_same(store, kind, seed, (int(lo), int(hi)), batches).fallback_count
        if kind != "random":
            assert fallbacks > 0, "the cases should include fallbacks"

    def test_empty_batch_draws_nothing(self):
        store = _store_from_rows([(0, 10, 1.0), (0, 11, 2.0)])
        for kind in ("random", "historical", "inductive"):
            sampler = self._assert_same(store, kind, 3, (0, 1), [[], [(0, 12, 5.0)], []])
            neg, fell = sampler.sample([])
            assert neg.shape == fell.shape == (0,)

    @pytest.mark.parametrize("kind", ["random", "historical", "inductive"])
    def test_single_target_universe(self, kind):
        store = _store_from_rows([(0, 10, 1.0), (1, 10, 2.0)])
        # a target outside the universe draws the one target, from a bound of 1
        self._assert_same(store, kind, 0, (0, 1), [[(0, 11, 3.0), (2, 11, 3.0)]])
        sampler = NegativeSampler(store, NegativeSamplingStrategy(kind, seed=0), (0, 1))
        state = sampler.rng.bit_generator.state
        with pytest.raises(SamplingError):
            sampler.sample([(0, 11, 3.0), (0, 10, 3.0)])
        with pytest.raises(SamplingError):
            LoopNegativeSampler(store, NegativeSamplingStrategy(kind, seed=0), (0, 1)).sample([(0, 10, 3.0)])
        # a batch that raises draws nothing
        assert sampler.rng.bit_generator.state == state and sampler.fallback_count == 0


def _index_pools(store, kind, train_range):
    """The reference pools, read from a :class:`NeighborSampler`'s entries
    anchored at sources as the sampler once built them: (_nodes, _key, _ranks)."""
    index = NeighborSampler(store)
    entries = np.flatnonzero(index._from_src)
    by_pair = entries[np.lexsort((index._partners[entries], index._nodes[entries]))]
    nodes, partners = index._nodes[by_pair], index._partners[by_pair]
    first = np.ones(len(by_pair), dtype=bool)
    first[1:] = (nodes[1:] != nodes[:-1]) | (partners[1:] != partners[:-1])
    entries = np.sort(by_pair[first])
    if kind == "inductive":
        lo, hi = train_range
        eids = index._eids[entries]
        entries = entries[(eids < lo) | (eids >= hi)]
    key = np.empty(len(entries), dtype=[("node", np.int64), ("time", np.float64)])
    key["node"], key["time"] = index._nodes[entries], index._times[entries]
    ranks = np.unique(store.tgt).searchsorted(index._partners[entries])
    return index._nodes[entries], key, ranks


class TestSharedIndex:
    """Negative pools built from the event columns are bitwise the pools a
    :class:`NeighborSampler` index gives, and evaluation builds no index."""

    @pytest.mark.parametrize("kind", ["random", "historical", "inductive"])
    @pytest.mark.parametrize("bipartite", [True, False])
    def test_same_draws_as_own_index(self, kind, bipartite):
        fallbacks = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            store = TestNegativesAgainstLoop._store(rng, bipartite)
            lo, hi = (int(v) for v in np.sort(rng.integers(0, store.num_events + 1, 2)))
            strategy = NegativeSamplingStrategy(kind, seed=seed)
            got = NegativeSampler(store, strategy, (lo, hi))
            want = NegativeSampler(store, strategy, (lo, hi))
            if kind != "random":
                pools = _index_pools(store, kind, (lo, hi))
                for name, ref in zip(("_nodes", "_key", "_ranks"), pools):
                    a = getattr(got, name)
                    assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes(), name
                want._nodes, want._key, want._ranks = pools
            for _ in range(4):
                positives = TestNegativesAgainstLoop._positives(rng, store, int(rng.integers(0, 50)))
                g_neg, g_fell = got.sample(positives)
                w_neg, w_fell = want.sample(positives)
                np.testing.assert_array_equal(g_neg, w_neg)
                np.testing.assert_array_equal(g_fell, w_fell)
                assert got.fallback_count == want.fallback_count
                assert got.rng.bit_generator.state == want.rng.bit_generator.state
            fallbacks += got.fallback_count
        if kind != "random":
            assert fallbacks > 0, "the cases should include fallbacks"

    @pytest.mark.parametrize("nss", ["random", "historical", "inductive"])
    def test_evaluation_builds_no_index(self, nss, monkeypatch):
        store = _random_store(np.random.default_rng(0))
        splits = SplitRanges(train=(0, 200), val=(200, 250), test=(250, 300))
        sampler = NeighborSampler(store)
        cfg = ModelConfig(n_neighbors=4, hidden=8, layers=1, heads=1, d_b=4, d_s=4, d_tr=4)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=0)
        kwargs = dict(splits=splits, nss=nss, batch_size=20, eval_seed=3)
        want = harness.evaluate_link_prediction(params, cfg, store, sampler, splits.val, **kwargs)

        def no_index(*_args, **_kw):
            raise AssertionError("NeighborSampler built during an evaluation")

        monkeypatch.setattr(NeighborSampler, "__init__", no_index)
        got = harness.evaluate_link_prediction(params, cfg, store, sampler, splits.val, **kwargs)
        assert got == want


def test_sampling_memory_independent_of_id_range():
    """Windows and negatives over ids near 10**7 allocate no table indexed by id."""
    base = 10**7
    store = EventStore(np.array([base, base + 1, base]), np.array([base + 5, base + 5, base + 6]),
                       np.array([1.0, 2.0, 3.0]), np.zeros((3, 2)))
    tracemalloc.start()
    try:
        seq = NeighborSampler(store).sample(base + 5, 2.5, 4)
        neg, fell = NegativeSampler(store, NegativeSamplingStrategy("historical"), (0, 3)).sample(
            [(base, base + 6, 3.0), (base + 1, base + 5, 3.0)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    np.testing.assert_array_equal(seq.ids, [PAD_ID, PAD_ID, base, base + 1])
    assert neg.tolist() == [base + 5, base + 6] and fell.tolist() == [False, True]
