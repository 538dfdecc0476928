"""Temporal encoding, interaction counting, and season-trend decomposition."""

import math
import tracemalloc

import numpy as np
import pytest

from tidegraph import encoders, harness, model
from tidegraph.attention import ffn_forward
from tidegraph.encoders import (
    GRANULARITY_SECONDS,
    MteConfig,
    bie_counts,
    bie_reconstruct,
    encode_coarse_time,
    encode_fine_time,
    mix_temporal,
    ste_decompose,
)
from tidegraph.errors import ConfigError, LeakageError
from tidegraph.events import EventStore
from tidegraph.model import ModelConfig, featurize_pairs
from tidegraph.sampling import (
    PAD_ID,
    BatchNeighborIndex,
    NegativeSampler,
    NegativeSamplingStrategy,
    NeighborSampler,
    NeighborSequence,
)
from tidegraph.synth import generate_cycle_corpus, generate_hotnode_corpus

# A float32 cosine of an argument reduced to [-π, π] in float64: the cast of
# the argument (half an ulp of π) plus the cosine's own rounding.
COS_TOL = 2.0**-21


def make_seq(anchor, ids, n=None, query_time=100.0):
    """Hand-built window; times are arbitrary ascending values before query."""
    ids = list(ids)
    n = n or len(ids)
    pad = n - len(ids)
    full = np.array([PAD_ID] * pad + ids, dtype=np.int64)
    times = np.full(n, query_time)
    times[pad:] = np.linspace(1.0, 50.0, len(ids))
    return NeighborSequence(
        anchor=anchor,
        query_time=query_time,
        ids=full,
        times=times,
        event_ids=np.where(full == PAD_ID, -1, np.arange(n)),
    )


class TestFineTime:
    def test_zero_offset_is_all_ones(self):
        cfg = MteConfig(d_t=8)
        np.testing.assert_array_equal(encode_fine_time(0.0, cfg), np.ones(8))

    def test_first_component_is_plain_cosine(self):
        cfg = MteConfig(d_t=6, alpha=3.0, beta=2.0)
        for dt in (0.5, 2.0, 77.0, 1e7):
            got = encode_fine_time(dt, cfg)
            assert got.dtype == np.float32
            assert abs(float(got[0]) - math.cos(dt)) <= COS_TOL

    def test_matches_scalar_oracle(self):
        cfg = MteConfig(d_t=4, alpha=2.0, beta=2.0)
        got = encode_fine_time(100.0, cfg)
        expected = [math.cos(2.0 ** (-(j - 1) / 2.0) * 100.0) for j in (1, 2, 3, 4)]
        assert got.dtype == np.float32
        assert np.max(np.abs(got - expected)) <= COS_TOL

    def test_large_offsets_match_scalar_oracle(self):
        # offsets up to 1e7 s, alpha just large enough for that span: the
        # argument must be reduced by 2π before it is cast to float32
        cfg = MteConfig(d_t=100)
        cfg.alpha = cfg.smallest_alpha(1e7)
        offsets = np.concatenate([[0.0, 1e7], np.random.default_rng(0).uniform(0, 1e7, 200)])
        got = encode_fine_time(offsets, cfg)
        expected = [[math.cos(w * dt) for w in cfg.omega.tolist()] for dt in offsets.tolist()]
        assert got.dtype == np.float32
        assert np.max(np.abs(got - expected)) <= COS_TOL

    @pytest.mark.parametrize("chunk", [1, 7, 256, 4096])
    def test_chunks_are_bitwise_one_pass(self, monkeypatch, chunk):
        # the reference forms and reduces the float64 argument of every offset at once
        cfg = MteConfig(d_t=100)
        cfg.alpha = cfg.smallest_alpha(1e7)
        offsets = np.random.default_rng(1).uniform(0, 1e7, (4, 250))
        x = offsets[..., None] * cfg.omega
        x -= np.rint(x / (2 * np.pi)) * (2 * np.pi)
        expected = np.cos(x.astype(np.float32))
        monkeypatch.setattr(encoders, "FINE_TIME_CHUNK", chunk)
        got = encode_fine_time(offsets, cfg)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()

    def test_negative_offset_rejected(self):
        with pytest.raises(LeakageError):
            encode_fine_time(-1.0, MteConfig(d_t=4))

    def test_batched_shape(self):
        cfg = MteConfig(d_t=5)
        out = encode_fine_time(np.zeros((3, 7)), cfg)
        assert out.shape == (3, 7, 5)
        np.testing.assert_array_equal(out, 1.0)

    def test_injectivity_proxy(self):
        # 100 distinct offsets below a max satisfying the decay condition
        cfg = MteConfig(d_t=32, alpha=10.0, beta=3.0)
        dt_max = 5000.0
        cfg.validate_decay(dt_max)
        rng = np.random.default_rng(0)
        offsets = rng.uniform(0, dt_max, 100)
        vectors = encode_fine_time(offsets, cfg)
        for i in range(100):
            for j in range(i + 1, 100):
                assert not np.allclose(vectors[i], vectors[j], atol=1e-12)

    def test_decay_validation(self):
        cfg = MteConfig(d_t=100)  # alpha = beta = 10
        cfg.validate_decay(1000.0)  # residual 1e3 * 10**-9.9 ~ 1.3e-7 < 1e-6
        with pytest.raises(ConfigError, match="decay"):
            cfg.validate_decay(3600.0 * 24 * 30)


class TestCoarseTime:
    def test_zero_offset(self):
        bucket, term = encode_coarse_time(0.0, MteConfig(d_t=4, r_segments=4))
        assert bucket == 0
        np.testing.assert_array_equal(term, np.zeros(4))

    def test_weekly_bucket_boundary(self):
        cfg = MteConfig(d_t=3, granularity="weekly", r_segments=4)
        b1, t1 = encode_coarse_time(604800.0, cfg)
        assert b1 == 1
        np.testing.assert_allclose(t1, 0.25)
        b0, t0 = encode_coarse_time(604799.0, cfg)
        assert b0 == 0
        np.testing.assert_array_equal(t0, 0.0)

    def test_divisors_follow_printed_formula(self):
        assert GRANULARITY_SECONDS["weekly"] == 24 * 7 * 3600
        assert GRANULARITY_SECONDS["monthly"] == 24 * 7 * 30 * 3600
        assert GRANULARITY_SECONDS["yearly"] == 24 * 7 * 365 * 3600

    def test_divisor_override(self):
        cfg = MteConfig(d_t=2, granularity="monthly", divisor_override=30 * 24 * 3600)
        bucket, _ = encode_coarse_time(31 * 24 * 3600.0, cfg)
        assert bucket == 1

    def test_monotone_and_segment_constant(self):
        cfg = MteConfig(d_t=2, granularity="weekly", r_segments=8)
        week = GRANULARITY_SECONDS["weekly"]
        offsets = np.linspace(0, 5 * week, 1000)
        buckets, _ = encode_coarse_time(offsets, cfg)
        assert np.all(np.diff(buckets) >= 0)
        # identical embedding within a segment, flip exactly at the divisor
        inside, _ = encode_coarse_time(np.array([2 * week + 1.0, 3 * week - 1.0]), cfg)
        assert inside[0] == inside[1] == 2
        edge, _ = encode_coarse_time(np.array([3 * week - 1e-3, 3 * week]), cfg)
        assert tuple(edge) == (2, 3)


class TestMix:
    def test_sum_identity(self):
        fine = np.ones(4)
        np.testing.assert_array_equal(mix_temporal(fine, np.zeros(4), "sum"), fine)

    def test_sum_values(self):
        out = mix_temporal(np.array([1.0, 1.0]), np.array([0.25, 0.25]), "sum")
        np.testing.assert_allclose(out, [1.25, 1.25])

    def test_concat(self):
        out = mix_temporal(np.array([1.0, 1.0]), np.array([0.25, 0.25]), "concat")
        np.testing.assert_allclose(out, [1.0, 1.0, 0.25, 0.25])
        assert out.shape == (4,)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            mix_temporal(np.ones(3), np.ones(4), "sum")


def _long_store(span=1e7, num_events=60, seed=0):
    """Three sources with 20 events each over ``span`` seconds, so a full
    window reaches back almost to t = 0; targets with fewer events pad."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, span, num_events))
    ts[0], ts[-1] = 0.0, span
    return EventStore(np.tile([0, 1, 2], num_events // 3), rng.integers(3, 12, num_events), ts)


class TestTimeTable:
    """``featurize_pairs`` encodes each distinct offset once and gathers the
    float32 table onto the grid; every slot must still read its own offset's
    float64 encoding, cos(ω·Δt) + ⌊Δt/divisor⌋/R, to the cosine's error
    plus one float32 rounding of the sum."""

    @staticmethod
    def _cfg(layout="il", time_mode="mix", combine="sum", span=1e7):
        mte = MteConfig(d_t=100, r_segments=4, combine=combine)
        mte.alpha = mte.smallest_alpha(span)
        return ModelConfig(n_neighbors=20, layout=layout, time_mode=time_mode, use_bie=False, use_ste=False, mte=mte)

    @staticmethod
    def _scored(store, cfg, positives, monkeypatch):
        """The batch ``build_scoring_batch`` featurizes, with the windows' offsets
        in batch row order (sources, then targets)."""
        calls = []

        def recording(seq_pairs, *args):
            calls.append(seq_pairs)
            return featurize_pairs(seq_pairs, *args)

        monkeypatch.setattr(harness, "featurize_pairs", recording)
        neg, _ = NegativeSampler(store, NegativeSamplingStrategy("random", seed=1)).sample(positives)
        batch, _ = harness.build_scoring_batch(NeighborSampler(store), store, cfg, positives, neg)
        (seq_pairs,) = calls
        seqs = [sp[0] for sp in seq_pairs] + [sp[1] for sp in seq_pairs]
        return batch, np.stack([s.query_time - s.times for s in seqs])

    @staticmethod
    def _reference(delta, cfg):
        fine = np.cos(delta[..., None] * cfg.mte.omega)
        if cfg.time_mode == "fine" or cfg.layout != "il":
            return fine
        coarse = np.broadcast_to((np.floor(delta / cfg.mte.divisor) / cfg.mte.r_segments)[..., None], fine.shape)
        return fine + coarse if cfg.mte.combine == "sum" else np.concatenate([fine, coarse], axis=-1)

    @pytest.mark.parametrize("layout, time_mode, combine",
                             [("il", "mix", "sum"), ("il", "mix", "concat"), ("il", "fine", "sum"), ("ml", "fine", "sum")])
    def test_every_slot_matches_float64_reference(self, layout, time_mode, combine, monkeypatch):
        store = _long_store()
        cfg = self._cfg(layout, time_mode, combine)
        positives = harness._event_pairs(store, range(30, 60))
        batch, delta = self._scored(store, cfg, positives, monkeypatch)
        ref = self._reference(delta, cfg)
        time_block = "tfine" if cfg.time_mode == "fine" or cfg.layout != "il" else "tmix"
        width = dict(cfg.token_blocks(store.d_n + store.d_e))[time_block]
        assert batch.tmix.dtype == np.float32 and batch.tmix.shape == ref.shape == (120, 20, width)
        err = np.abs(batch.tmix - ref)
        assert np.all(err <= COS_TOL + 2.0**-24 * np.abs(ref))

        assert delta.max() > 0.9e7, "offsets should reach the 1e7 s span"
        pad = ~batch.mask
        assert pad.any() and np.all(delta[pad] == 0.0)
        np.testing.assert_array_equal(batch.tmix[pad], ref[pad])  # Δt = 0 encodes exactly
        # each negative reuses its positive's source window, rows 30..59
        p = len(positives)
        np.testing.assert_array_equal(batch.tmix[p : 2 * p], batch.tmix[:p])
        # an offset shared by different windows reads the same features everywhere
        real = delta[batch.mask]
        offsets, first, counts = np.unique(real, return_index=True, return_counts=True)
        assert np.count_nonzero(counts > 1) > 0
        rows = batch.tmix[batch.mask]
        np.testing.assert_array_equal(rows, rows[first[np.searchsorted(offsets, real)]])

    def test_slot_features_do_not_depend_on_batch(self, monkeypatch):
        store = _long_store()
        cfg = self._cfg()
        positives = harness._event_pairs(store, range(30, 60))
        batch, _ = self._scored(store, cfg, positives, monkeypatch)
        p = len(positives)
        for j in (0, 7, 29):
            alone, _ = self._scored(store, cfg, positives[j : j + 1], monkeypatch)
            for alone_row, batch_row in ((0, j), (2, 2 * p + j)):  # source and positive target windows
                np.testing.assert_array_equal(alone.tmix[alone_row], batch.tmix[batch_row])

    def test_encoder_sees_each_distinct_offset_once(self, monkeypatch):
        store = _long_store()
        cfg = self._cfg()
        sizes = []

        def recording(delta, mte):
            sizes.append(np.shape(delta))
            return encode_fine_time(delta, mte)

        monkeypatch.setattr(model, "encode_fine_time", recording)
        positives = harness._event_pairs(store, range(30, 60))
        _, delta = self._scored(store, cfg, positives, monkeypatch)
        assert sizes == [(np.unique(delta).size,)]
        assert np.unique(delta).size < delta.size / 2  # PAD slots and shared windows collapse

    def test_negative_offset_raises(self):
        cfg = self._cfg(span=1e3)
        good = make_seq(0, [5, 6], n=4)
        late = make_seq(1, [7, 8], n=4)
        late.times = late.times + 200.0  # both real events after the query time
        with pytest.raises(LeakageError):
            featurize_pairs([(good, late)], BatchNeighborIndex({}, {}), EventStore([0] * 4, [9] * 4, [0.0] * 4), cfg)


def _worked_example():
    """The bipartite reconstruction scenario with known count matrices.

    Sources are 0..4 and targets 10..14. The source anchor 0 has window
    [10, 11, 12, 10]; the target anchor 10 has window [0, 1, 2, 0]. The batch
    dictionaries know node 1 -> {11, 13} and node 12 -> {2, 4}.
    """
    src_seq = make_seq(0, [10, 11, 12, 10])
    tgt_seq = make_seq(10, [0, 1, 2, 0])
    index = BatchNeighborIndex(
        src_index={1: make_seq(1, [11, 13], n=4)},
        tgt_index={12: make_seq(12, [2, 4], n=4)},
    )
    return src_seq, tgt_seq, index


class TestReconstruction:
    def test_worked_example_sequences(self):
        src_seq, tgt_seq, index = _worked_example()
        src_new, tgt_new = bie_reconstruct(src_seq, tgt_seq, index)
        assert set(src_new.replacements) == {2}
        np.testing.assert_array_equal(src_new.replacements[2], [2, 4])
        # unreplaced slots keep their own id: the anchor 10 (slots 0 and 3)
        # and 11, which misses the target dictionary
        np.testing.assert_array_equal(src_new.base.ids, [10, 11, 12, 10])
        assert set(tgt_new.replacements) == {1}
        np.testing.assert_array_equal(tgt_new.replacements[1], [11, 13])

    def test_worked_example_counts(self):
        src_seq, tgt_seq, index = _worked_example()
        i_src, i_tgt = bie_counts(*bie_reconstruct(src_seq, tgt_seq, index))
        np.testing.assert_array_equal(i_src, [[2, 2], [1, 1], [1, 0], [2, 2]])
        np.testing.assert_array_equal(i_tgt, [[2, 2], [0, 1], [1, 1], [2, 2]])

    def test_empty_index_changes_nothing(self):
        src_seq, tgt_seq, _ = _worked_example()
        empty = BatchNeighborIndex(src_index={}, tgt_index={})
        src_new, tgt_new = bie_reconstruct(src_seq, tgt_seq, empty)
        assert src_new.replacements == {} and tgt_new.replacements == {}

    def test_shared_neighbors_not_processed(self):
        # non-bipartite: both windows hold the same ids, so the work set is empty
        src_seq = make_seq(0, [5, 6, 7])
        tgt_seq = make_seq(1, [6, 7, 5])
        index = BatchNeighborIndex(
            src_index={5: make_seq(5, [8], n=3), 6: make_seq(6, [9], n=3)},
            tgt_index={7: make_seq(7, [3], n=3)},
        )
        src_new, tgt_new = bie_reconstruct(src_seq, tgt_seq, index)
        assert src_new.replacements == {} and tgt_new.replacements == {}

    def test_all_pad_windows_zero_counts(self):
        src_seq = make_seq(0, [], n=4)
        tgt_seq = make_seq(10, [], n=4)
        empty = BatchNeighborIndex(src_index={}, tgt_index={})
        i_src, i_tgt = bie_counts(*bie_reconstruct(src_seq, tgt_seq, empty))
        np.testing.assert_array_equal(i_src, np.zeros((4, 2)))
        np.testing.assert_array_equal(i_tgt, np.zeros((4, 2)))


def brute_force_counts(src_seq, tgt_seq, index):
    """Quadratic list-scan reference for the reconstruction + counting pipeline."""
    src_ids = [int(v) for v in src_seq.ids if v != PAD_ID]
    tgt_ids = [int(v) for v in tgt_seq.ids if v != PAD_ID]
    shared = set(src_ids) & set(tgt_ids)
    anchors = {src_seq.anchor, tgt_seq.anchor}

    def expanded_multiset(seq, opposite):
        out = []
        for v in seq.ids:
            v = int(v)
            if v == PAD_ID:
                continue
            if v in anchors or v in shared or opposite.get(v) is None:
                out.append(v)
            else:
                out.extend(int(x) for x in opposite[v].ids if x != PAD_ID)
        return out

    src_multi = expanded_multiset(src_seq, index.tgt_index)
    tgt_multi = expanded_multiset(tgt_seq, index.src_index)
    mutual = (src_ids.count(tgt_seq.anchor), tgt_ids.count(src_seq.anchor))

    def counts_for(seq, own_list, cross_list, own_is_src):
        rows = []
        for v in seq.ids:
            v = int(v)
            if v == PAD_ID:
                rows.append((0, 0))
            elif v in anchors:
                rows.append(mutual)
            else:
                own = own_list.count(v)
                cross = cross_list.count(v)
                rows.append((own, cross) if own_is_src else (cross, own))
        return np.array(rows)

    i_src = counts_for(src_seq, src_ids, tgt_multi, own_is_src=True)
    i_tgt = counts_for(tgt_seq, tgt_ids, src_multi, own_is_src=False)
    return i_src, i_tgt


class TestCountsOracle:
    def test_randomized_equivalence(self):
        rng = np.random.default_rng(42)
        for trial in range(500):
            n = int(rng.integers(1, 17))
            bipartite = trial % 2 == 0
            if bipartite:
                src_pool = np.arange(0, 8)
                tgt_pool = np.arange(8, 16)
            else:
                src_pool = tgt_pool = np.arange(0, 12)
            src_anchor = int(rng.choice(src_pool))
            tgt_anchor = int(rng.choice(tgt_pool))
            k1, k2 = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
            src_seq = make_seq(src_anchor, rng.choice(tgt_pool, size=k1).tolist(), n=n)
            tgt_seq = make_seq(tgt_anchor, rng.choice(src_pool, size=k2).tolist(), n=n)
            src_index, tgt_index = {}, {}
            for node in rng.choice(src_pool, size=3):
                depth = int(rng.integers(0, n + 1))
                src_index[int(node)] = make_seq(int(node), rng.choice(tgt_pool, size=depth).tolist(), n=n)
            for node in rng.choice(tgt_pool, size=3):
                depth = int(rng.integers(0, n + 1))
                tgt_index[int(node)] = make_seq(int(node), rng.choice(src_pool, size=depth).tolist(), n=n)
            index = BatchNeighborIndex(src_index, tgt_index)

            got = bie_counts(*bie_reconstruct(src_seq, tgt_seq, index))
            want = brute_force_counts(src_seq, tgt_seq, index)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_id_range_and_window_lengths(self):
        """Ids 0 and ``num_nodes - 1`` of universes up to 2**40, source and
        target windows of different lengths, and empty and non-empty
        dictionaries; each side's counts are C-contiguous int64 (n, 2), and
        every window's ``real_ids`` is the read-only ``ids[mask]``."""
        rng = np.random.default_rng(16)
        seen = dict.fromkeys(["id_0", "id_max", "no_replacements", "replacements", "lengths_differ"], 0)
        for _ in range(300):
            num_nodes = int(rng.choice([2, 30, 2**20, 2**40]))
            universe = np.unique(np.concatenate([[0, num_nodes - 1], rng.integers(0, num_nodes, 10)]))
            n_src, n_tgt = (int(v) for v in rng.integers(1, 13, 2))
            src_anchor, tgt_anchor = (int(v) for v in rng.choice(universe, 2))

            def window(anchor, n):
                return make_seq(anchor, rng.choice(universe, int(rng.integers(0, n + 1))).tolist(), n=n)

            src_seq, tgt_seq = window(src_anchor, n_src), window(tgt_anchor, n_tgt)
            dicts = [{int(v): window(int(v), int(rng.integers(1, 13))) for v in rng.choice(universe, k)}
                     for k in rng.choice([0, 4], 2)]
            src_new, tgt_new = bie_reconstruct(src_seq, tgt_seq, BatchNeighborIndex(*dicts))

            got = bie_counts(src_new, tgt_new)
            want = brute_force_counts(src_seq, tgt_seq, BatchNeighborIndex(*dicts))
            for g, w, n in zip(got, want, (n_src, n_tgt)):
                assert g.shape == (n, 2) and g.dtype == np.int64 and g.flags.c_contiguous
                np.testing.assert_array_equal(g, w)
            for seq in (src_seq, tgt_seq, *dicts[0].values(), *dicts[1].values()):
                np.testing.assert_array_equal(seq.real_ids, seq.ids[seq.mask])
                assert not seq.real_ids.flags.writeable

            ids = np.concatenate([src_seq.ids, tgt_seq.ids])
            seen["id_0"] += bool((ids == 0).any())
            seen["id_max"] += bool((ids == num_nodes - 1).any())
            seen["replacements" if src_new.replacements or tgt_new.replacements else "no_replacements"] += 1
            seen["lengths_differ"] += n_src != n_tgt
        assert all(seen.values()), seen

    def test_memory_independent_of_id_range(self):
        """A pair over ids near 10**7 allocates no table indexed by id."""
        base = 10**7
        src_seq = make_seq(base, [base + 1, base + 2, base + 3], n=4)
        tgt_seq = make_seq(base + 9, [base + 2, base + 4, base + 5], n=4)
        index = BatchNeighborIndex({}, {base + 1: make_seq(base + 1, [base + 9, base + 6], n=4)})
        src_new, tgt_new = bie_reconstruct(src_seq, tgt_seq, index)
        tracemalloc.start()
        try:
            got = bie_counts(src_new, tgt_new)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        want = brute_force_counts(src_seq, tgt_seq, index)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestRealIds:
    def test_real_ids_is_the_tail_view(self):
        seq = make_seq(3, [0, 7, 7], n=5)
        np.testing.assert_array_equal(seq.real_ids, [0, 7, 7])
        assert seq.real_ids is seq.real_ids and np.shares_memory(seq.real_ids, seq.ids)
        assert make_seq(3, [], n=4).real_ids.shape == (0,)


class TestBatchCounts:
    """The counts ``build_scoring_batch`` feeds the model, pair by pair.

    Positives share the batch dictionaries with their negatives, so every
    row is checked against the oracle under the same batch index.
    """

    @pytest.mark.parametrize("corpus", ["cycle", "hotnode"])
    @pytest.mark.parametrize("nss", ["random", "historical"])
    def test_featurized_counts_match_oracle(self, corpus, nss, monkeypatch):
        if corpus == "cycle":
            store, _ = generate_cycle_corpus(num_sources=10, num_targets=30, num_events=600)
        else:
            store, _, _ = generate_hotnode_corpus(num_events=600)
        calls = []

        def recording(seq_pairs, index, *args):
            calls.append((seq_pairs, index))
            return featurize_pairs(seq_pairs, index, *args)

        monkeypatch.setattr(harness, "featurize_pairs", recording)
        cfg = ModelConfig(n_neighbors=8)
        sampler = NeighborSampler(store)
        negatives = NegativeSampler(store, NegativeSamplingStrategy(nss, seed=1), train_range=(0, 400))
        pos = [(int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i])) for i in range(400, 560)]
        neg, _ = negatives.sample(pos)
        batch, _ = harness.build_scoring_batch(sampler, store, cfg, pos, neg)

        (seq_pairs, index), = calls
        p = batch.num_pairs
        assert p == 2 * len(pos)
        assert np.count_nonzero(batch.counts[..., 1]) > 0
        for i, (src_seq, tgt_seq) in enumerate(seq_pairs):
            want_src, want_tgt = brute_force_counts(src_seq, tgt_seq, index)
            np.testing.assert_array_equal(batch.counts[i], want_src)
            np.testing.assert_array_equal(batch.counts[p + i], want_tgt)


class TestCountEmbedding:
    def test_zero_counts_zero_bias_zero_rows(self):
        counts = np.zeros((3, 2))
        out, _ = ffn_forward(counts, np.ones((2, 4)), np.zeros(4), np.ones((4, 5)), np.zeros(5))
        np.testing.assert_array_equal(out, np.zeros((3, 5)))

    def test_rectifier_passes_positive(self):
        counts = np.array([[1.0, 2.0]])
        w1 = np.eye(2)
        out, _ = ffn_forward(counts, w1, np.zeros(2), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out, counts)

    def test_matches_hand_composition(self):
        rng = np.random.default_rng(0)
        w1, b1 = rng.normal(size=(2, 3)), rng.normal(size=3)
        w2, b2 = rng.normal(size=(3, 4)), rng.normal(size=4)
        counts = np.array([[2.0, 2.0]])
        hidden = np.maximum(counts @ w1 + b1, 0.0)
        np.testing.assert_allclose(
            ffn_forward(counts, w1, b1, w2, b2)[0], hidden @ w2 + b2, atol=1e-15
        )


def ste_signal(seq, num_nodes):
    """The normalized neighbor-index signal that featurize_pairs decomposes.

    With a window of one the moving average is the signal itself, so the
    trend block is the signal and the seasonal block is zero.
    """
    store = EventStore(np.zeros(seq.n), np.ones(seq.n), np.arange(1.0, seq.n + 1), num_nodes=num_nodes)
    cfg = ModelConfig(n_neighbors=seq.n, time_mode="none", use_bie=False, ste_window=1)
    batch = featurize_pairs([(seq, seq)], BatchNeighborIndex({}, {}), store, cfg)
    np.testing.assert_array_equal(batch.season, np.zeros_like(batch.season))
    return batch.trend[0]


class TestSeasonTrend:
    def test_constant_signal(self):
        q = np.full((6, 1), 3.25)
        parts = ste_decompose(q, 3)
        np.testing.assert_array_equal(parts.trend, q)
        np.testing.assert_array_equal(parts.seasonal, np.zeros_like(q))

    def test_window_one_is_identity(self):
        q = np.random.default_rng(0).normal(size=(5, 2))
        parts = ste_decompose(q, 1)
        np.testing.assert_array_equal(parts.trend, q)
        np.testing.assert_array_equal(parts.seasonal, np.zeros_like(q))

    def test_hand_moving_average(self):
        q = np.array([[0.1], [0.2], [0.3], [0.4]])
        parts = ste_decompose(q, 3)
        np.testing.assert_allclose(
            parts.trend[:, 0], [0.4 / 3, 0.2, 0.3, 1.1 / 3], atol=1e-15
        )

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            ste_decompose(np.zeros((4, 1)), 2)

    def test_window_longer_than_sequence_rejected(self):
        with pytest.raises(ConfigError):
            ste_decompose(np.zeros((4, 1)), 5)

    def test_exact_reconstruction_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            window = int(rng.choice([w for w in range(1, n + 1, 2)]))
            q = rng.normal(size=(2, n, 3))
            parts = ste_decompose(q, window)
            # the seasonal part is bit-for-bit the residual of the input
            # minus the trend; the re-summed pair agrees to one rounding
            np.testing.assert_array_equal(parts.seasonal, q - parts.trend)
            np.testing.assert_allclose(parts.seasonal + parts.trend, q, rtol=0, atol=1e-15)
            assert np.all(np.isfinite(parts.trend))

    def test_signal_from_window(self):
        seq = make_seq(0, [3, 7, 7], n=4)
        sig = ste_signal(seq, num_nodes=10)
        np.testing.assert_allclose(sig[:, 0], [0.0, 0.3, 0.7, 0.7])

    def test_signal_all_pad(self):
        seq = make_seq(0, [], n=3)
        np.testing.assert_array_equal(ste_signal(seq, 10), np.zeros((3, 1)))

    def test_signal_range_endpoints(self):
        seq = make_seq(0, [0, 9], n=2)
        np.testing.assert_allclose(ste_signal(seq, 10)[:, 0], [0.0, 0.9])


class TestMteConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            MteConfig(d_t=0)
        with pytest.raises(ConfigError):
            MteConfig(granularity="daily")
        with pytest.raises(ConfigError):
            MteConfig(r_segments=0)
        with pytest.raises(ConfigError):
            MteConfig(combine="mean")
        with pytest.raises(ConfigError):
            MteConfig(alpha=-1.0)

    def test_defaults_are_sqrt_dt(self):
        cfg = MteConfig(d_t=100)
        assert cfg.alpha == pytest.approx(10.0)
        assert cfg.beta == pytest.approx(10.0)

    def test_omega_first_is_one(self):
        cfg = MteConfig(d_t=7, alpha=5.0, beta=3.0)
        assert cfg.omega[0] == 1.0
        assert np.all(np.diff(cfg.omega) < 0)
