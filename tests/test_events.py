"""Event store: ingestion, splitting, and unseen-node bookkeeping."""

import numpy as np
import pytest

from tidegraph.errors import SchemaError, SplitError, ValidationError
from tidegraph.events import (
    DatasetManifest,
    EventStore,
    SplitSpec,
    chronological_split,
    inductive_mask,
    ingest_events,
    write_events,
)


def _write(tmp_path, text, name="events.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        store = ingest_events(path)
        assert store.num_events == 0
        assert store.num_nodes == 0

    def test_header_only(self, tmp_path):
        store = ingest_events(_write(tmp_path, "src,tgt,ts,f0\n"))
        assert store.num_events == 0
        assert store.d_e == 1

    def test_out_of_order_strict_names_line(self, tmp_path):
        path = _write(tmp_path, "src,tgt,ts\n0,1,5\n0,2,1\n0,3,3\n")
        with pytest.raises(ValidationError, match="line 2"):
            ingest_events(path)

    @pytest.mark.parametrize("text, message", [
        ("src,tgt,ts\n0,1,1\n1,4,nan\n", "line 2: non-finite timestamp"),
        ("src,tgt,ts,f0\n0,1,1,0.5\n0,2,2,0.5\n0,3,3,inf\n", "line 3: non-finite edge feature"),
    ])
    def test_non_finite_value_names_line(self, tmp_path, text, message):
        # a NaN time would otherwise drop the event out of every window
        with pytest.raises(ValidationError, match=message):
            ingest_events(_write(tmp_path, text))

    def test_negative_node_id_names_line(self, tmp_path):
        # -1 is the window PAD id
        with pytest.raises(ValidationError, match="line 2: negative node id -1"):
            ingest_events(_write(tmp_path, "src,tgt,ts\n0,4,1.0\n-1,4,2.0\n"))

    def test_matches_hand_built_store(self, tmp_path):
        rows = [
            (0, 3, 1.0, [0.5, -1.0, 2.0, 0.0]),
            (1, 4, 3.0, [1.0, 1.0, 1.0, 1.0]),
            (2, 3, 5.0, [0.0, 0.25, -0.25, 9.0]),
        ]
        text = "src,tgt,ts,f0,f1,f2,f3\n" + "\n".join(
            f"{s},{t},{ts}," + ",".join(str(v) for v in f) for s, t, ts, f in rows
        )
        store = ingest_events(_write(tmp_path, text))
        reference = EventStore(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            np.array([r[3] for r in rows]),
        )
        assert store.d_e == 4
        np.testing.assert_array_equal(store.src, reference.src)
        np.testing.assert_array_equal(store.tgt, reference.tgt)
        np.testing.assert_array_equal(store.timestamps, reference.timestamps)
        np.testing.assert_array_equal(store.edge_features, reference.edge_features)

    def test_negative_timestamp_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="negative"):
            ingest_events(_write(tmp_path, "src,tgt,ts\n0,1,-4\n"))

    def test_inconsistent_arity_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            ingest_events(_write(tmp_path, "src,tgt,ts,f0\n0,1,2,0.5\n0,1,3\n"))

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            ingest_events(_write(tmp_path, "a,b,c\n1,2,3\n"))

    def test_label_column_optional_and_sparse(self, tmp_path):
        path = _write(tmp_path, "src,tgt,ts,label,f0\n0,1,1,1,0.5\n0,2,2,,0.25\n")
        store = ingest_events(path)
        assert store.labels[0] == 1.0
        assert np.isnan(store.labels[1])

    def test_manifest_controls_universe(self, tmp_path):
        path = _write(tmp_path, "src,tgt,ts\n0,5,1\n")
        manifest = DatasetManifest(num_nodes=32, bipartite=True)
        store = ingest_events(path, manifest)
        assert store.num_nodes == 32
        assert store.bipartite

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 40
        ts = np.sort(rng.uniform(0, 1e6, n))
        store = EventStore(
            rng.integers(0, 10, n),
            rng.integers(10, 20, n),
            ts,
            rng.normal(size=(n, 3)),
            labels=np.where(rng.random(n) < 0.5, 1.0, np.nan),
        )
        path = tmp_path / "round.csv"
        write_events(store, path)
        back = ingest_events(path)
        np.testing.assert_array_equal(back.src, store.src)
        np.testing.assert_array_equal(back.tgt, store.tgt)
        np.testing.assert_array_equal(back.timestamps, store.timestamps)
        np.testing.assert_array_equal(back.edge_features, store.edge_features)
        np.testing.assert_array_equal(np.isnan(back.labels), np.isnan(store.labels))

    @pytest.mark.parametrize("src, ts, feats, message", [
        ([0, 1, 2], [0.0, np.nan, 2.0], np.zeros((3, 1)), "non-finite timestamp at event 1"),
        ([0, 1, 2], [0.0, 1.0, np.inf], np.zeros((3, 1)), "non-finite timestamp at event 2"),
        ([0, 1, 2], [0.0, 1.0, 2.0], [[0.0], [0.0], [np.nan]], "non-finite edge feature at event 2"),
        ([0, -1, 2], [0.0, 1.0, 2.0], np.zeros((3, 1)), "negative node id at event 1"),
    ])
    def test_store_rejects_bad_arrays(self, src, ts, feats, message):
        with pytest.raises(ValidationError, match=message):
            EventStore(src, [3, 4, 5], ts, feats)

    def test_bipartite_overlap_rejected(self):
        with pytest.raises(ValidationError, match="bipartite"):
            EventStore([0, 1], [1, 2], [0.0, 1.0], bipartite=True)


def _random_store(rng, n=50, nodes=12):
    ts = np.sort(rng.uniform(0, 1000, n))
    return EventStore(rng.integers(0, nodes, n), rng.integers(0, nodes, n), ts)


class TestSplit:
    def test_paper_fractions(self):
        store = _random_store(np.random.default_rng(0), n=100)
        r = chronological_split(store, SplitSpec(0.70, 0.15, 0.15))
        assert r.train == (0, 70) and r.val == (70, 85) and r.test == (85, 100)

    def test_floor_rule_small_n(self):
        store = _random_store(np.random.default_rng(0), n=10)
        r = chronological_split(store, SplitSpec(0.70, 0.15, 0.15))
        sizes = (r.train[1] - r.train[0], r.val[1] - r.val[0], r.test[1] - r.test[0])
        assert sizes == (7, 1, 2)

    def test_tie_break_by_index(self):
        store = EventStore(np.zeros(100, int), np.ones(100, int), np.full(100, 5.0))
        r = chronological_split(store)
        assert r.train == (0, 70) and r.val == (70, 85) and r.test == (85, 100)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        for n in list(range(4, 40)) + [997]:
            store = _random_store(rng, n=n)
            r = chronological_split(store)
            assert r.train[0] == 0 and r.test[1] == n
            assert r.train[1] == r.val[0] and r.val[1] == r.test[0]

    def test_n3_floor_rule_leaves_val_empty(self):
        # floor(3*0.7)=2 and floor(3*0.85)=2: the middle range vanishes,
        # which the contract reports rather than silently repairing.
        store = _random_store(np.random.default_rng(5), n=3)
        with pytest.raises(SplitError):
            chronological_split(store)

    def test_monotone_in_time(self):
        rng = np.random.default_rng(4)
        store = _random_store(rng, n=200)
        r = chronological_split(store)
        train_max = store.timestamps[: r.train[1]].max()
        assert np.all(store.timestamps[r.train[1] :] >= train_max - 0.0)

    def test_bad_fractions(self):
        with pytest.raises(SplitError):
            SplitSpec(0.5, 0.5, 0.2)
        with pytest.raises(SplitError):
            SplitSpec(1.0, 0.15, 0.15)

    def test_empty_store(self):
        store = EventStore([], [], [])
        with pytest.raises(SplitError):
            chronological_split(store)

    def test_empty_range_rejected(self):
        store = _random_store(np.random.default_rng(0), n=3)
        with pytest.raises(SplitError):
            chronological_split(store, SplitSpec(0.98, 0.01, 0.01))


class TestInductiveMask:
    def test_all_nodes_in_train(self):
        store = EventStore([0, 1, 0], [1, 0, 1], [0.0, 1.0, 2.0])
        assert inductive_mask(store, (0, 2)) == set()

    def test_node_only_in_test(self):
        store = EventStore([0, 1, 7], [1, 0, 0], [0.0, 1.0, 2.0])
        result = inductive_mask(store, (0, 2))
        assert {7} <= result

    def test_equals_brute_force(self):
        rng = np.random.default_rng(11)
        store = _random_store(rng, n=50, nodes=20)
        lo, hi = 0, 35
        brute = set()
        train_ids = set(store.src[lo:hi]) | set(store.tgt[lo:hi])
        for i in range(store.num_events):
            for v in (store.src[i], store.tgt[i]):
                if int(v) not in train_ids:
                    brute.add(int(v))
        assert inductive_mask(store, (lo, hi)) == brute
