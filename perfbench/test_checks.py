"""The benchmark's own tests: each check passes on the program's output and
fails when that output is corrupted.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, corpus
from perfbench.probe import Patches, Tracer, ffn_flops, msa_flops
from perfbench.workloads import WORKLOADS, decay_alpha
from tidegraph.events import ingest_events
from tidegraph.harness import build_scoring_batch, gradcheck_fixture
from tidegraph.metrics import auc_roc, average_precision
from tidegraph.model import ModelParameters, forward_batch
from tidegraph.sampling import NegativeSampler, NegativeSamplingStrategy, NeighborSampler


@pytest.fixture(scope="module")
def cycle(tmp_path_factory):
    spec = corpus.CorpusSpec("cycle", num_sources=6, num_targets=18, num_events=240, d_e=4)
    c = corpus.generate(spec, seed=3)
    store = ingest_events(corpus.write(c, tmp_path_factory.mktemp("cycle") / "events.csv"))
    return c, store


@pytest.fixture(scope="module")
def hotnode(tmp_path_factory):
    spec = corpus.CorpusSpec("hotnode", num_sources=6, num_targets=11, num_events=480, d_e=0)
    c = corpus.generate(spec, seed=3)
    store = ingest_events(corpus.write(c, tmp_path_factory.mktemp("hot") / "events.csv"))
    return c, store


def _arch(c, layout):
    return dict(
        layers=2, heads=2, ste_window=3, layout=layout,
        time="mix" if layout == "il" else "fine", ste=layout == "il",
        alpha=decay_alpha(c.duration_seconds), beta=10.0, d_t=100,
        divisor=7 * 24 * 3600.0, r_segments=c.r_segments, num_nodes=c.num_nodes,
    )


def _scored_batch(c, store, layout, pairs=4):
    """A featurized batch of the last ``pairs`` events, built as the worker's
    configuration builds it, plus the windows of its rows."""
    from perfbench.worker import model_config

    w = replace(WORKLOADS["cycle-train"], layout=layout)
    cfg = model_config(w, c)
    sampler = NeighborSampler(store)
    pos = [(int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i]))
           for i in range(store.num_events - pairs, store.num_events)]
    neg, _ = NegativeSampler(store, NegativeSamplingStrategy("random", seed=0)).sample(pos)
    windows = []
    with Patches() as patches:
        patches.after(NeighborSampler, "sample", lambda seq, *a, **k: windows.append(seq))
        batch, labels = build_scoring_batch(sampler, store, cfg, pos, neg, np.random.default_rng(0))
    params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
    probs, _ = forward_batch(params, cfg, batch)
    # Rows are sources (positives' then negatives'), then targets in the same order.
    src_w = windows[0:2 * pairs:2] + windows[0:2 * pairs:2]
    tgt_w = windows[1:2 * pairs:2] + windows[2 * pairs:]
    return batch, params, probs, src_w + tgt_w


class TestCorpus:
    def test_program_reads_the_arrays_written(self, cycle):
        c, store = cycle
        np.testing.assert_array_equal(store.src, c.src)
        np.testing.assert_array_equal(store.tgt, c.tgt)
        np.testing.assert_array_equal(store.timestamps, c.ts)
        np.testing.assert_array_equal(store.edge_features, c.feats)

    def test_same_seed_same_corpus(self):
        spec = WORKLOADS["hotnode-eval"].corpus
        a, b = corpus.generate(spec, 7), corpus.generate(spec, 7)
        np.testing.assert_array_equal(a.tgt, b.tgt)
        assert not np.array_equal(a.tgt, corpus.generate(spec, 8).tgt)

    def test_cycle_rule(self, cycle):
        c, _ = cycle
        for s in range(c.spec.num_sources):
            seq = c.tgt[c.src == s]
            np.testing.assert_array_equal(seq[3:], seq[:-3])
            assert len(set(seq[:3])) == 3

    def test_round_shape(self):
        assert WORKLOADS["cycle-train"].round_shape() == (20, 1850)
        assert WORKLOADS["hotnode-eval"].round_shape() == (6, 1200)


class TestWindows:
    def test_sampled_windows_pass(self, cycle):
        c, store = cycle
        sampler = NeighborSampler(store)
        windows = [sampler.sample(int(s), float(t), 20) for s, t in zip(c.src[100:140], c.ts[100:140])]
        windows += [sampler.sample(int(v), float(t), 20) for v, t in zip(c.tgt[100:140], c.ts[100:140])]
        assert checks.check_windows(c.src, c.tgt, c.ts, windows) == []

    def test_event_at_query_time_fails(self, cycle):
        c, store = cycle
        w = NeighborSampler(store).sample(int(c.src[150]), float(c.ts[150]), 20)
        late = replace(w, query_time=float(w.times[-1]))
        assert checks.check_windows(c.src, c.tgt, c.ts, [late])

    def test_slot_not_in_store_fails(self, cycle):
        c, store = cycle
        w = NeighborSampler(store).sample(int(c.src[150]), float(c.ts[150]), 20)
        ids = w.ids.copy()
        ids[-1] = ids[-2] + 1 if ids[-2] + 1 != ids[-1] else ids[-2] + 2
        assert checks.check_windows(c.src, c.tgt, c.ts, [replace(w, ids=ids)])


class TestNegatives:
    def _draw(self, c, store):
        pos = [(int(c.src[i]), int(c.tgt[i]), float(c.ts[i])) for i in range(40, 100)]
        sampler = NegativeSampler(store, NegativeSamplingStrategy("historical", seed=1), train_range=(0, 40))
        neg, fb = sampler.sample(pos)
        return pos, neg, fb

    def test_historical_negatives_pass(self, hotnode):
        c, store = hotnode
        pos, neg, fb = self._draw(c, store)
        assert checks.check_negatives(checks.PastTargets(c.src, c.tgt, c.ts), "historical", pos, neg, fb) == []

    def test_negative_from_the_future_fails(self, hotnode):
        c, store = hotnode
        pos, neg, fb = self._draw(c, store)
        past = checks.PastTargets(c.src, c.tgt, c.ts)
        # A target some source meets only after its positive's time.
        i, v = next((i, int(v)) for i, (s, _t, tm) in enumerate(pos)
                    for v, u in zip(c.tgt[c.src == s], c.ts[c.src == s])
                    if u > tm and int(v) not in past.before(s, tm))
        bad = neg.copy()
        bad[i] = v
        problems = checks.check_negatives(past, "historical", pos, bad, fb)
        assert any("not met before" in p for p in problems)

    def test_unneeded_fallback_fails(self, hotnode):
        c, store = hotnode
        pos, neg, fb = self._draw(c, store)
        flagged = fb.copy()
        flagged[0] = True
        assert checks.check_negatives(checks.PastTargets(c.src, c.tgt, c.ts), "historical", pos, neg, flagged)

    def test_random_negative_equal_to_positive_fails(self, cycle):
        c, _ = cycle
        pos = [(int(c.src[0]), int(c.tgt[0]), float(c.ts[0]))]
        past = checks.PastTargets(c.src, c.tgt, c.ts)
        assert checks.check_negatives(past, "random", pos, [pos[0][1]], [False])


class TestRanking:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.sizes = [5, 5, 3]
        self.labels = checks.structural_labels(self.sizes)
        self.scores = np.clip(rng.normal(0.5 + 0.2 * self.labels, 0.2), 0, 1)

    def test_program_metrics_pass(self):
        ap, auc = average_precision(self.scores, self.labels), auc_roc(self.scores, self.labels)
        assert checks.check_ranking(self.scores, self.labels, self.sizes, ap, auc) == []

    def test_swapped_labels_fail(self):
        swapped = 1.0 - self.labels
        ap, auc = average_precision(self.scores, swapped), auc_roc(self.scores, swapped)
        assert checks.check_ranking(self.scores, swapped, self.sizes, ap, auc)

    def test_wrong_ap_fails(self):
        ap, auc = average_precision(self.scores, self.labels), auc_roc(self.scores, self.labels)
        assert checks.check_ranking(self.scores, self.labels, self.sizes, ap * (1 + 1e-6), auc)
        assert checks.check_ranking(self.scores, self.labels, self.sizes, ap, auc + 1e-6)

    def test_ties_follow_input_order(self):
        scores = np.array([0.5, 0.5, 0.2, 0.5])
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        assert checks.reference_ap(scores, labels) == pytest.approx(average_precision(scores, labels), abs=0)

    def test_positive_count(self):
        assert checks.check_positives(75, (425, 500), "test") == []
        assert checks.check_positives(74, (425, 500), "test")


class TestLearning:
    def test_falling_loss_passes(self):
        assert checks.check_learning([0.7, 0.6], [0.8, 0.6], True) == []

    @pytest.mark.parametrize("losses,epochs,finite", [
        ([0.7, np.nan], [0.8, 0.6], True),
        ([0.7, 0.6], [0.6, 0.6], True),
        ([0.7, 0.6], [0.6, 0.7], True),
        ([0.7, 0.6], [0.8, 0.6], False),
        ([0.7, 0.6], [0.8], True),
    ])
    def test_bad_learning_fails(self, losses, epochs, finite):
        assert checks.check_learning(losses, epochs, finite)

    def test_ap_floor(self):
        assert checks.check_ap_floor(0.9, 0.75) == []
        assert checks.check_ap_floor(0.74, 0.75)
        assert checks.check_ap_floor(float("nan"), 0.75)

    def test_determinism_is_bitwise(self):
        a = {"epochs": [{"train_loss": 0.5, "val_ap": 0.9}], "test": {"ap": 0.8, "num_positives": 75}}
        b = {"epochs": [{"train_loss": float(np.nextafter(0.5, 1.0)), "val_ap": 0.9}],
             "test": {"ap": 0.8, "num_positives": 75}}
        assert checks.check_same(a, a, "run") == []
        assert checks.check_same(a, b, "run")


class TestModelPath:
    @pytest.mark.parametrize("layout", ["il", "ml"])
    def test_features_and_forward_pass(self, cycle, layout):
        c, store = cycle
        batch, params, probs, rows = _scored_batch(c, store, layout)
        arch = _arch(c, layout)
        assert checks.check_features(rows, batch, c.feats, arch) == []
        pairs = list(range(batch.num_pairs))
        assert checks.check_forward(batch, params.values, arch, probs, pairs) == []

    def test_gradcheck_fixture_forward_passes(self):
        params, cfg, batch, _ = gradcheck_fixture()
        probs, _ = forward_batch(params, cfg, batch)
        arch = dict(layers=cfg.layers, heads=cfg.heads, layout=cfg.layout)
        assert checks.check_forward(batch, params.values, arch, probs, list(range(batch.num_pairs))) == []

    def test_scaled_probability_fails(self, cycle):
        c, store = cycle
        batch, params, probs, _ = _scored_batch(c, store, "il")
        bad = probs.copy()
        bad[1] *= 1.01
        assert checks.check_forward(batch, params.values, _arch(c, "il"), bad, [0, 1, 2])

    def test_corrupted_mte_fails(self, cycle):
        c, store = cycle
        batch, _, _, rows = _scored_batch(c, store, "il")
        batch = replace(batch, tmix=batch.tmix.copy())
        batch.tmix[0, -1, 5] += 1e-3
        assert any("MTE" in p for p in checks.check_features(rows, batch, c.feats, _arch(c, "il")))

    def test_coarse_term_missing_fails(self, cycle):
        c, store = cycle
        batch, _, _, rows = _scored_batch(c, store, "il")
        arch = dict(_arch(c, "il"), r_segments=c.r_segments + 1)
        assert any("MTE" in p for p in checks.check_features(rows, batch, c.feats, arch))

    def test_corrupted_ste_fails(self, cycle):
        c, store = cycle
        batch, _, _, rows = _scored_batch(c, store, "il")
        batch = replace(batch, trend=batch.trend.copy())
        batch.trend[1, 3, 0] += 1e-3
        assert any("trend" in p for p in checks.check_features(rows, batch, c.feats, _arch(c, "il")))


class TestTracer:
    def test_self_times_add_up_to_root_time(self):
        ticks = iter(range(100))
        tr = Tracer(clock=lambda: float(next(ticks)))
        outer = tr.enter("harness.train")
        a = tr.enter("sampling.negative")
        tr.exit(a)
        b = tr.enter("model.forward")
        inner = tr.enter("attention.msa_fwd")
        tr.exit(inner)
        tr.exit(b)
        tr.exit(outer)
        assert sum(tr.span_self_times()) == pytest.approx(tr.root_time())
        assert sum(tr.self_time.values()) == pytest.approx(tr.root_time())
        # model.forward spans ticks 4..7 with a child over 5..6: self time 2.
        assert tr.self_time[("model.forward", 0)] == 2.0
        assert tr.per_batch(tr.durations(), ("model.forward",)) == 3.0

    def test_wrapping_restores_originals(self):
        import tidegraph.model as m

        original = m.forward_batch
        tr = Tracer()
        with Patches() as patches:
            patches.wrap(m, "forward_batch", tr.span_wrapper("model.forward"))
            assert m.forward_batch is not original
        assert m.forward_batch is original

    def test_flop_counts(self):
        # One window of 2 rows, width 4, 2 heads of width 2: q, k, v cost
        # 3*2*2*4*2 per head, scores and context 2*2*2*2*2, output 2*2*4*4.
        assert msa_flops((1, 2, 4), heads=2, d_head=2) == 2 * (96 + 32) + 64
        assert ffn_flops((3, 4), inner=16) == 2 * 2 * 3 * 4 * 16


def test_launcher_refuses_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((Path(__file__).parent / "run.py").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
