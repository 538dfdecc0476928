"""The benchmark's hooks still find the program's functions, and its checks pass.

perfbench times and checks the program by wrapping its functions by name
(``perfbench.worker.install_tracer`` and ``CheckedRound.install``). A renamed
or moved function would otherwise only show when a benchmark run fails, and
so would a change that the checked round rejects.
"""

from dataclasses import replace

import pytest

from perfbench import checks, corpus
from perfbench.corpus import CorpusSpec
from perfbench.probe import Patches, Tracer
from perfbench.worker import (
    CheckedRound,
    Setup,
    arch_for_checks,
    check_round,
    install_tracer,
    make_round,
    model_config,
)
from perfbench.workloads import WORKLOADS
import tidegraph.model
from tidegraph import harness
from tidegraph.encoders import ReconstructedSequence
from tidegraph.model import INFERENCE_TILE_SLOTS, ModelConfig, ModelParameters, save_checkpoint
from tidegraph.sampling import NegativeSampler, NegativeSamplingStrategy, NeighborSampler
from tidegraph.synth import generate_hotnode_corpus


class RecordingPatches(Patches):
    """Patches that note each attribute it cannot find instead of raising."""

    def __init__(self):
        super().__init__()
        self.missing = []

    def wrap(self, owner, attr, make_wrapper):
        try:
            super().wrap(owner, attr, make_wrapper)
        except (AttributeError, KeyError):
            where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
            self.missing.append(f"{where}.{attr}")


def test_benchmark_hook_points_resolve():
    tiny = corpus.generate(corpus.CorpusSpec("cycle", 2, 4, 8, 0), seed=0)
    with RecordingPatches() as patches:
        install_tracer(Tracer(), patches)
        CheckedRound(tiny, arch={}).install(patches)
    missing = list(dict.fromkeys(patches.missing))
    assert missing == [], "benchmark hook points no longer resolve: " + ", ".join(missing)


# Each workload on a corpus small enough for tier-1, as (workload, corpus,
# batch size). The AP floors in the benchmark's README are derived for the
# full corpora, so they are off here. The tiled case's first evaluation batch
# is 40 positives and their negatives, 3,200 slots, so the evaluation forward
# runs in two tiles (102 windows and 58), and the reference forward's checked
# pairs 40-42 have their source window in the first and their target window
# in the second.
TINY_ROUNDS = {
    "cycle-train": ("cycle-train", CorpusSpec("cycle", num_sources=6, num_targets=18, num_events=90, d_e=4), 20),
    "cycle-train-ml": ("cycle-train-ml", CorpusSpec("cycle", num_sources=6, num_targets=18, num_events=90, d_e=4), 20),
    "hotnode-eval": ("hotnode-eval", CorpusSpec("hotnode", num_sources=6, num_targets=13, num_events=160, d_e=0), 20),
    "hotnode-eval-tiles": (
        "hotnode-eval", CorpusSpec("hotnode", num_sources=6, num_targets=13, num_events=300, d_e=0), 40
    ),
}


@pytest.mark.parametrize("name", sorted(TINY_ROUNDS))
def test_checked_round_passes(name, tmp_path):
    """One round as ``perfbench/run.py`` checks it, then one traced round."""
    seed = 1
    workload, spec, batch_size = TINY_ROUNDS[name]
    w = replace(WORKLOADS[workload], corpus=spec, batch_size=batch_size, ap_floor=0.0)
    c = corpus.generate(w.corpus, seed)
    csv_path = corpus.write(c, tmp_path / "events.csv")
    cfg = model_config(w, c)
    if name.endswith("-tiles"):
        test = w.split()[2]
        assert test[1] - test[0] >= batch_size  # a whole first batch
        assert 4 * batch_size * cfg.n_neighbors > INFERENCE_TILE_SLOTS  # 2P il windows of n slots
    ckpt = None
    if w.mode == "eval":
        ckpt = tmp_path / "checkpoint.npz"
        save_checkpoint(ckpt, ModelParameters(cfg, 0, c.spec.d_e, seed=seed))
    run_round = make_round(w, cfg, seed, Setup(w, cfg, seed, csv_path, ckpt))

    cap = CheckedRound(c, arch_for_checks(w, c))
    with Patches() as patches:
        cap.install(patches)
        reference = run_round()
    cap.finish(c.feats)
    assert check_round(w, c, cap, reference) == []

    tracer = Tracer()
    with Patches() as patches:
        install_tracer(tracer, patches)
        traced = run_round()
    assert tracer.num_batches == w.round_shape()[0]
    assert checks.check_same(reference, traced, "the traced round") == []


def test_bie_hooks_run_once_per_pair(monkeypatch):
    """perfbench's ``bie.*`` counters and per-pair spans wrap
    ``tidegraph.model.bie_reconstruct`` and ``bie_counts``: ``featurize_pairs``
    must call each exactly once per pair, and every reconstruct result must
    carry ``.replacements`` (position -> id array) and ``.base``."""
    reconstruct, count = tidegraph.model.bie_reconstruct, tidegraph.model.bie_counts
    reconstructed, counted = [], []

    def recording_reconstruct(src_seq, tgt_seq, index):
        out = reconstruct(src_seq, tgt_seq, index)
        reconstructed.append(((src_seq, tgt_seq), out))
        return out

    def recording_counts(*args):
        counted.append(args)
        return count(*args)

    monkeypatch.setattr(tidegraph.model, "bie_reconstruct", recording_reconstruct)
    monkeypatch.setattr(tidegraph.model, "bie_counts", recording_counts)
    store, _, _ = generate_hotnode_corpus(num_events=400)
    cfg = ModelConfig(n_neighbors=8)
    pos = [(int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i])) for i in range(300, 340)]
    negatives = NegativeSampler(store, NegativeSamplingStrategy("historical", seed=1), train_range=(0, 300))
    batch, _ = harness.build_scoring_batch(NeighborSampler(store), store, cfg, pos, negatives.sample(pos)[0])

    assert batch.num_pairs == 2 * len(pos)
    assert len(reconstructed) == len(counted) == batch.num_pairs
    hits = 0
    for ((src_seq, tgt_seq), out), args in zip(reconstructed, counted):
        assert len(args) == 2 and args[0] is out[0] and args[1] is out[1]
        for rec, seq in zip(out, (src_seq, tgt_seq)):
            assert isinstance(rec, ReconstructedSequence) and rec.base is seq
            assert all(isinstance(k, int) and v.ndim == 1 for k, v in rec.replacements.items())
            hits += len(rec.replacements)
    assert hits > 0
