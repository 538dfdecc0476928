"""Packed rows: the row-wise layers run on the valid slots of a batch only.

The token matrix, the input projection, every LayerNorm, residual sum and
FFN, and the readout hold one row per valid slot (R = ``mask.sum()``); only
the attention sees the padded grid. So a PAD slot costs no row and no
dropout draw, and a batch whose windows are all PAD (R = 0) still runs, its
pairs scored from zero embeddings.
"""

import numpy as np
import pytest

from tidegraph import attention as nn
from tidegraph.encoders import MteConfig
from tidegraph.harness import build_scoring_batch, sample_pair_windows
from tidegraph.model import (
    ModelConfig,
    ModelParameters,
    featurize_pairs,
    forward_batch,
    loss_and_grads,
    predict_probs,
    to_sequences,
)
from tidegraph.sampling import NegativeSampler, NegativeSamplingStrategy, NeighborSampler
from tidegraph.synth import generate_cycle_corpus

STORE = generate_cycle_corpus(num_sources=5, num_targets=15, num_events=150, seed=0, d_e=2)[0]


def _cfg(layout):
    return ModelConfig(
        n_neighbors=5, hidden=8, layers=2, heads=2, dropout=0.2, layout=layout,
        time_mode="mix" if layout == "il" else "fine", d_b=3, d_s=2, d_tr=2, ste_window=3,
        mte=MteConfig(d_t=6, alpha=26.0, beta=10.0, granularity="weekly", r_segments=4),
    )


def _all_pad_batch(cfg):
    # every pair is queried before the first event, so no window has a slot
    pairs = [(0, 6, 0.5), (1, 7, 0.5), (2, 8, 0.25)]
    seq_pairs, index = sample_pair_windows(NeighborSampler(STORE), pairs, cfg)
    batch = featurize_pairs(seq_pairs, index, STORE, cfg)
    assert not batch.mask.any()
    return batch, np.array([1.0, 0.0, 1.0])


def _mixed_batch(cfg):
    """Positives from cold-start and late events, one negative each: some
    windows all PAD, some partly, some full."""
    events = [0, 1, 60, 147, 148, 149]
    pos = [(int(STORE.src[i]), int(STORE.tgt[i]), float(STORE.timestamps[i])) for i in events]
    neg, _ = NegativeSampler(STORE, NegativeSamplingStrategy("random", seed=1)).sample(pos)
    batch, labels = build_scoring_batch(NeighborSampler(STORE), STORE, cfg, pos, neg, np.random.default_rng(0))
    assert 0 < batch.mask.sum() < batch.mask.size
    return batch, labels


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_all_pad_batch(layout):
    cfg = _cfg(layout)
    batch, labels = _all_pad_batch(cfg)
    params = ModelParameters(cfg, STORE.d_n, STORE.d_e, seed=4)
    # nonzero biases, and a batch with valid slots first, so that the
    # workspace grids hold stale nonzero rows
    noise = np.random.default_rng(2)
    for value in params.values.values():
        value += noise.normal(scale=0.1, size=value.shape).astype(value.dtype)
    loss_and_grads(params, cfg, *_mixed_batch(cfg), training=True, rng=np.random.default_rng(1))
    v = params.values
    h = cfg.hidden

    # the link head on zero node embeddings
    zeros = np.zeros((batch.num_pairs, 2 * h), params.dtype)
    logits, _ = nn.ffn_forward(zeros, v["link.w1"], v["link.b1"], v["link.w2"], v["link.b2"])
    want = nn.sigmoid(logits[:, 0])

    loss, probs = loss_and_grads(params, cfg, batch, labels, training=True, rng=np.random.default_rng(0))
    assert np.isfinite(loss)
    np.testing.assert_array_equal(probs, want)
    np.testing.assert_array_equal(predict_probs(params, cfg, batch), want)
    for name, g in params.grads.items():
        if name.startswith(("layers.", "input.")):
            assert not g.any(), name


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_pad_rows_cost_nothing(layout):
    cfg = _cfg(layout)
    batch, _ = _mixed_batch(cfg)
    params = ModelParameters(cfg, STORE.d_n, STORE.d_e, seed=4)
    rows, h = int(batch.mask.sum()), cfg.hidden

    rng = np.random.default_rng(5)
    _, cache = forward_batch(params, cfg, batch, training=True, rng=rng)
    assert cache["tokens"].shape[0] == rows
    for layer in cache["layers"]:
        x, hidden = layer["ffn"][:2]
        assert x.shape == (rows, h) and hidden.shape == (rows, 4 * h)
        for ln in ("ln1", "ln2"):
            assert layer[ln][0].shape == (rows, h), ln  # the normalized rows
        # the attention's projections and output run on the rows too
        assert len(layer["msa"]["index"]) == rows
        assert layer["msa"]["concat"].shape == (rows, h)

    # dropout draws one float64 uniform per real FFN unit and per attention
    # weight of the padded (J, S, L, L) grid, layer after layer, and nothing else
    seqs, length = to_sequences(batch.mask, cfg).shape
    per_layer = rows * 4 * h + cfg.heads * seqs * length * length
    expected = np.random.default_rng(5)
    expected.random(cfg.layers * per_layer)
    assert rng.bit_generator.state == expected.bit_generator.state
