"""Packed rows: the row-wise layers run on the valid slots of a batch only.

The token matrix, the input projection, every LayerNorm, residual sum and
FFN, and the readout hold one row per valid slot (R = ``mask.sum()``). Only
the attention sees a grid, and a compact one: each sequence's valid slots
right-aligned in as many columns as the batch's longest sequence has. So a
PAD slot costs no row and no FFN dropout draw, and a batch whose windows are
all PAD (R = 0, a grid of width 0) still runs, its pairs scored from zero
embeddings. Without dropout the compact grid gives the probabilities and
gradients of the padded (S, L) grid, which the tests keep as a reference.
With dropout the two draw different streams: the attention draws one
uniform per weight of the grid it computes on, the compact (J, S, m, m)
one, as the FFN draws one per hidden unit of its rows.
"""

import dataclasses

import numpy as np
import pytest

from tidegraph import attention as nn
from tidegraph.encoders import MteConfig
from tidegraph.harness import build_scoring_batch, sample_pair_windows
from tidegraph.model import (
    ModelConfig,
    ModelParameters,
    attention_weights,
    featurize_pairs,
    forward_batch,
    grad_check,
    loss_and_grads,
    predict_probs,
    to_sequences,
)
from tidegraph.sampling import PAD_ID, NegativeSampler, NegativeSamplingStrategy, NeighborSampler
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


def _events_batch(cfg, events):
    """A scoring batch of the positives ``events`` plus one negative each."""
    pos = [(int(STORE.src[i]), int(STORE.tgt[i]), float(STORE.timestamps[i])) for i in events]
    neg, _ = NegativeSampler(STORE, NegativeSamplingStrategy("random", seed=1)).sample(pos)
    return build_scoring_batch(NeighborSampler(STORE), STORE, cfg, pos, neg, np.random.default_rng(0))


def _mixed_batch(cfg):
    """Positives from cold-start and late events, one negative each: some
    windows all PAD, some partly, some full."""
    batch, labels = _events_batch(cfg, [0, 1, 60, 147, 148, 149])
    assert 0 < batch.mask.sum() < batch.mask.size
    return batch, labels


def _gap_batch(cfg):
    """The mixed batch with one more PAD slot in the middle of every window
    that has two valid slots or more, as a sampler never writes them."""
    batch, labels = _mixed_batch(cfg)
    mask = batch.mask.copy()
    for row in np.flatnonzero(mask.sum(axis=1) >= 2):
        mask[row, np.flatnonzero(mask[row])[1]] = False
    assert (mask[:, :-1] & ~mask[:, 1:]).any()  # a valid slot before a PAD one
    return dataclasses.replace(batch, mask=mask, token_ids=np.where(mask, batch.token_ids, PAD_ID)), labels


def _full_batch(cfg):
    batch, labels = _events_batch(cfg, range(140, 146))
    assert batch.mask.all()
    return batch, labels


def _off_zero(params):
    """Every parameter moved by noise, so no bias is zero."""
    noise = np.random.default_rng(2)
    for value in params.values.values():
        value += noise.normal(scale=0.1, size=value.shape).astype(value.dtype)


def _padded_grid(mask):
    """The reference: the padded (S, L) grid as its own attention grid."""
    return mask, np.broadcast_to(np.arange(mask.shape[-1]), mask.shape)


def _train_step(params, cfg, batch, labels):
    """Probabilities, gradients and the dropout generator's state after one
    training step, then the attention's mask and each layer's weights on the
    window grid from an evaluation forward."""
    rng = np.random.default_rng(5)
    _, probs = loss_and_grads(params, cfg, batch, labels, training=True, rng=rng)
    grads = {k: g.copy() for k, g in params.grads.items()}
    _, cache = forward_batch(params, cfg, batch)
    weights = [attention_weights(cache, l) for l in range(cfg.layers)]
    return probs, grads, rng.bit_generator.state, cache["layers"][0]["msa"]["mask"], weights


BATCHES = {"mixed": _mixed_batch, "pad gaps": _gap_batch, "all pad": _all_pad_batch, "full": _full_batch}
# roundoff through two layers, relative to the largest entry of each compared
# array: 64 ulps of the parameters' dtype (the worst case read 6)
TOLERANCE = {dtype: 64 * np.finfo(dtype).eps for dtype in (np.float64, np.float32)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", list(BATCHES))
@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_compact_grid_matches_padded_reference(monkeypatch, layout, kind, dtype):
    # at dropout 0: with dropout on, the two grids draw different streams
    cfg = dataclasses.replace(_cfg(layout), dropout=0.0)
    batch, labels = BATCHES[kind](cfg)
    params = ModelParameters(cfg, STORE.d_n, STORE.d_e, seed=4).astype(dtype)
    probs, grads, state, mask, weights = _train_step(params, cfg, batch, labels)
    with monkeypatch.context() as patch:
        patch.setattr(nn, "compact_grid", _padded_grid)
        want_probs, want_grads, want_state, padded_mask, want_weights = _train_step(params, cfg, batch, labels)

    # each sequence's valid slots right-aligned in the longest one's width
    counts = padded_mask.sum(axis=1)
    np.testing.assert_array_equal(padded_mask, to_sequences(batch.mask, cfg))
    assert mask.shape == (len(counts), counts.max(initial=0))
    np.testing.assert_array_equal(mask.sum(axis=1), counts)
    assert not (mask[:, :-1] & ~mask[:, 1:]).any()
    if kind == "full":
        np.testing.assert_array_equal(mask, padded_mask)
    if kind == "pad gaps":
        assert mask.shape[1] < padded_mask.shape[1]

    assert state == want_state  # no draws on either grid
    tol = TOLERANCE[dtype]
    np.testing.assert_allclose(probs, want_probs, rtol=tol, atol=0)
    for name, g in want_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=0, atol=tol * np.abs(g).max(), err_msg=name)
    # the weights back on the (J, S, L, L) grid, zero on PAD query rows and keys
    valid = padded_mask[:, :, None] & padded_mask[:, None, :]
    for got, want in zip(weights, want_weights):
        assert got.shape == (cfg.heads,) + valid.shape and not got[:, ~valid].any()
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_attention_dropout_draws_on_the_compact_grid(layout):
    # each layer's attention dropout scale is dropout_forward's on ones of
    # the compact (J, S, m, m) shape, m < L, with each layer's FFN drawing
    # in between
    cfg = _cfg(layout)
    batch, _ = _gap_batch(cfg)
    params = ModelParameters(cfg, STORE.d_n, STORE.d_e, seed=4)
    _, cache = forward_batch(params, cfg, batch, training=True, rng=np.random.default_rng(5))
    padded_mask = to_sequences(batch.mask, cfg)
    rows = int(batch.mask.sum())
    expected = np.random.default_rng(5)
    for layer in cache["layers"]:
        msa = layer["msa"]
        seqs, m = msa["mask"].shape
        assert seqs == len(padded_mask) and m < padded_mask.shape[1]
        _, want = nn.dropout_forward(np.ones((cfg.heads, seqs, m, m), params.dtype), cfg.dropout, expected, True)
        expected.random(rows * 4 * cfg.hidden)  # the FFN's draws
        np.testing.assert_array_equal(msa["drop_scale"], want)


def test_ml_gaps_pass_central_differences():
    # float64 copy, dropout off; the stacked windows of ml put a PAD gap
    # between the source block's valid slots and the target block's. The
    # biases are moved off zero: a pair of all-PAD windows has zero
    # embeddings, which put the link head's zero-initialised hidden units
    # on the rectifier's kink, where central differences read half a slope
    cfg = _cfg("ml")
    batch, labels = _gap_batch(cfg)
    params = ModelParameters(cfg, STORE.d_n, STORE.d_e, seed=4)
    _off_zero(params)
    err = grad_check(params, cfg, batch, labels, epsilon=1e-5, num_checks=300, rng=np.random.default_rng(0))
    assert err < 1e-4


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_all_pad_batch(layout):
    cfg = _cfg(layout)
    batch, labels = _all_pad_batch(cfg)
    params = ModelParameters(cfg, STORE.d_n, STORE.d_e, seed=4)
    # nonzero biases, and a batch with valid slots first, so that the
    # workspace grids hold stale nonzero rows
    _off_zero(params)
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
    batch, _ = _gap_batch(cfg)
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
    # weight of the compact (J, S, m, m) grid, m < L, layer after layer, and
    # nothing else
    seqs, length = to_sequences(batch.mask, cfg).shape
    m = cache["layers"][0]["msa"]["mask"].shape[1]
    assert m < length
    per_layer = rows * 4 * h + cfg.heads * seqs * m * m
    expected = np.random.default_rng(5)
    expected.random(cfg.layers * per_layer)
    assert rng.bit_generator.state == expected.bit_generator.state
