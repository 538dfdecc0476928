"""The step workspace: reuse never changes a result, and a warm step allocates little.

``ModelParameters.workspace`` holds every large array of a training or
evaluation step. A buffer grows to the largest batch seen and is reused by
every later step, so these tests check that whatever ran before (a larger
batch, a smaller one, an evaluation of another size) leaves probabilities and
gradients bitwise unchanged, that nothing handed to the caller lives in the
workspace, and, with ``tracemalloc``, that a warm step allocates a small
fraction of what it did when every step allocated its own arrays.
Evaluation (``predict_probs``, ``batch_loss``) runs in the workspace's
inference scope, where every layer shares layer 0's buffers: the tests check
that it scores bitwise as the per-layer forward does, that the scope ends
even on an exception, and that it keeps one layer's buffers resident. In the
scope the forward also runs over tiles of whole sequences, at most
``INFERENCE_TILE_SLOTS`` padded slots each: the tests check that the tiles
score as the one-tile forward does, whatever the layout, the PAD pattern and
the tile size, and that an evaluation-only workspace is sized by the tile,
not the batch. The attention's compact grid is as wide as the batch's
longest sequence, and its arrays are sized for the padded grid, so a narrow
batch already allocates what a full-width one needs.
"""

import dataclasses
import tracemalloc

import tidegraph.model

import numpy as np
import pytest

from tidegraph import attention as nn
from tidegraph.config import RunConfig, fit_time_encoder
from tidegraph.encoders import MteConfig
from tidegraph.harness import build_scoring_batch, sample_pair_windows
from tidegraph.errors import CheckFailure
from tidegraph.model import (
    INFERENCE_TILE_SLOTS, ModelConfig, ModelParameters, batch_loss, featurize_pairs, forward_batch, loss_and_grads,
    predict_probs, to_sequences,
)
from tidegraph.sampling import NegativeSampler, NegativeSamplingStrategy, NeighborSampler
from tidegraph.synth import generate_cycle_corpus

MIB = 2**20
# tracemalloc's fresh peak of one warm loss_and_grads on the budget batch
# below (il, 100 pairs, n = 20, h = 64) when every step allocated its own
# arrays: 64.6 MiB. A warm step must now stay under BUDGET, and the
# workspace, which is resident for the whole run, under the old peak.
ALLOCATING_PEAK = 64.6 * MIB
BUDGET = 8 * MIB
# A tile's row GEMMs may round differently from the whole batch's at some
# row counts, so tiled and one-tile probabilities may differ by roundoff: at
# most 64 float32 ulps relative to the largest probability, and the loss by
# as much relative to itself.
TILE_TOLERANCE = 64 * np.finfo(np.float32).eps


def _cfg(layout, **kw):
    args = dict(
        n_neighbors=5, hidden=8, layers=2, heads=2, dropout=0.2, layout=layout,
        time_mode="mix" if layout == "il" else "fine", d_b=3, d_s=2, d_tr=2, ste_window=3,
        mte=MteConfig(d_t=6, alpha=26.0, beta=10.0, granularity="weekly", r_segments=4),
    )
    args.update(kw)
    return ModelConfig(**args)


def _store():
    return generate_cycle_corpus(num_sources=5, num_targets=15, num_events=150, seed=0, d_e=2)[0]


def _batch(store, cfg, events):
    """A scoring batch of the positives ``events`` plus one negative each."""
    pos = [(int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i])) for i in events]
    neg, _ = NegativeSampler(store, NegativeSamplingStrategy("random", seed=1)).sample(pos)
    return build_scoring_batch(NeighborSampler(store), store, cfg, pos, neg, np.random.default_rng(0))


def _step(params, cfg, batch, labels):
    _, probs = loss_and_grads(params, cfg, batch, labels, training=True, rng=np.random.default_rng(3))
    return probs, {k: g.copy() for k, g in params.grads.items()}


def _buffers(params):
    return list(params.workspace._store.values())


def _aliases(array, params):
    return any(np.shares_memory(array, buf) for buf in _buffers(params))


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
@pytest.mark.parametrize("first_use", ["larger batch", "smaller batch", "evaluation", "evaluation between steps"])
def test_reuse_is_bitwise_invisible(layout, first_use):
    cfg = _cfg(layout)
    store = _store()
    # the first events have no history: their windows are all PAD
    batch, labels = _batch(store, cfg, [0, 1, 147, 148, 149])
    fresh = ModelParameters(cfg, store.d_n, store.d_e, seed=2)
    want_probs, want_grads = _step(fresh, cfg, batch, labels)

    used = ModelParameters(cfg, store.d_n, store.d_e, seed=2)
    if first_use.startswith("evaluation"):
        if first_use == "evaluation between steps":
            _step(used, cfg, *_batch(store, cfg, range(100, 104)))
        predict_probs(used, cfg, _batch(store, cfg, range(130, 137))[0])
    else:
        other, other_labels = _batch(store, cfg, range(100, 109 if first_use == "larger batch" else 102))
        _step(used, cfg, other, other_labels)
    probs, grads = _step(used, cfg, batch, labels)
    np.testing.assert_array_equal(probs, want_probs)
    for name, g in want_grads.items():
        np.testing.assert_array_equal(grads[name], g, err_msg=name)


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_compact_width_replaces_no_storage(layout):
    # early events have short windows, late ones fill them: the second step's
    # attention grid is the padded width, the first one's much narrower
    cfg = _cfg(layout)
    store = _store()
    early, late = _batch(store, cfg, range(5, 10)), _batch(store, cfg, range(140, 145))
    widths = [nn.compact_grid(to_sequences(batch.mask, cfg))[0].shape[1] for batch, _ in (early, late)]
    padded_width = to_sequences(late[0].mask, cfg).shape[1]
    assert 0 < widths[0] < padded_width // 2 and widths[1] == padded_width

    params = ModelParameters(cfg, store.d_n, store.d_e, seed=2)
    storage = lambda: {key: (buf.ctypes.data, buf.nbytes) for key, buf in params.workspace._store.items()}
    _step(params, cfg, *early)
    after_early = storage()
    _step(params, cfg, *late)
    assert storage() == after_early


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_nothing_handed_out_lives_in_the_workspace(layout):
    cfg = _cfg(layout)
    store = _store()
    sampler = NeighborSampler(store)
    pairs = [(int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i])) for i in range(140, 146)]
    seq_pairs, index = sample_pair_windows(sampler, pairs, cfg)
    batch = featurize_pairs(seq_pairs, index, store, cfg)
    labels = np.ones(len(pairs))
    params = ModelParameters(cfg, store.d_n, store.d_e, seed=2)
    assert _buffers(params) == []  # allocated by the first forward, not the constructor
    probs, _ = forward_batch(params, cfg, batch, training=True, rng=np.random.default_rng(0))
    _, loss_probs = loss_and_grads(params, cfg, batch, labels, training=True, rng=np.random.default_rng(0))
    eval_probs = predict_probs(params, cfg, batch)
    assert _buffers(params)
    for name, array in [("forward", probs), ("loss_and_grads", loss_probs), ("predict_probs", eval_probs),
                        *params.grads.items(), *vars(batch).items()]:
        if isinstance(array, np.ndarray):
            assert not _aliases(array, params), name

    copy = params.astype(np.float64)
    loss_and_grads(copy, cfg, batch, labels)
    assert copy.workspace is not params.workspace
    assert _buffers(copy)
    assert not any(np.shares_memory(a, b) for a in _buffers(copy) for b in _buffers(params))


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
@pytest.mark.parametrize("events, padded", [([0, 1, 147, 148, 149], True), (range(140, 146), False)],
                         ids=["pad", "full"])
def test_evaluation_scores_as_the_per_layer_forward(layout, events, padded):
    cfg = _cfg(layout)
    store = _store()
    batch, labels = _batch(store, cfg, events)
    assert batch.mask.all() != padded
    params = ModelParameters(cfg, store.d_n, store.d_e, seed=2)
    probs = predict_probs(params, cfg, batch)
    loss = batch_loss(params, cfg, batch, labels)
    np.testing.assert_array_equal(probs, forward_batch(params, cfg, batch, training=False)[0])
    assert loss == loss_and_grads(params, cfg, batch, labels, training=False)[0]
    assert not params.workspace.shared_layers


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_inference_scope_ends_on_an_exception(layout):
    cfg = _cfg(layout)
    store = _store()
    batch, labels = _batch(store, cfg, [0, 1, 147, 148, 149])
    want_probs, want_grads = _step(ModelParameters(cfg, store.d_n, store.d_e, seed=2), cfg, batch, labels)

    params = ModelParameters(cfg, store.d_n, store.d_e, seed=2)
    predict_probs(params, cfg, batch)
    narrow = dataclasses.replace(batch, tmix=batch.tmix[..., :-1])
    with pytest.raises(CheckFailure, match="token width"):
        predict_probs(params, cfg, narrow)
    assert not params.workspace.shared_layers
    probs, grads = _step(params, cfg, batch, labels)
    np.testing.assert_array_equal(probs, want_probs)
    for name, g in want_grads.items():
        np.testing.assert_array_equal(grads[name], g, err_msg=name)


def _budget_batch():
    """A batch shaped like the benchmark's cycle-train step: layout il with
    MTE, BIE and STE at the default sizes, 50 positives and 50 negatives,
    windows of 20 and 16 edge features."""
    store, manifest = generate_cycle_corpus(num_sources=20, num_targets=60, num_events=500, seed=1, d_e=16)
    run_cfg = fit_time_encoder(RunConfig(), store.duration_seconds, manifest)
    cfg = run_cfg.model
    batch, labels = _batch(store, cfg, range(300, 350))
    return ModelParameters(cfg, store.d_n, store.d_e, seed=1), cfg, batch, labels


def _fresh_peak(call):
    """tracemalloc's peak during ``call()``, above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_warm_step_allocation_budget():
    params, cfg, batch, labels = _budget_batch()
    assert batch.h.shape[:2] == (200, 20)
    step = lambda: loss_and_grads(params, cfg, batch, labels, training=True, rng=np.random.default_rng(0))
    for _ in range(2):
        step()
    peak = _fresh_peak(step)
    assert peak < BUDGET, f"a warm step allocated a fresh peak of {peak / MIB:.2f} MiB"
    assert params.workspace.nbytes <= ALLOCATING_PEAK, f"workspace {params.workspace.nbytes / MIB:.2f} MiB"


def test_warm_evaluation_allocation_budget():
    params, cfg, batch, labels = _budget_batch()
    assert cfg.layers == 2
    for _ in range(2):
        predict_probs(params, cfg, batch)
    keys = list(params.workspace._store)
    assert not any(key.startswith("layers.1.") for key in keys), keys
    assert not any(key.endswith(".dropped") for key in keys), "inactive dropout requested its buffer"
    peak = _fresh_peak(lambda: predict_probs(params, cfg, batch))
    assert peak < BUDGET, f"a warm evaluation allocated a fresh peak of {peak / MIB:.2f} MiB"

    # a copy has its own, empty workspace
    trained = params.astype(params.dtype)
    loss_and_grads(trained, cfg, batch, labels, training=True, rng=np.random.default_rng(0))
    evaluation, training = params.workspace.nbytes, trained.workspace.nbytes
    assert evaluation < training, f"evaluation {evaluation / MIB:.2f} MiB, training {training / MIB:.2f} MiB"
    # an evaluation after training writes into buffers training made resident
    predict_probs(trained, cfg, batch)
    assert trained.workspace.nbytes == training


def _tiles_of(monkeypatch, call):
    """``call()`` and the sequence count of each attention grid it built,
    one per tile of a forward."""
    tiles, compact_grid = [], nn.compact_grid
    with monkeypatch.context() as patch:
        patch.setattr(nn, "compact_grid", lambda mask: tiles.append(len(mask)) or compact_grid(mask))
        return call(), tiles


def _assert_tiled_scores_as_one_tile(monkeypatch, params, cfg, batch, labels):
    """Evaluation scores as the one-tile forward; returns the tiles' sequence counts."""
    (probs, loss), tiles = _tiles_of(
        monkeypatch, lambda: (predict_probs(params, cfg, batch), batch_loss(params, cfg, batch, labels))
    )
    want = forward_batch(params, cfg, batch, training=False)[0]
    want_loss = float(nn.bce_loss(want, labels).mean())
    np.testing.assert_allclose(probs, want, rtol=0, atol=TILE_TOLERANCE * np.abs(want).max())
    assert abs(loss - want_loss) <= TILE_TOLERANCE * abs(want_loss)
    # predict_probs then batch_loss, each over the same consecutive tiles of
    # whole sequences, at most INFERENCE_TILE_SLOTS slots unless one sequence
    sequences = to_sequences(batch.mask, cfg)
    half = tiles[: len(tiles) // 2]
    assert tiles == half + half and sum(half) == len(sequences)
    per_tile = max(1, tidegraph.model.INFERENCE_TILE_SLOTS // sequences.shape[1])
    assert half == [min(per_tile, len(sequences) - a) for a in range(0, len(sequences), per_tile)]
    return half


def _one_pair_batch(cfg):
    store = _store()
    seq_pairs, index = sample_pair_windows(NeighborSampler(store), [(1, 9, float(store.timestamps[120]))], cfg)
    return featurize_pairs(seq_pairs, index, store, cfg), np.ones(1)


def _all_pad_batch(cfg):
    # every pair is queried before the first event, so no window has a slot
    store = _store()
    seq_pairs, index = sample_pair_windows(NeighborSampler(store), [(0, 6, 0.5), (1, 7, 0.5), (2, 8, 0.25)], cfg)
    batch = featurize_pairs(seq_pairs, index, store, cfg)
    assert not batch.mask.any()
    return batch, np.array([1.0, 0.0, 1.0])


TILE_BATCHES = {
    # cold-start and late positives: windows all PAD, partly PAD and full
    "pad heavy": lambda cfg: _batch(_store(), cfg, [0, 1, 2, 60, 61, 147, 148, 149]),
    "all pad": _all_pad_batch,
    "one pair": _one_pair_batch,
}


@pytest.mark.parametrize("tile_slots", [3, 12])
@pytest.mark.parametrize("kind", list(TILE_BATCHES))
@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_tiles_score_as_one_tile(monkeypatch, layout, kind, tile_slots):
    # windows of 5 slots: a tile of 3 slots is narrower than any sequence
    # (one sequence a tile), one of 12 holds one or two
    cfg = _cfg(layout)
    batch, labels = TILE_BATCHES[kind](cfg)
    assert batch.mask.any() == (kind != "all pad") and (batch.num_pairs == 1) == (kind == "one pair")
    monkeypatch.setattr(tidegraph.model, "INFERENCE_TILE_SLOTS", tile_slots)
    store = _store()
    params = ModelParameters(cfg, store.d_n, store.d_e, seed=2)
    tiles = _assert_tiled_scores_as_one_tile(monkeypatch, params, cfg, batch, labels)
    # one pair is one ml sequence, or two il or sl ones, which a 12-slot tile holds
    assert len(tiles) >= 2 or (kind == "one pair" and (layout == "ml" or tile_slots == 12))
    if layout == "il" and kind == "pad heavy":
        # pair i's windows are sequences i and P + i, here in different tiles
        ends = np.cumsum(tiles)
        p = batch.num_pairs
        assert any(np.searchsorted(ends, i, "right") != np.searchsorted(ends, p + i, "right") for i in range(p))


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
def test_tiles_of_the_default_size_score_as_one_tile(monkeypatch, layout):
    # 60 positives and their negatives at n = 20: 4,800 slots, three tiles
    cfg = _cfg(layout, n_neighbors=20)
    store = _store()
    batch, labels = _batch(store, cfg, range(30, 90))
    assert batch.mask.size > 2 * INFERENCE_TILE_SLOTS and 0 < batch.mask.sum() < batch.mask.size
    params = ModelParameters(cfg, store.d_n, store.d_e, seed=2)
    assert len(_assert_tiled_scores_as_one_tile(monkeypatch, params, cfg, batch, labels)) == 3


@pytest.mark.parametrize("layout", ["il", "ml"])
def test_evaluation_workspace_is_sized_by_the_tile(layout):
    """An evaluation-only workspace holds the same bytes for 100 pairs and
    for 400 (at n = 20, two tiles and eight), less than one tile of the
    whole batch would."""
    store, manifest = generate_cycle_corpus(num_sources=20, num_targets=60, num_events=500, seed=1, d_e=16)
    cfg = fit_time_encoder(RunConfig(), store.duration_seconds, manifest).model
    cfg = dataclasses.replace(cfg, layout=layout, time_mode="mix" if layout == "il" else "fine")
    sizes = []
    for events in (range(300, 350), range(100, 300)):
        batch, _ = _batch(store, cfg, events)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        predict_probs(params, cfg, batch)
        sizes.append(params.workspace.nbytes)
    assert sizes[0] == sizes[1]
    whole = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
    forward_batch(whole, cfg, batch, training=False)
    assert sizes[1] < whole.workspace.nbytes / 2
