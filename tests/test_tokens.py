"""Token assembly widths, block table, slicing, and masks for the three layouts.

Tokens are built by one path: ``featurize_pairs`` runs the fixed encoders,
and ``_assemble_tokens`` gathers their blocks into one token row per valid
slot, in ``to_sequences`` order, which for the ``ml`` layout sets the two
windows of a pair one after the other.
"""

import numpy as np
import pytest

from tidegraph import attention as nn
from tidegraph.encoders import MteConfig
from tidegraph.errors import CheckFailure
from tidegraph.events import EventStore
from tidegraph.harness import gradcheck_fixture
from tidegraph.model import (
    ModelConfig,
    ModelParameters,
    PairBatch,
    _assemble_tokens,
    featurize_pairs,
    forward_batch,
    to_sequences,
    to_window_rows,
)
from tidegraph.sampling import PAD_ID, BatchNeighborIndex, NeighborSequence

NO_INDEX = BatchNeighborIndex(src_index={}, tgt_index={})


def _seq(ids, query_time=100.0, anchor=0):
    """A window whose k-th real slot holds event k, whose features in
    :func:`_store` are ``arange(k * d_e, (k + 1) * d_e)``."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    real = ids != PAD_ID
    times = np.where(real, np.linspace(1, 20, n), query_time)
    return NeighborSequence(
        anchor=anchor, query_time=query_time, ids=ids, times=times,
        event_ids=np.where(real, np.cumsum(real) - 1, -1),
    )


def _store(d_e, num_nodes=10, node_features=None):
    feats = np.arange(8.0 * d_e).reshape(8, d_e)
    return EventStore(np.zeros(8), np.full(8, 9), np.arange(1.0, 9.0), feats,
                      num_nodes=num_nodes, node_features=node_features)


def _cfg(**kw):
    defaults = dict(n_neighbors=4, hidden=4, layers=1, heads=1, dropout=0.0,
                    d_b=2, d_s=1, d_tr=1, ste_window=1, mte=MteConfig(d_t=3))
    defaults.update(kw)
    return ModelConfig(**defaults)


def _random_batch(rng, p, n, d, t, counts=True, ste=True):
    """A PairBatch with arbitrary encoder outputs, for checking assembly alone."""
    rows = 2 * p
    return PairBatch(
        h=rng.normal(size=(rows, n, d)),
        tmix=rng.normal(size=(rows, n, t)) if t else None,
        counts=rng.integers(0, 4, size=(rows, n, 2)).astype(float) if counts else None,
        season=rng.normal(size=(rows, n, 1)) if ste else None,
        trend=rng.normal(size=(rows, n, 1)) if ste else None,
        mask=np.ones((rows, n), dtype=bool),
        token_ids=np.arange(rows * n).reshape(rows, n),
        num_pairs=p,
    )


def _tokens(cfg, batch, d):
    params = ModelParameters(cfg, 0, d, seed=0)
    return _assemble_tokens(params, cfg, batch)


def _rows(block):
    """An all-valid (2P, n, d) block as token rows (2P * n, d)."""
    return block.reshape(-1, block.shape[-1])


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
@pytest.mark.parametrize("time_mode", ["mix", "fine", "none"])
@pytest.mark.parametrize("use_bie", [True, False])
@pytest.mark.parametrize("use_ste", [True, False])
@pytest.mark.parametrize("combine", ["sum", "concat"])
def test_block_table_is_the_token_layout(layout, time_mode, use_bie, use_ste, combine):
    # ModelConfig.token_blocks sizes input.w, decides which encoders run and
    # places every block's columns in the assembled tokens
    cfg = _cfg(layout=layout, time_mode=time_mode, use_bie=use_bie, use_ste=use_ste,
               d_b=2, d_s=2, d_tr=3, mte=MteConfig(d_t=3, combine=combine))
    pairs = [(_seq([PAD_ID, 5, 6, 7]), _seq([1, 2, PAD_ID, 3], anchor=9)),
             (_seq([4, 5, 6, 7], anchor=1), _seq([PAD_ID, PAD_ID, 8, 9], anchor=8))]
    batch = featurize_pairs(pairs, NO_INDEX, _store(2), cfg)
    params = ModelParameters(cfg, 0, 2, seed=1)
    tokens, _ = _assemble_tokens(params, cfg, batch)
    blocks = cfg.token_blocks(2)

    names = ["h"] + {"none": [], "fine": ["tfine"], "mix": ["tmix" if layout == "il" else "tfine"]}[time_mode]
    if layout == "il":
        names += ["bie"] * use_bie + ["season", "trend"] * use_ste
    assert [name for name, _ in blocks] == names
    assert sum(width for _, width in blocks) == len(params.values["input.w"]) == tokens.shape[1]
    assert (batch.tmix is not None) == bool({"tfine", "tmix"} & set(names))
    assert (batch.counts is not None) == ("bie" in names)
    assert (batch.season is not None) == (batch.trend is not None) == ("season" in names)

    def rows(a):
        """A (2P, n, d) block as the cast token rows of its valid slots."""
        return to_sequences(a, cfg)[to_sequences(batch.mask, cfg)].astype(np.float32)

    v = params.values
    source = {
        "h": lambda: rows(batch.h),
        "tfine": lambda: rows(batch.tmix),
        "tmix": lambda: rows(batch.tmix),
        "bie": lambda: nn.ffn_forward(rows(batch.counts), v["bie.w1"], v["bie.b1"], v["bie.w2"], v["bie.b2"])[0],
        "season": lambda: rows(batch.season) @ v["ste.ws"] + v["ste.bs"],
        "trend": lambda: rows(batch.trend) @ v["ste.wt"] + v["ste.bt"],
    }
    col = 0
    for name, width in blocks:
        np.testing.assert_array_equal(tokens[:, col : col + width], source[name](), err_msg=name)
        col += width


class TestInteractionTokens:
    def test_reference_width(self):
        # no node features, 4 edge features, then 100/50/100 context columns
        params, cfg, batch, _ = gradcheck_fixture()
        tokens, _ = _assemble_tokens(params, cfg, batch)
        assert tokens.shape[-1] == 254
        assert cfg.token_width(0, 4) == 254

    def test_zero_components_zero_tokens(self):
        # zero encoder outputs through zero-bias projections give zero tokens
        cfg = _cfg()
        rng = np.random.default_rng(0)
        batch = _random_batch(rng, p=1, n=2, d=0, t=3)
        for block in (batch.tmix, batch.counts, batch.season, batch.trend):
            block[...] = 0.0
        tokens, _ = _tokens(cfg, batch, d=0)
        np.testing.assert_array_equal(tokens, np.zeros((4, 7)))  # one row per valid slot
        assert cfg.token_width(0, 0) == 7

    def test_slices_recover_components(self):
        cfg = _cfg(mte=MteConfig(d_t=6), d_b=2, d_s=2, d_tr=2)
        batch = _random_batch(np.random.default_rng(0), p=2, n=4, d=3, t=6)
        params = ModelParameters(cfg, 0, 3, seed=1)
        v = params.values
        t, _ = _assemble_tokens(params, cfg, batch)
        # the float64 encoder outputs are cast once to the compute dtype
        cast = lambda a: _rows(a).astype(np.float32)
        assert t.dtype == np.float32
        np.testing.assert_array_equal(t[:, :3], cast(batch.h))
        np.testing.assert_array_equal(t[:, 3:9], cast(batch.tmix))
        bie, _ = nn.ffn_forward(cast(batch.counts), v["bie.w1"], v["bie.b1"], v["bie.w2"], v["bie.b2"])
        np.testing.assert_array_equal(t[:, 9:11], bie)
        np.testing.assert_array_equal(t[:, 11:13], cast(batch.season) @ v["ste.ws"] + v["ste.bs"])
        np.testing.assert_array_equal(t[:, 13:], cast(batch.trend) @ v["ste.wt"] + v["ste.bt"])

    def test_row_mismatch_rejected(self):
        cfg = _cfg()
        batch = _random_batch(np.random.default_rng(0), p=1, n=2, d=4, t=3)
        batch.tmix = np.zeros((2, 3, 3))  # three rows against windows of two
        with pytest.raises(ValueError):
            _tokens(cfg, batch, d=4)

    def test_mask_counts_real_slots(self):
        cfg = _cfg()
        seq = _seq([PAD_ID, PAD_ID, 6, 7])
        batch = featurize_pairs([(seq, _seq([5, 6, 7, 8], anchor=9))], NO_INDEX, _store(4), cfg)
        assert batch.mask[0].sum() == 2
        np.testing.assert_array_equal(batch.mask[0], [False, False, True, True])
        tokens, _ = _tokens(cfg, batch, d=4)
        assert tokens.shape[0] == batch.mask.sum() == 6


class TestSingleNodeTokens:
    def test_shape(self):
        cfg = _cfg(layout="sl", mte=MteConfig(d_t=100))
        seq = _seq([5, 6, 7, 8])
        batch = featurize_pairs([(seq, seq)], NO_INDEX, _store(4), cfg)
        tokens, _ = _tokens(cfg, batch, d=4)
        assert tokens.shape == (8, 104)
        assert batch.counts is None and batch.season is None

    def test_zero_features_zero_offset(self):
        # PAD slots encode as a zero feature block plus the cosine of zero
        # offsets, [0...0, 1...1], and get no token row
        cfg = _cfg(layout="sl", mte=MteConfig(d_t=5))
        seq = _seq([PAD_ID, PAD_ID])
        batch = featurize_pairs([(seq, seq)], NO_INDEX, _store(3), cfg)
        tokens, _ = _tokens(cfg, batch, d=3)
        row = np.hstack([np.zeros((2, 3)), np.ones((2, 5))])
        np.testing.assert_array_equal(np.concatenate([batch.h, batch.tmix], axis=-1), np.stack([row, row]))
        assert tokens.shape == (0, 8)

    def test_matches_manual_concat(self):
        cfg = _cfg(layout="sl", mte=MteConfig(d_t=4))
        batch = _random_batch(np.random.default_rng(1), p=1, n=3, d=2, t=4, counts=False, ste=False)
        tokens, _ = _tokens(cfg, batch, d=2)
        expected = _rows(np.concatenate([batch.h, batch.tmix], axis=-1)).astype(np.float32)
        np.testing.assert_array_equal(tokens, expected)


class TestMixedTokens:
    def _forward(self, pairs):
        cfg = _cfg(layout="ml")
        batch = featurize_pairs(pairs, NO_INDEX, _store(2), cfg)
        params = ModelParameters(cfg, 0, 2, seed=0)
        _, cache = forward_batch(params, cfg, batch)
        # the projection's cached input: the valid slots of the stacked
        # (P, 2n) sequences as (R, width) token rows; and the attention's mask
        return batch, cache["tokens"], cache["layers"][0]["msa"]["mask"]

    @staticmethod
    def _window(batch, i):
        """The expected token rows of window i: its valid slots, cast."""
        return np.concatenate([batch.h[i], batch.tmix[i]], axis=-1)[batch.mask[i]].astype(np.float32)

    def test_block_order(self):
        # pair-major: pair 0's source and target rows, then pair 1's
        pairs = [(_seq([5, 6, 7, 8]), _seq([1, 2, 3, PAD_ID], anchor=9)),
                 (_seq([PAD_ID, 4, 5, 6], anchor=1), _seq([7, 8, 9, 5], anchor=8))]
        batch, rows, mask = self._forward(pairs)
        assert rows.shape[0] == 4 + 3 + 3 + 4
        np.testing.assert_array_equal(rows[:4], self._window(batch, 0))
        np.testing.assert_array_equal(rows[4:7], self._window(batch, 2))
        np.testing.assert_array_equal(rows[7:10], self._window(batch, 1))
        np.testing.assert_array_equal(rows[10:], self._window(batch, 3))
        # the attention's compact grid: each pair's 7 valid slots right-aligned,
        # the PAD slots of both stacked windows gone
        np.testing.assert_array_equal(mask, np.ones((2, 7), bool))

    def test_identical_halves(self):
        seq = _seq([5, 6, 7, 8])
        _, rows, _ = self._forward([(seq, seq)])
        np.testing.assert_array_equal(rows[:4], rows[4:])

    @pytest.mark.parametrize("layout, seq_shape", [("ml", (3, 8, 2)), ("il", (6, 4, 2))])
    def test_window_rows_invert_sequences(self, layout, seq_shape):
        rows = np.arange(6 * 4 * 2).reshape(6, 4, 2)
        seqs = to_sequences(rows, _cfg(layout=layout))
        assert seqs.shape == seq_shape
        np.testing.assert_array_equal(to_window_rows(seqs, _cfg(layout=layout)), rows)

    def test_width_mismatch_rejected(self):
        # a time block narrower than the config's d_t fails the width check
        cfg = _cfg(layout="ml", mte=MteConfig(d_t=3))
        batch = _random_batch(np.random.default_rng(4), p=1, n=4, d=2, t=2, counts=False, ste=False)
        with pytest.raises(CheckFailure, match="token width"):
            _tokens(cfg, batch, d=2)


class TestLayoutAgreement:
    def test_raw_feature_block_is_layout_invariant(self):
        pairs = [(_seq([PAD_ID, 5, 6, 7]), _seq([1, 2, PAD_ID, 3], anchor=9))]
        store = _store(3)
        sl_cfg, il_cfg = _cfg(layout="sl"), _cfg(layout="il")
        sl = featurize_pairs(pairs, NO_INDEX, store, sl_cfg)
        il = featurize_pairs(pairs, NO_INDEX, store, il_cfg)
        np.testing.assert_array_equal(sl.h, il.h)
        sl_tokens, _ = _tokens(sl_cfg, sl, d=3)
        il_tokens, _ = _tokens(il_cfg, il, d=3)
        np.testing.assert_array_equal(sl_tokens[..., :3], il_tokens[..., :3])

    def test_il_width_concat_mode(self):
        cfg = _cfg(mte=MteConfig(d_t=10, combine="concat"), d_b=5, d_s=3, d_tr=3)
        assert cfg.token_width(0, 4) == 4 + 20 + 5 + 3 + 3
        seq = _seq([5, 6, 7, 8])
        batch = featurize_pairs([(seq, seq)], NO_INDEX, _store(4), cfg)
        tokens, _ = _tokens(cfg, batch, d=4)
        assert tokens.shape[-1] == 4 + 20 + 5 + 3 + 3

    def test_node_features_gathered_for_real_slots(self):
        node_feats = np.arange(20.0).reshape(10, 2)
        seq = _seq([PAD_ID, 5, 6, 7])
        batch = featurize_pairs([(seq, seq)], NO_INDEX, _store(1, node_features=node_feats), _cfg())
        block = batch.h[0]
        assert block.shape == (4, 3)
        np.testing.assert_array_equal(block[0, :2], [0.0, 0.0])
        np.testing.assert_array_equal(block[1, :2], node_feats[5])
        np.testing.assert_array_equal(block[3, :2], node_feats[7])
        np.testing.assert_array_equal(block[:, 2], [0.0, 0.0, 1.0, 2.0])
