"""Attention numerics against naive loop-based reference implementations."""

import math

import numpy as np
import pytest

from tidegraph.attention import (
    bce_loss,
    ffn_forward,
    layer_norm_forward,
    linear_forward,
    masked_softmax,
    multi_head_attention,
    multi_head_attention_backward,
    readout_forward,
    sigmoid,
    transformer_layer_forward,
)
from tidegraph.optim import AdamState, FlatTensors, adam_step


class TestMaskedSoftmax:
    def test_uniform_on_equal_scores(self):
        scores = np.zeros((4, 4))
        out = masked_softmax(scores, np.ones(4, dtype=bool))
        np.testing.assert_allclose(out, np.full((4, 4), 0.25), atol=1e-15)

    def test_single_valid_column_forced(self):
        scores = np.random.default_rng(0).normal(size=(3, 3))
        mask = np.array([False, True, False])
        out = masked_softmax(scores, mask)
        np.testing.assert_array_equal(out[:, 1], np.ones(3))
        np.testing.assert_array_equal(out[:, [0, 2]], np.zeros((3, 2)))

    def test_matches_exp_normalize_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            scores = rng.normal(size=(4, 4)) * 5
            mask = rng.random(4) < 0.7
            out = masked_softmax(scores, mask)
            if mask.any():
                rows = out.sum(axis=-1)
                np.testing.assert_allclose(rows, 1.0, atol=1e-12)
                for q in range(4):
                    exps = [math.exp(scores[q, k]) if mask[k] else 0.0 for k in range(4)]
                    total = sum(exps)
                    np.testing.assert_allclose(out[q], [e / total for e in exps], atol=1e-12)
            else:
                np.testing.assert_array_equal(out, np.zeros((4, 4)))

    def test_all_masked_rows_zero(self):
        out = masked_softmax(np.ones((2, 2)), np.zeros(2, dtype=bool))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_masked_copy_and_max(self, dtype):
        # the reference form: a masked copy of -inf, then np.max over the keys;
        # some windows have no valid key, so their rows peak at -inf
        rng = np.random.default_rng(11)
        scores = (rng.normal(size=(2, 6, 7, 7)) * 4).astype(dtype)
        scores[0, 0, 0] = 0.0
        scores[0, 0, 1] = -0.0
        mask = rng.random((6, 7)) < 0.5
        mask[1] = False
        mask[2] = True
        ref = scores.copy()
        np.copyto(ref, -np.inf, where=~mask[..., None, :])
        peak = ref.max(axis=-1, keepdims=True)
        assert np.isneginf(peak).any()
        peak[~np.isfinite(peak)] = 0.0
        ref = np.exp(ref - peak)
        total = ref.sum(axis=-1, keepdims=True)
        ref = np.divide(ref, total, out=ref, where=total > 0)
        got = masked_softmax(scores, mask)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), ref.view(np.uint8))
        inplace = scores.copy()
        np.testing.assert_array_equal(masked_softmax(inplace, mask, out=inplace), got)


def _naive_mha(x, mask, wq, wk, wv, wo, bo):
    """Per-element reference: explicit loops over heads, queries, keys."""
    heads, L, _ = wq.shape[0], x.shape[0], x.shape[1]
    dk = wq.shape[2]
    concat = np.zeros((L, heads * dk))
    for j in range(heads):
        q = x @ wq[j]
        k = x @ wk[j]
        v = x @ wv[j]
        for a in range(L):
            weights = np.zeros(L)
            denom = 0.0
            for b in range(L):
                if mask[b]:
                    weights[b] = math.exp((q[a] @ k[b]) / math.sqrt(dk))
                    denom += weights[b]
            if denom > 0:
                weights /= denom
            out = np.zeros(dk)
            for b in range(L):
                out += weights[b] * v[b]
            concat[a, j * dk : (j + 1) * dk] = out
    return concat @ wo + bo


class TestMultiHeadAttention:
    # the attention returns one row per valid query slot, in C order; a PAD
    # query slot has no output, so each test compares the valid rows

    def test_zero_scores_average_valid_tokens(self):
        rng = np.random.default_rng(2)
        L, h = 5, 4
        x = rng.normal(size=(L, h))
        mask = np.array([False, True, True, False, True])
        wq = np.zeros((1, h, h))
        wk = np.zeros((1, h, h))
        wv = np.eye(h)[None]
        wo = np.eye(h)
        out, _ = multi_head_attention(x, mask, wq, wk, wv, wo, np.zeros(h))
        expected = x[mask].mean(axis=0)
        assert out.shape == (mask.sum(), h)
        for row in out:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_single_valid_token_dominates(self):
        rng = np.random.default_rng(3)
        L, h = 4, 6
        x = rng.normal(size=(L, h))
        mask = np.array([False, False, True, False])
        wq, wk = rng.normal(size=(2, 2, h, 3))
        wv = rng.normal(size=(2, h, 3))
        wo = rng.normal(size=(h, h))
        out, cache = multi_head_attention(x, mask, wq, wk, wv, wo, np.zeros(h))
        attn = cache["attn"]
        np.testing.assert_allclose(attn[:, :, 2], 1.0, atol=1e-12)
        ref = np.concatenate([x[2] @ wv[j] for j in range(2)], axis=-1)[None] @ wo
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            L, h, heads = 4, 8, 2
            x = rng.normal(size=(L, h))
            mask = rng.random(L) < 0.8
            wq = rng.normal(size=(heads, h, h // heads))
            wk = rng.normal(size=(heads, h, h // heads))
            wv = rng.normal(size=(heads, h, h // heads))
            wo = rng.normal(size=(h, h))
            bo = rng.normal(size=h)
            got, _ = multi_head_attention(x, mask, wq, wk, wv, wo, bo)
            want = _naive_mha(x, mask, wq, wk, wv, wo, bo)
            np.testing.assert_allclose(got, want[mask], atol=1e-10)

    def test_batched_matches_per_sequence(self):
        rng = np.random.default_rng(5)
        B, L, h = 3, 4, 6
        x = rng.normal(size=(B, L, h))
        mask = rng.random((B, L)) < 0.7
        wq, wk, wv = (rng.normal(size=(2, h, 3)) for _ in range(3))
        wo, bo = rng.normal(size=(h, h)), rng.normal(size=h)
        batched, _ = multi_head_attention(x, mask, wq, wk, wv, wo, bo)
        # the batch's rows are the sequences' rows, sequence by sequence
        starts = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        for b in range(B):
            single, _ = multi_head_attention(x[b], mask[b], wq, wk, wv, wo, bo)
            np.testing.assert_allclose(batched[starts[b] : starts[b + 1]], single, atol=1e-12)


def _mha_inputs(rng, full=False, dtype=np.float64):
    """A zero-PAD (S, L, h) grid with PAD slots, an all-PAD window and a full
    one (or every slot valid), its mask, and the attention's weights."""
    S, L, h, heads, d_head = 4, 5, 6, 2, 3
    mask = np.ones((S, L), bool) if full else rng.random((S, L)) < 0.6
    if not full:
        mask[0], mask[1] = False, True
        mask[2, [0, 3]] = False, True
    x = np.zeros((S, L, h))
    x[mask] = rng.normal(size=(mask.sum(), h))
    weights = [rng.normal(size=(heads, h, d_head)) * 0.5 for _ in range(3)]
    weights += [rng.normal(size=(heads * d_head, h)) * 0.5, rng.normal(size=h)]
    return x.astype(dtype), mask, [w.astype(dtype) for w in weights]


def _mha_train(x, mask, weights, grad):
    """Forward with dropout (a fixed generator, so a fixed dropout mask),
    then backward; returns the output rows, input-row and weight gradients."""
    y, cache = multi_head_attention(
        x, mask, *weights, dropout_rate=0.3, rng=np.random.default_rng(12), training=True
    )
    y = y.copy()
    dx, grads = multi_head_attention_backward(grad, cache)
    return y, dx.copy(), {name: g.copy() for name, g in grads.items()}


class TestMultiHeadAttentionRows:
    def test_pad_garbage_changes_nothing(self):
        # finite garbage in the PAD slots of the input grid reaches only PAD
        # query rows and masked keys, whose weights and gradients are exact
        # zeros, so outputs and gradients are bitwise equal
        rng = np.random.default_rng(13)
        x, mask, weights = _mha_inputs(rng, dtype=np.float32)
        grad = rng.normal(size=(mask.sum(), x.shape[-1])).astype(np.float32)
        dirty = x.copy()
        dirty[~mask] = rng.uniform(-1e3, 1e3, size=((~mask).sum(), x.shape[-1]))
        clean_run, dirty_run = _mha_train(x, mask, weights, grad), _mha_train(dirty, mask, weights, grad)
        for a, b in zip(clean_run[:2], dirty_run[:2]):
            np.testing.assert_array_equal(a, b)
        for name, g in clean_run[2].items():
            np.testing.assert_array_equal(dirty_run[2][name], g, err_msg=name)

    @pytest.mark.parametrize("full", [False, True])
    def test_backward_matches_central_differences(self, full):
        # float64; the loss is <G, y> over the valid output rows, and the
        # input gradient is that of the valid slots of the grid
        rng = np.random.default_rng(14)
        x, mask, weights = _mha_inputs(rng, full=full)
        grad = rng.normal(size=(mask.sum(), x.shape[-1]))
        _, dx, grads = _mha_train(x, mask, weights, grad)
        rows = x[mask]

        def loss():
            grid = np.zeros_like(x)
            grid[mask] = rows
            return float((_mha_train(grid, mask, weights, grad)[0] * grad).sum())

        eps = 1e-6
        params = [("x", rows, dx)] + [(name, w, grads[name]) for name, w in zip(("wq", "wk", "wv", "wo", "bo"), weights)]
        for name, array, analytic in params:
            assert analytic.shape == array.shape, name
            numeric = np.zeros_like(array)
            for i in np.ndindex(array.shape):
                keep = array[i]
                array[i] = keep + eps
                up = loss()
                array[i] = keep - eps
                down = loss()
                array[i] = keep
                numeric[i] = (up - down) / (2 * eps)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8, err_msg=name)


def _layer_params(rng, h, zero=False):
    make = (lambda *s: np.zeros(s)) if zero else (lambda *s: rng.normal(size=s) * 0.3)
    return {
        "wq": make(2, h, h // 2), "wk": make(2, h, h // 2), "wv": make(2, h, h // 2),
        "wo": make(h, h), "bo": np.zeros(h),
        "ln1_g": np.ones(h), "ln1_b": np.zeros(h),
        "ffn_w1": make(h, 4 * h), "ffn_b1": np.zeros(4 * h),
        "ffn_w2": make(4 * h, h), "ffn_b2": np.zeros(h),
        "ln2_g": np.ones(h), "ln2_b": np.zeros(h),
    }


class TestTransformerLayer:
    def test_zero_branches_reduce_to_double_norm(self):
        rng = np.random.default_rng(6)
        h = 8
        x = rng.normal(size=(5, h))
        mask = np.ones(5, dtype=bool)
        out, _ = transformer_layer_forward(x, mask, _layer_params(rng, h, zero=True))
        inner, _ = layer_norm_forward(x, np.ones(h), np.zeros(h))
        want, _ = layer_norm_forward(inner, np.ones(h), np.zeros(h))
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_shape_preserved(self):
        rng = np.random.default_rng(7)
        for L, h in [(1, 4), (6, 8), (9, 12)]:
            x = rng.normal(size=(L, h))
            out, _ = transformer_layer_forward(x, np.ones(L, bool), _layer_params(rng, h))
            assert out.shape == (L, h)

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(8)
        h, L = 6, 4
        x = rng.normal(size=(L, h))
        mask = np.array([True, True, False, True])
        params = _layer_params(rng, h)
        # the layer takes the valid rows only; the PAD row x[2] is a masked key
        got, _ = transformer_layer_forward(x[mask], mask, params)

        msa = _naive_mha(x, mask, params["wq"], params["wk"], params["wv"], params["wo"], params["bo"])

        def ln(v):
            mu = v.mean(-1, keepdims=True)
            sd = np.sqrt(((v - mu) ** 2).mean(-1, keepdims=True) + 1e-5)
            return (v - mu) / sd

        x1 = ln(x + msa)
        f = np.maximum(x1 @ params["ffn_w1"] + params["ffn_b1"], 0.0) @ params["ffn_w2"] + params["ffn_b2"]
        want = ln(x1 + f)
        np.testing.assert_allclose(got, want[mask], atol=1e-10)


class TestFfn:
    def test_rate_zero_training_draws_nothing(self):
        # the count lift and the link head run the FFN at rate 0 during
        # training; they must not advance the dropout generator
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4, 5))
        w1, b1, w2, b2 = rng.normal(size=(5, 7)), rng.normal(size=7), rng.normal(size=(7, 2)), rng.normal(size=2)
        g = np.random.default_rng(10)
        before = g.bit_generator.state
        out, cache = ffn_forward(x, w1, b1, w2, b2, training=True, rng=g)
        assert g.bit_generator.state == before
        assert cache[3] is None
        np.testing.assert_array_equal(out, ffn_forward(x, w1, b1, w2, b2)[0])


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_column_input_is_bitwise_the_gemm(self, dtype):
        # the season and trend embeddings: (R, 1) @ (1, d) as a broadcast product
        for trial in range(50):
            rng = np.random.default_rng(trial)
            x = rng.normal(size=(int(rng.integers(0, 300)), 1)).astype(dtype)
            w, b = rng.normal(size=(1, 50)).astype(dtype), rng.normal(size=50).astype(dtype)
            want = np.matmul(x, w) + b
            got, cache = linear_forward(x, w, b)
            assert got.dtype == dtype and cache is x
            np.testing.assert_array_equal(got, want)
            out = np.full((len(x), 50), np.nan, dtype=dtype)
            got, _ = linear_forward(x, w, b, out=out)
            assert got is out
            np.testing.assert_array_equal(out, want)
        x3 = rng.normal(size=(3, 4, 1)).astype(dtype)  # leading axes
        np.testing.assert_array_equal(linear_forward(x3, w, b)[0], np.matmul(x3, w) + b)


class TestReadout:
    def test_single_valid_row(self):
        x = np.arange(12.0).reshape(3, 4)
        mask = np.array([False, True, False])
        out, _ = readout_forward(x[mask], mask)
        np.testing.assert_array_equal(out, x[1])

    def test_all_pad_zero_vector(self):
        mask = np.zeros(3, bool)
        out, _ = readout_forward(np.ones((3, 4))[mask], mask)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_full_grid_sums_rows_in_place(self):
        # with every slot valid the rows are summed as a grid view; a PAD
        # window next to them sends the same rows through the scattered grid
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(12, 5)).astype(np.float32)
        full, _ = readout_forward(rows, np.ones((3, 4), bool))
        padded, _ = readout_forward(rows, np.vstack([np.ones((3, 4), bool), np.zeros((1, 4), bool)]))
        np.testing.assert_array_equal(full, padded[:3])
        np.testing.assert_array_equal(padded[3], np.zeros(5))

    def test_two_rows_mean(self):
        x = np.stack([np.full(4, 2.0), np.full(4, 6.0), np.full(4, 100.0)])
        mask = np.array([True, True, False])
        out, _ = readout_forward(x[mask], mask)
        np.testing.assert_array_equal(out, np.full(4, 4.0))


class TestBceLoss:
    def test_confident_correct_is_near_zero(self):
        assert bce_loss(np.array([1.0]), np.array([1.0]))[0] < 1e-11

    def test_half_is_log_two(self):
        for y in (0.0, 1.0):
            assert bce_loss(np.array([0.5]), np.array([y]))[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_logit_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            logit = float(rng.normal() * 3)
            y = float(rng.integers(0, 2))
            h = 1e-6
            up = bce_loss(sigmoid(np.array([logit + h])), np.array([y]))[0]
            down = bce_loss(sigmoid(np.array([logit - h])), np.array([y]))[0]
            numeric = (up - down) / (2 * h)
            analytic = sigmoid(np.array([logit]))[0] - y
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-6


def _store(w):
    """A float64 store of the one tensor ``w``."""
    return FlatTensors.pack({"w": np.asarray(w, dtype=np.float64)}, np.float64)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = _store([1.0, -2.0])
        state = AdamState.for_params(params)
        adam_step(params, _store(np.zeros(2)), state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        params = _store([0.0, 0.0])
        state = AdamState.for_params(params)
        g = np.array([0.3, -0.7])
        adam_step(params, _store(g), state, lr=0.01)
        np.testing.assert_allclose(params["w"], -0.01 * np.sign(g), rtol=1e-7)

    def test_scalar_quadratic_trajectory(self):
        # minimize 0.5*(w-3)^2 and compare with an explicitly stepped reference
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        params = _store([0.0])
        state = AdamState.for_params(params)
        w_ref, m_ref, v_ref = 0.0, 0.0, 0.0
        for t in range(1, 4):
            g = w_ref - 3.0
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            w_ref -= lr * (m_ref / (1 - b1**t)) / (math.sqrt(v_ref / (1 - b2**t)) + eps)
            adam_step(params, _store([params["w"][0] - 3.0]), state, lr=lr)
            assert params["w"][0] == pytest.approx(w_ref, abs=1e-14)

    def test_decoupled_weight_decay(self):
        params = _store([2.0])
        state = AdamState.for_params(params)
        adam_step(params, _store(np.zeros(1)), state, lr=0.5, weight_decay=0.1)
        # zero gradient: only the decay term moves the parameter
        np.testing.assert_allclose(params["w"], [2.0 * (1 - 0.5 * 0.1)])
