"""Dense attention numerics with hand-derived backward passes.

Every operation comes as a ``*_forward`` returning ``(output, cache)`` and a
matching ``*_backward`` consuming the upstream gradient plus that cache.
Inputs may carry arbitrary leading batch axes unless noted. Key masking
uses the window validity mask: PAD positions never receive attention, and
rows with no valid key at all produce zero weight rows (so fully padded
windows contribute zeros rather than NaNs). Multi-head attention keeps the
heads as a leading array axis: every head runs in the same array operations,
and its cache holds one (J, ...) array per intermediate.

Dtype policy: every kernel computes in the dtype of its input ``x`` and its
weights, and its outputs, caches and gradients keep that dtype. The model
runs them in its parameters' compute dtype (float32, or float64 for gradient
checks). Dropout masks are drawn as float64 uniforms, so a seeded
generator drops the same units in either dtype, and applied in ``x.dtype``.
:func:`sigmoid` and :func:`bce_loss` compute in float64 whatever their input.

Every affine map (the input projection, the attention output projection,
the FFN and its two-layer uses as the count lift and the link head, the
season and trend embeddings) goes through :func:`linear_forward` and
:func:`linear_backward`; the two-layer maps are :func:`ffn_forward` at
dropout rate 0, where dropout is the identity and draws no random numbers.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

__all__ = [
    "sigmoid",
    "masked_softmax",
    "masked_softmax_backward",
    "dropout_forward",
    "dropout_backward",
    "linear_forward",
    "linear_backward",
    "layer_norm_forward",
    "layer_norm_backward",
    "multi_head_attention",
    "multi_head_attention_backward",
    "ffn_forward",
    "ffn_backward",
    "transformer_layer_forward",
    "transformer_layer_backward",
    "readout_forward",
    "readout_backward",
    "bce_loss",
]

LN_EPS = 1e-5


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-normalize scores over valid key columns.

    ``scores`` has shape (..., L, L) and ``mask`` (..., L) flags valid keys.
    Masked columns get zero weight; rows with at least one valid key sum to
    one; rows with none are all-zero.
    """
    valid = np.broadcast_to(np.asarray(mask, dtype=bool)[..., None, :], scores.shape)
    neg = np.where(valid, scores, -np.inf)
    peak = np.max(neg, axis=-1, keepdims=True)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    expd = np.where(valid, np.exp(neg - safe_peak), 0.0)
    total = expd.sum(axis=-1, keepdims=True)
    return np.divide(expd, total, out=np.zeros_like(expd), where=total > 0)


def masked_softmax_backward(grad: np.ndarray, attn: np.ndarray) -> np.ndarray:
    inner = (grad * attn).sum(axis=-1, keepdims=True)
    return attn * (grad - inner)


def dropout_forward(x, rate, rng, training):
    """Inverted dropout; identity (cache None) when inactive."""
    if not training or rate == 0.0:
        return x, None
    keep = 1.0 - rate
    scale = (rng.random(x.shape) >= rate).astype(x.dtype) / keep
    return x * scale, scale


def dropout_backward(grad, scale):
    return grad if scale is None else grad * scale


def linear_forward(x, w, b):
    """``x @ w + b`` over any leading axes; the cache is ``x``."""
    return x @ w + b, x


def linear_backward(grad, x, w):
    """Gradients (dx, dw, db) of :func:`linear_forward`, leading axes summed."""
    flat_g = grad.reshape(-1, grad.shape[-1])
    dw = x.reshape(-1, x.shape[-1]).T @ flat_g
    return grad @ w.T, dw, flat_g.sum(axis=0)


def layer_norm_forward(x, gain, bias, eps=LN_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv, gain)


def layer_norm_backward(grad, cache):
    xhat, inv, gain = cache
    d = xhat.shape[-1]
    flat_axes = tuple(range(grad.ndim - 1))
    dgain = (grad * xhat).sum(axis=flat_axes)
    dbias = grad.sum(axis=flat_axes)
    gx = grad * gain
    dx = inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


def _head_view(w, x):
    """(J, h, d) head weights viewed (J, 1, ..., 1, h, d) to broadcast against x."""
    return w.reshape(w.shape[:1] + (1,) * (x.ndim - 2) + w.shape[1:])


def multi_head_attention(
    x, mask, wq, wk, wv, wo, bo, *, dropout_rate=0.0, rng=None, training=False
):
    """Masked multi-head self-attention over one or a batch of windows.

    ``x`` is (..., L, h) and ``wq``/``wk``/``wv`` are (J, h, d_k). Per head j
    the context is ``softmax(x Wq_j (x Wk_j)^T / sqrt(d_k)) x Wv_j`` with PAD
    keys masked out; all heads run as one array with the head axis leading,
    and their contexts are concatenated along the feature axis and mixed by
    ``wo``. Returns (output, cache). Cached head arrays are head-first:
    ``q``/``k``/``v`` (J, ..., L, d_k) and ``attn`` (the softmax weights,
    before dropout) and ``dropped`` (J, ..., L, L).
    """
    scale = 1.0 / sqrt(wq.shape[-1])
    q = x @ _head_view(wq, x)
    k = x @ _head_view(wk, x)
    v = x @ _head_view(wv, x)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    attn = masked_softmax(scores, mask)
    dropped, drop_scale = dropout_forward(attn, dropout_rate, rng, training)
    context = dropped @ v
    concat = np.moveaxis(context, 0, -2).reshape(x.shape[:-1] + (-1,))
    y, _ = linear_forward(concat, wo, bo)
    cache = {
        "x": x, "mask": mask, "q": q, "k": k, "v": v, "attn": attn,
        "drop_scale": drop_scale, "dropped": dropped, "concat": concat,
        "weights": (wq, wk, wv, wo), "scale": scale,
    }
    return y, cache


def multi_head_attention_backward(grad, cache):
    x, q, k, v, attn, dropped = (cache[key] for key in ("x", "q", "k", "v", "attn", "dropped"))
    wq, wk, wv, wo = cache["weights"]
    heads, d_head = wq.shape[0], wq.shape[-1]
    heads_t = lambda w: np.swapaxes(_head_view(w, x), -1, -2)
    flat_x = x.reshape(-1, x.shape[-1])

    dconcat, dwo, dbo = linear_backward(grad, cache["concat"], wo)
    dout = np.moveaxis(dconcat.reshape(x.shape[:-1] + (heads, d_head)), -2, 0)
    ddropped = dout @ np.swapaxes(v, -1, -2)
    dv = np.swapaxes(dropped, -1, -2) @ dout
    dattn = dropout_backward(ddropped, cache["drop_scale"])
    dscores = masked_softmax_backward(dattn, attn) * cache["scale"]
    dq = dscores @ k
    dk_ = np.swapaxes(dscores, -1, -2) @ q
    head_rows = lambda arr: arr.reshape(heads, -1, d_head)
    dwq = flat_x.T @ head_rows(dq)
    dwk = flat_x.T @ head_rows(dk_)
    dwv = flat_x.T @ head_rows(dv)
    dx_heads = dq @ heads_t(wq)
    dx_heads += dk_ @ heads_t(wk)
    dx_heads += dv @ heads_t(wv)
    return dx_heads.sum(axis=0), {"wq": dwq, "wk": dwk, "wv": dwv, "wo": dwo, "bo": dbo}


def ffn_forward(x, w1, b1, w2, b2, *, dropout_rate=0.0, rng=None, training=False):
    """Affine -> rectifier -> dropout -> affine; at rate 0 a plain two-layer MLP."""
    h, _ = linear_forward(x, w1, b1)
    dropped, drop_scale = dropout_forward(np.maximum(h, 0.0), dropout_rate, rng, training)
    y, _ = linear_forward(dropped, w2, b2)
    return y, (x, h, dropped, drop_scale, w1, w2)


def ffn_backward(grad, cache):
    x, h, dropped, drop_scale, w1, w2 = cache
    ddropped, dw2, db2 = linear_backward(grad, dropped, w2)
    dh = dropout_backward(ddropped, drop_scale) * (h > 0)
    dx, dw1, db1 = linear_backward(dh, x, w1)
    return dx, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def transformer_layer_forward(x, mask, layer, *, dropout_rate=0.0, rng=None, training=False):
    """One pre-output block: LN(x + MSA(x)) then LN(.. + FFN(..)).

    ``layer`` is a mapping with keys wq, wk, wv, wo, bo, ln1_g, ln1_b,
    ffn_w1, ffn_b1, ffn_w2, ffn_b2, ln2_g, ln2_b.
    """
    msa, msa_cache = multi_head_attention(
        x, mask, layer["wq"], layer["wk"], layer["wv"], layer["wo"], layer["bo"],
        dropout_rate=dropout_rate, rng=rng, training=training,
    )
    x1, ln1_cache = layer_norm_forward(x + msa, layer["ln1_g"], layer["ln1_b"])
    f, ffn_cache = ffn_forward(
        x1, layer["ffn_w1"], layer["ffn_b1"], layer["ffn_w2"], layer["ffn_b2"],
        dropout_rate=dropout_rate, rng=rng, training=training,
    )
    y, ln2_cache = layer_norm_forward(x1 + f, layer["ln2_g"], layer["ln2_b"])
    return y, {"msa": msa_cache, "ln1": ln1_cache, "ffn": ffn_cache, "ln2": ln2_cache}


def transformer_layer_backward(grad, cache):
    dr2, dln2_g, dln2_b = layer_norm_backward(grad, cache["ln2"])
    dffn_x, ffn_grads = ffn_backward(dr2, cache["ffn"])
    dx1 = dr2 + dffn_x
    dr1, dln1_g, dln1_b = layer_norm_backward(dx1, cache["ln1"])
    dmsa_x, msa_grads = multi_head_attention_backward(dr1, cache["msa"])
    dx = dr1 + dmsa_x
    grads = {**msa_grads, "ln1_g": dln1_g, "ln1_b": dln1_b, "ln2_g": dln2_g, "ln2_b": dln2_b}
    grads.update({"ffn_" + k: g for k, g in ffn_grads.items()})
    return dx, grads


def readout_forward(x, mask):
    """Mean over valid rows: (..., L, h) + (..., L) -> (..., h); all-PAD -> 0."""
    m = np.asarray(mask, dtype=x.dtype)[..., None]
    counts = m.sum(axis=-2)
    sums = (x * m).sum(axis=-2)
    y = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return y, (m, counts)


def readout_backward(grad, cache):
    m, counts = cache
    inv = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
    return (grad * inv)[..., None, :] * m


def bce_loss(p, y, eps=1e-12):
    """Per-sample binary cross-entropy with probability clamping.

    The gradient with respect to the pre-sigmoid logit is simply ``p - y``;
    callers apply their own batch reduction scaling.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
