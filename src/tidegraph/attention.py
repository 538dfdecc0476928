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

Workspace contract: the kernels write every large array (activations,
forward caches, backward temporaries) into a :class:`Workspace` with
``out=`` and in-place ufuncs, so a run of same-sized steps allocates no
large array after its first step. Forward kernels take ``ws`` and a
``key`` naming the call site and write their caches under that key; the
caches carry the workspace to the backward kernel. A forward cache
therefore stays valid until the next forward with the same workspace and
key. Outputs that no cache keeps (the attention and FFN outputs, every
backward output) and temporaries live under keys shared by every call of
the same kernel: an output stays valid until the next call of the kernel
that made it. The in-place forms do the arithmetic of the allocating forms
in the same order, so their results are bitwise the same. With ``ws=None``
a kernel uses a fresh workspace, which allocates every array.

Packed rows: the transformer layer and the readout take the valid slots of
a (..., L) window grid as an (R, h) row matrix, R = ``mask.sum()``, in the
C order of ``mask``; PAD slots have no row. The LayerNorms, the residual
sums, the FFN and its dropout, the readout and all their gradients work on
those R rows, and so do the attention's output projection and the weight
and input gradients of its q, k and v projections. The attention's q, k
and v projections, scores, softmax, dropout and context run on a zero-PAD
grid, head-first: the layer scatters its rows into a (..., m, h) grid,
which the attention takes and its cache keeps, and the attention gathers
the context rows back before ``wo``, so it returns (R, h) rows. Its
backward pass takes (R, h) rows, scatters the context gradient onto the
grid and gathers the q, k and v gradients back to rows. A model passes the
compact grid of :func:`compact_grid`: each sequence's valid slots
right-aligned in m columns, m the most valid slots of any sequence, which
holds the rows in the same C order as the padded (..., L) mask. The
attention's dropout is :func:`dropout_forward` on the compact (J, ..., m, m)
weights, one uniform per weight, as the FFN's is on its rows; the grid
arrays' storage, the dropout scale's included, is sized for the padded grid
(see :class:`Workspace`), so a change of m reallocates nothing.
When no slot is PAD, the readout sums the rows in place, as the grid they
are.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod, sqrt

import numpy as np

__all__ = [
    "Workspace",
    "compact_grid",
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
# Dropout uniforms are drawn this many at a time into one reused buffer.
UNIFORM_CHUNK = 1 << 16
# Workspace keys shared by calls whose arrays never live at the same time.
# The wide slot holds the FFN's transient dropout scale (forward), the FFN's
# hidden gradient (backward) and the attention's (R, 3 J d_k) q, k and v
# gradient rows (backward); the row slot holds the LayerNorm temporary, the
# attention's head-first gathers and its input rows, gathered from its grid
# (backward); the grid slot, of the padded (..., L, h) size, holds the
# attention's head-first context (forward) and context gradient (backward)
# and the readout's scattered rows (forward).
_WIDE = "scratch.wide"
_ROWS = "scratch.rows"
_GRID = "scratch.grid"


class Workspace:
    """Scratch arrays reused across calls, one per key.

    :meth:`get` returns a C-contiguous array of the requested shape and
    dtype with undefined contents, valid until the next :meth:`get` of the
    same key. A request has a capacity, an element count at least its size:
    the storage behind a key is allocated on its first request and
    replaced only when a request's capacity exceeds it (or the dtype
    differs), so it grows to the largest capacity requested and never
    shrinks.

    ``row_capacity`` is the most rows a packed row matrix of the current
    step can have: the slot count of its padded grid, which in a model's
    tiled evaluation forward is the current tile's. Every 2-D request is
    such a (rows, d) matrix, whose capacity is ``row_capacity`` rows, so the
    count of valid rows, which varies from batch to batch, does not
    reallocate it. Other requests may name a capacity: the attention's
    compact grid arrays name their size on the padded grid, so the compact
    width, which also varies, does not reallocate them either. Elements past
    the requested ones are never touched, so they take no resident memory.

    ``shared_layers`` is true inside :meth:`inference`. There a model's
    forward runs over tiles of whole sequences and every transformer layer
    in the first layer's buffers, so each layer's forward cache stays valid
    only until the next layer's or tile's forward: after the pass only the
    last tile's last layer's is. A forward that no backward follows (an
    evaluation) keeps one layer's buffers for one tile resident, not one per
    layer for the whole batch.
    """

    def __init__(self):
        self._store: dict[str, np.ndarray] = {}
        self.row_capacity = 0
        self.shared_layers = False

    @contextmanager
    def inference(self):
        """A scope in which :attr:`shared_layers` is true; leaving it, by
        return or by exception, sets it back to false."""
        self.shared_layers = True
        try:
            yield
        finally:
            self.shared_layers = False

    def get(self, key: str, shape: tuple, dtype, capacity: int = 0) -> np.ndarray:
        size = prod(shape)
        if len(shape) == 2 and shape[0] <= self.row_capacity:
            capacity = max(capacity, self.row_capacity * shape[1])
        capacity = max(size, capacity)
        buf = self._store.get(key)
        if buf is None or buf.dtype != dtype or buf.size < capacity:
            buf = self._store[key] = np.empty(capacity, dtype)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._store.values())


def _workspace(ws):
    return Workspace() if ws is None else ws


def compact_grid(mask):
    """The compact attention grid of a padded (..., L) sequence mask, as
    (compact mask, cols). Its width m is the most valid slots of any
    sequence, and sequence s's c_s valid slots fill its last c_s columns in
    their order, so the valid slots have the C order of ``mask``. ``cols``
    (..., m) is each compact slot's column in the padded grid; the first
    m - c_s map to PAD columns. With no PAD slot the compact mask is
    ``mask``."""
    counts = mask.sum(axis=-1)
    m = int(counts.max(initial=0))
    cols = np.argsort(mask, axis=-1, kind="stable")[..., mask.shape[-1] - m :]
    return np.arange(m) >= m - counts[..., None], cols


def _padded_size(shape, width, square=False):
    """The element count of a (..., m, d) grid array, or of a (..., m, m)
    one when ``square``, on the padded grid of width L = ``width``."""
    return prod(shape[:-2]) * width * (width if square else shape[-1])


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_softmax(scores: np.ndarray, mask: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Row-normalize scores over valid key columns.

    ``scores`` has shape (..., L, L) and ``mask`` (..., L) flags valid keys.
    Masked columns get zero weight; rows with at least one valid key sum to
    one; rows with none are all-zero. The scores must be finite: a masked
    column is set to -inf by adding -inf to it. The result is written to
    ``out``, which may be ``scores`` itself.
    """
    if out is None:
        out = np.empty_like(scores)
    if out is not scores:
        out[...] = scores
    # + (0 or -inf): where(valid, scores, -inf) for finite scores, without a
    # masked copy; exp(-inf - peak) is then the 0 of a masked column
    out += np.where(mask, out.dtype.type(0), out.dtype.type(-np.inf))[..., None, :]
    peak = _row_peak(out)
    peak[~np.isfinite(peak)] = 0.0
    out -= peak
    np.exp(out, out=out)
    total = out.sum(axis=-1, keepdims=True)
    return np.divide(out, total, out=out, where=total > 0)


def _row_peak(scores):
    """``scores.max(axis=-1, keepdims=True)`` as a running maximum over the
    key columns: a few wide elementwise passes in place of one short
    reduction per row, with the same result (a maximum is exact)."""
    peak = scores[..., :1].copy()
    for col in range(1, scores.shape[-1]):
        np.maximum(peak, scores[..., col : col + 1], out=peak)
    return peak


def masked_softmax_backward(grad: np.ndarray, attn: np.ndarray, *, scratch: np.ndarray | None = None) -> np.ndarray:
    """``attn * (grad - sum(grad * attn))``, written over ``grad``; the
    product goes to ``scratch``, an array of ``grad``'s shape, if given."""
    inner = np.multiply(grad, attn, out=scratch).sum(axis=-1, keepdims=True)
    grad -= inner
    grad *= attn
    return grad


def dropout_forward(x, rate, rng, training, *, ws=None, key="dropout", out=None, capacity=0):
    """Inverted dropout; identity (cache None) when inactive.

    The per-unit scale, ``(u >= rate) / (1 - rate)`` for one uniform ``u``
    per element of ``x``, in C order, is the cache; it is written to the
    workspace under ``key`` (with ``capacity``, see :meth:`Workspace.get`),
    and the dropped units to ``out``, which may be ``x``. The uniforms are
    drawn :data:`UNIFORM_CHUNK` at a time into one reused float64 buffer,
    which is the same stream as one draw of ``x.shape``.
    """
    if not training or rate == 0.0:
        return x, None
    ws = _workspace(ws)
    scale = ws.get(key, x.shape, x.dtype, capacity)
    flat = scale.reshape(-1)
    chunk = ws.get("scratch.uniform", (UNIFORM_CHUNK,), np.float64)
    for a in range(0, flat.size, UNIFORM_CHUNK):
        part = flat[a : a + UNIFORM_CHUNK]
        np.greater_equal(rng.random(out=chunk[: part.size]), rate, out=part)
    scale /= 1.0 - rate
    return np.multiply(x, scale, out=out), scale


def dropout_backward(grad, scale):
    """``grad * scale``, written over ``grad``."""
    return grad if scale is None else np.multiply(grad, scale, out=grad)


def linear_forward(x, w, b, *, out=None):
    """``x @ w + b`` over any leading axes, into ``out``; the cache is ``x``.
    A one-column ``x`` (the season and trend inputs) takes a broadcast
    product, bitwise equal to the K = 1 GEMM and cheaper."""
    y = np.multiply(x, w, out=out) if x.shape[-1] == 1 else np.matmul(x, w, out=out)
    y += b
    return y, x


def linear_backward(grad, x, w, *, out=None, need_dx=True):
    """Gradients (dx, dw, db) of :func:`linear_forward`, leading axes summed;
    dx is written to ``out``, or skipped (None) when ``need_dx`` is false."""
    flat_g = grad.reshape(-1, grad.shape[-1])
    dw = x.reshape(len(flat_g), x.shape[-1]).T @ flat_g  # x may be zero-wide
    dx = np.matmul(grad, w.T, out=out) if need_dx else None
    return dx, dw, flat_g.sum(axis=0)


def layer_norm_forward(x, gain, bias, eps=LN_EPS, *, ws=None, key="ln", out=None):
    """LayerNorm over the last axis; the output goes to ``out``, which may
    be ``x``, or to the workspace under ``key``."""
    ws = _workspace(ws)
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=ws.get(f"{key}.xhat", x.shape, x.dtype))  # xc = x - mu
    var = np.multiply(xhat, xhat, out=ws.get(_ROWS, x.shape, x.dtype)).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = np.multiply(gain, xhat, out=ws.get(f"{key}.y", x.shape, x.dtype) if out is None else out)
    y += bias
    return y, (xhat, inv, gain, ws)


def layer_norm_backward(grad, cache):
    xhat, inv, gain, ws = cache
    flat_axes = tuple(range(grad.ndim - 1))
    tmp = ws.get(_ROWS, grad.shape, grad.dtype)
    dgain = np.multiply(grad, xhat, out=tmp).sum(axis=flat_axes)
    dbias = grad.sum(axis=flat_axes)
    gx = np.multiply(grad, gain, out=ws.get("grad.ln.dx", grad.shape, grad.dtype))
    # dx = inv * (gx - mean(gx) - xhat * mean(gx * xhat)), with both means taken first
    gx_mean = gx.mean(axis=-1, keepdims=True)
    proj = np.multiply(gx, xhat, out=tmp).mean(axis=-1, keepdims=True)
    gx -= gx_mean
    gx -= np.multiply(xhat, proj, out=tmp)
    gx *= inv
    return gx, dgain, dbias


def _head_view(w, x):
    """(J, h, d) head weights viewed (J, 1, ..., 1, h, d) to broadcast against x."""
    return w.reshape(w.shape[:1] + (1,) * (x.ndim - 2) + w.shape[1:])


def _heads_to_rows(heads, index, out, ws):
    """The slots ``index`` of a head-first (J, ..., d) grid as (R, J, d)
    rows, into ``out``. The slots are gathered into a contiguous (J, R, d)
    scratch, which one transposing copy then writes into ``out``."""
    flat = heads.reshape(len(heads), -1, heads.shape[-1])
    if len(index) < flat.shape[1]:
        j, rows, d = len(flat), len(index), flat.shape[-1]
        gathered = ws.get(_ROWS, (rows, j * d), flat.dtype).reshape(j, rows, d)
        flat = np.take(flat, index, axis=1, out=gathered, mode="clip")
    out[...] = np.swapaxes(flat, 0, 1)
    return out


def _rows_to_heads(rows, index, heads):
    """Write (R, J d) rows (heads side by side, as concatenated) into the
    slots ``index`` of a head-first (J, ..., d) grid and zero the other
    slots; the inverse of :func:`_heads_to_rows`."""
    flat = heads.reshape(len(heads), -1, heads.shape[-1])
    for j, cols in enumerate(np.split(rows, len(heads), axis=1)):
        _scatter_rows(cols, index, flat[j])
    return heads


def _stacked_heads(wq, wk, wv):
    """The (J, h, d_k) head weights as one (h, 3 J d_k) matrix: the q, k and
    v heads side by side, in the column order of the concatenated heads."""
    return np.concatenate([w.transpose(1, 0, 2).reshape(w.shape[1], -1) for w in (wq, wk, wv)], axis=1)


def multi_head_attention(
    x, mask, wq, wk, wv, wo, bo, *, dropout_rate=0.0, rng=None, training=False, ws=None, key="msa", out=None,
    width=None,
):
    """Masked multi-head self-attention over one or a batch of windows.

    ``x`` is the (..., m, h) grid with zero PAD slots and ``wq``/``wk``/``wv``
    are (J, h, d_k). Per head j the context is ``softmax(x Wq_j (x Wk_j)^T /
    sqrt(d_k)) x Wv_j`` with PAD keys masked out; the heads' contexts are
    concatenated along the feature axis and mixed by ``wo``.

    Rows and grid: q, k and v, the scores, the softmax, its dropout and the
    context run on the (J, ..., m, ·) grid. The contexts of the R valid
    slots are gathered, in the C order of ``mask``, and projected by ``wo``
    into ``out`` (or the workspace), so the output is (R, h) rows: a PAD
    query slot has none. A PAD slot of ``x`` reaches only PAD query rows and
    masked keys, whose weights and gradients are exact zeros, so while the
    scores stay finite its value changes no output row and no gradient.

    Dropout is :func:`dropout_forward` on the (J, ..., m, m) weights: one
    uniform per weight, in C order, PAD rows and keys included. ``width``
    is the width L of the padded grid that ``x`` was compacted from (None:
    m); it only sizes storage, so every grid array, the dropout scale
    included, has the capacity of its (..., L, ·) shape, and a change of m
    up to L replaces none of them.

    Returns (rows, cache). The cache keeps ``x``, ``mask``, ``width`` and
    ``weights`` (wq, wk, wv, wo); its head arrays are head-first:
    ``q``/``k``/``v`` (J, ..., m, d_k) and ``attn`` (the softmax weights,
    before dropout) and ``dropped`` (J, ..., m, m), which is ``attn`` itself
    when dropout is inactive. ``concat`` holds the (R, J d_k) context rows.
    """
    ws = _workspace(ws)
    m = x.shape[-2]
    width = m if width is None else width
    heads, d_head = wq.shape[0], wq.shape[-1]
    head_shape = (heads,) + x.shape[:-1] + (d_head,)
    score_shape = head_shape[:-1] + (m,)

    def grid(name, shape, square=False):
        return ws.get(name, shape, x.dtype, _padded_size(shape, width, square))

    index = np.flatnonzero(mask)
    scale = 1.0 / sqrt(d_head)
    q = np.matmul(x, _head_view(wq, x), out=grid(f"{key}.q", head_shape))
    k = np.matmul(x, _head_view(wk, x), out=grid(f"{key}.k", head_shape))
    v = np.matmul(x, _head_view(wv, x), out=grid(f"{key}.v", head_shape))
    attn = np.matmul(q, np.swapaxes(k, -1, -2), out=grid(f"{key}.attn", score_shape, square=True))
    attn *= scale
    masked_softmax(attn, mask, out=attn)
    dropped, drop_scale = attn, None
    if training and dropout_rate != 0.0:
        dropped, drop_scale = dropout_forward(
            attn, dropout_rate, rng, training, ws=ws, key=f"{key}.drop_scale",
            out=grid(f"{key}.dropped", score_shape, square=True),
            capacity=_padded_size(score_shape, width, square=True),
        )
    context = np.matmul(dropped, v, out=grid(_GRID, head_shape))
    concat = ws.get(f"{key}.concat", (len(index), heads * d_head), x.dtype)
    _heads_to_rows(context, index, concat.reshape(len(index), heads, d_head), ws)
    if out is None:
        out = ws.get("scratch.msa", (len(index),) + wo.shape[1:], x.dtype)
    y, _ = linear_forward(concat, wo, bo, out=out)
    cache = {
        "x": x, "mask": mask, "width": width, "index": index, "q": q, "k": k, "v": v, "attn": attn,
        "drop_scale": drop_scale, "dropped": dropped, "concat": concat,
        "weights": (wq, wk, wv, wo), "scale": scale, "ws": ws,
    }
    return y, cache


def multi_head_attention_backward(grad, cache):
    """Gradients of :func:`multi_head_attention`; ``grad`` and the returned
    input gradient are (R, h) rows of the valid slots.

    The context gradient is scattered onto the zero-PAD head grid, and the
    q, k and v gradients formed there are gathered back to (R, 3 J d_k)
    rows. The weight gradients are then one GEMM with the input rows,
    gathered from the cached grid, and the input gradient one GEMM with the
    stacked head weights.
    """
    x, index, q, k, v, attn, dropped = (cache[key] for key in ("x", "index", "q", "k", "v", "attn", "dropped"))
    wq, wk, wv, wo = cache["weights"]
    w_qkv = _stacked_heads(wq, wk, wv)
    ws = cache["ws"]
    heads, d_head = wq.shape[0], wq.shape[-1]

    def grid(name, shape, square=False):
        return ws.get(name, shape, x.dtype, _padded_size(shape, cache["width"], square))

    dconcat, dwo, dbo = linear_backward(
        grad, cache["concat"], wo, out=ws.get("grad.msa.dconcat", cache["concat"].shape, x.dtype)
    )
    dout = _rows_to_heads(dconcat, index, grid(_GRID, q.shape))
    ddropped = np.matmul(dout, np.swapaxes(v, -1, -2), out=grid("grad.msa.ddropped", attn.shape, square=True))
    dv = np.matmul(np.swapaxes(dropped, -1, -2), dout, out=grid("grad.msa.dv", v.shape))
    dattn = dropout_backward(ddropped, cache["drop_scale"])
    dscores = masked_softmax_backward(dattn, attn, scratch=grid("scratch.softmax", attn.shape, square=True))
    dscores *= cache["scale"]
    dq = np.matmul(dscores, k, out=grid("grad.msa.dq", q.shape))
    dk_ = np.matmul(np.swapaxes(dscores, -1, -2), q, out=grid("grad.msa.dk", k.shape))
    drows = ws.get(_WIDE, (len(index), w_qkv.shape[1]), x.dtype)
    for heads_grid, cols in zip((dq, dk_, dv), np.moveaxis(drows.reshape(len(index), 3, heads, d_head), 1, 0)):
        _heads_to_rows(heads_grid, index, cols, ws)
    rows = _gather_rows(x, index, ws.get(_ROWS, (len(index), x.shape[-1]), x.dtype))
    dw = rows.T @ drows
    dwq, dwk, dwv = (np.moveaxis(d.reshape(len(d), heads, d_head), 1, 0) for d in np.split(dw, 3, axis=1))
    dx = np.matmul(drows, w_qkv.T, out=ws.get("grad.msa.dx", rows.shape, x.dtype))
    return dx, {"wq": dwq, "wk": dwk, "wv": dwv, "wo": dwo, "bo": dbo}


def ffn_forward(x, w1, b1, w2, b2, *, dropout_rate=0.0, rng=None, training=False, ws=None, key="ffn"):
    """Affine -> rectifier -> dropout -> affine; at rate 0 a plain two-layer MLP.

    The rectifier and dropout run in place on the hidden units, which the
    cache holds once, after dropout: ``(x, hidden, ws, drop_scale, w1, w2)``.
    ``drop_scale`` is the scalar 1 / (1 - rate) of the kept units, or None
    without dropout; the full scale array is transient. The backward pass
    needs no mask: a unit passes gradient where its cached value is
    positive, and every other unit's gradient, kept or dropped, comes out
    as a zero of the incoming gradient's sign, as through the full scale
    (for every gradient whose product with the scale does not overflow).
    """
    ws = _workspace(ws)
    hidden, _ = linear_forward(x, w1, b1, out=ws.get(f"{key}.hidden", x.shape[:-1] + w1.shape[1:], x.dtype))
    np.maximum(hidden, 0.0, out=hidden)
    hidden, drop_scale = dropout_forward(hidden, dropout_rate, rng, training, ws=ws, key=_WIDE, out=hidden)
    if drop_scale is not None:
        drop_scale = x.dtype.type(1.0) / (1.0 - dropout_rate)
    y, _ = linear_forward(hidden, w2, b2, out=ws.get("scratch.ffn", x.shape[:-1] + w2.shape[1:], x.dtype))
    return y, (x, hidden, ws, drop_scale, w1, w2)


def ffn_backward(grad, cache):
    x, hidden, ws, drop_scale, w1, w2 = cache
    dh, dw2, db2 = linear_backward(grad, hidden, w2, out=ws.get(_WIDE, hidden.shape, x.dtype))
    # (grad * scale) * (pre-activation > 0)
    if drop_scale is not None:
        dh *= drop_scale
    dh *= np.greater(hidden, 0.0, out=ws.get("grad.ffn.active", hidden.shape, bool))
    dx, dw1, db1 = linear_backward(dh, x, w1, out=ws.get("grad.ffn.dx", x.shape, x.dtype))
    return dx, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


# Row packing. ``index`` is ``np.flatnonzero(mask)``: sorted and unique, so
# when it is as long as the grid it names every slot, in order, and the rows
# are the grid itself.


def _scatter_rows(rows, index, grid):
    """Write ``rows`` into the slots ``index`` of ``grid`` (..., d) and zero
    the other slots."""
    flat = grid.reshape(-1, grid.shape[-1])
    if len(index) == len(flat):
        flat[...] = rows
    else:
        grid.fill(0)
        flat[index] = rows
    return grid


def _gather_rows(grid, index, out):
    """The slots ``index`` of ``grid`` (..., d) as rows, into ``out``."""
    flat = grid.reshape(-1, grid.shape[-1])
    if len(index) == len(flat):
        out[...] = flat
        return out
    return np.take(flat, index, axis=0, out=out, mode="clip")


def transformer_layer_forward(
    x, mask, layer, *, dropout_rate=0.0, rng=None, training=False, ws=None, key="layer", out=None, width=None
):
    """One pre-output block on packed rows: LN(x + MSA(x)) then LN(.. + FFN(..)).

    ``x`` (R, h) holds the valid slots of ``mask`` (..., m) in C order. The
    layer scatters them into a zero-PAD (..., m, h) grid, which the
    attention takes and its cache keeps; ``width``, the padded grid's width
    L (None: m), sizes the grid's storage, as
    :func:`multi_head_attention`'s. The attention returns its output rows
    into the LN1 buffer, and everything else runs on the R rows.
    ``layer`` is a mapping with keys wq, wk, wv, wo, bo, ln1_g, ln1_b,
    ffn_w1, ffn_b1, ffn_w2, ffn_b2, ln2_g, ln2_b. The residual sums are
    written over buffers that no cache keeps, and the output to ``out``
    (which may be ``x``) or to the workspace.
    """
    ws = _workspace(ws)
    shape = mask.shape + x.shape[-1:]
    width = shape[-2] if width is None else width
    grid = ws.get(f"{key}.msa.x", shape, x.dtype, _padded_size(shape, width))
    r1, msa_cache = multi_head_attention(
        _scatter_rows(x, np.flatnonzero(mask), grid), mask, layer["wq"], layer["wk"], layer["wv"], layer["wo"],
        layer["bo"], dropout_rate=dropout_rate, rng=rng, training=training, ws=ws, key=f"{key}.msa",
        out=ws.get(f"{key}.ln1.y", x.shape, x.dtype), width=width,
    )
    x1, ln1_cache = layer_norm_forward(
        np.add(r1, x, out=r1), layer["ln1_g"], layer["ln1_b"], ws=ws, key=f"{key}.ln1", out=r1
    )
    f, ffn_cache = ffn_forward(
        x1, layer["ffn_w1"], layer["ffn_b1"], layer["ffn_w2"], layer["ffn_b2"],
        dropout_rate=dropout_rate, rng=rng, training=training, ws=ws, key=f"{key}.ffn",
    )
    y, ln2_cache = layer_norm_forward(
        np.add(x1, f, out=f), layer["ln2_g"], layer["ln2_b"], ws=ws, key=f"{key}.ln2", out=out
    )
    return y, {"msa": msa_cache, "ln1": ln1_cache, "ffn": ffn_cache, "ln2": ln2_cache}


def transformer_layer_backward(grad, cache):
    """Gradients of :func:`transformer_layer_forward`; ``grad`` and the
    returned input gradient are (R, h) rows."""
    dr2, dln2_g, dln2_b = layer_norm_backward(grad, cache["ln2"])
    dffn_x, ffn_grads = ffn_backward(dr2, cache["ffn"])
    dx1 = np.add(dr2, dffn_x, out=dffn_x)
    dr1, dln1_g, dln1_b = layer_norm_backward(dx1, cache["ln1"])
    dmsa_x, msa_grads = multi_head_attention_backward(dr1, cache["msa"])
    # written over dx1, which the LN1 backward has consumed
    dx = np.add(dmsa_x, dr1, out=dx1)
    grads = {**msa_grads, "ln1_g": dln1_g, "ln1_b": dln1_b, "ln2_g": dln2_g, "ln2_b": dln2_b}
    grads.update({"ffn_" + k: g for k, g in ffn_grads.items()})
    return dx, grads


def readout_forward(x, mask, *, ws=None):
    """Mean over valid rows: rows (R, h) of the valid slots of ``mask``
    (..., L), in C order -> (..., h); a window with no valid slot -> 0.
    The sum runs over the rows on a zero-PAD grid, which is ``x`` itself
    when every slot is valid."""
    ws = _workspace(ws)
    index = np.flatnonzero(mask)
    grid_shape = mask.shape + x.shape[-1:]
    if len(index) == mask.size:
        grid = x.reshape(grid_shape)
    else:
        grid = _scatter_rows(x, index, ws.get(_GRID, grid_shape, x.dtype))
    counts = np.asarray(mask, dtype=x.dtype).sum(axis=-1, keepdims=True)
    sums = grid.sum(axis=-2)
    y = np.divide(sums, counts, out=sums, where=counts > 0)
    # the window of each row, over the flattened leading axes
    return y, (index // mask.shape[-1], counts, ws)


def readout_backward(grad, cache):
    owner, counts, ws = cache
    inv = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
    g = (grad * inv).reshape(-1, grad.shape[-1])
    out = ws.get("grad.readout.dx", (len(owner), g.shape[-1]), g.dtype)
    return np.take(g, owner, axis=0, out=out, mode="clip")


def bce_loss(p, y, eps=1e-12):
    """Per-sample binary cross-entropy with probability clamping.

    The gradient with respect to the pre-sigmoid logit is simply ``p - y``;
    callers apply their own batch reduction scaling.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
