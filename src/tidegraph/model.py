"""The interaction-level link predictor: parameters, forward, and gradients.

The model encodes the two neighbor windows of a candidate pair into token
sequences (see :func:`featurize_pairs`), projects them to the transformer
width, runs a small masked-attention stack, mean-pools valid rows into node
embeddings, and scores the pair with a two-layer head. Backward passes are
hand-derived and accumulate into gradient buffers shaped like the parameters,
so the whole pipeline can be verified by central finite differences.

The transformer computes in the parameters' dtype (:data:`COMPUTE_DTYPE`,
float32): parameters, activations, caches and gradients. The time encoders
take float64 arguments: the offset dt, omega * dt and its reduction by 2π,
because over spans of years a float32 ulp of dt is seconds. The cosine of the
reduced argument is float32, and so is the time block of a
:class:`PairBatch`. Its features and the learned blocks' inputs are float64,
and :func:`_assemble_tokens` casts them once as it gathers them. Logits are
lifted back to float64 for the sigmoid and the loss, and :func:`grad_check`
checks a float64 copy of the parameters; the float32 time columns it reads
are exact in float64.

Every large array of a step (the token matrix, activations, forward caches
and backward temporaries) lives in the parameters' :class:`~.attention.Workspace`
(see :mod:`.attention` for its contract). So the cache that
:func:`forward_batch` returns stays valid until the next forward on the same
parameters, and a steady run of same-sized steps allocates no large array.
Each transformer layer has its own buffers, except in evaluation:
:func:`predict_probs` and :func:`batch_loss` run their forward in the
workspace's inference scope, where no backward follows and each sequence is
scored on its own. There the forward runs over tiles of whole sequences, at
most :data:`INFERENCE_TILE_SLOTS` padded slots each, from token assembly to
the readout, every tile and every layer in layer 0's buffers, and the link
head scores all pairs at once; the cache keeps only the last tile's last
layer valid (nothing reads it after the pass). An evaluation after training
thus writes into buffers training made resident, and an evaluation-only run
allocates one layer's for one tile, however large the batch. Outside the
scope the batch is one tile, so training runs the same loop once.
The probabilities it returns, the gradients in ``params.grads`` and the
:class:`PairBatch` arrays never share memory with the workspace.

Packed rows: :func:`_assemble_tokens` gathers the R valid slots of a batch,
in :func:`to_sequences` order, into an (R, width) token matrix with the
columns of :meth:`ModelConfig.token_blocks`, and the count lift and the
season and trend embeddings run on those rows. From there the
input projection, every transformer layer's LayerNorms, residual sums and
FFN, the attention's output projection, and the readout work on (R, ·)
rows, and so do their gradients and the attention's q, k and v weight and
input gradients; PAD slots have no row. The padded arrays are the
:class:`PairBatch` encoder outputs and mask and the (S, L) sequence mask of
:func:`to_sequences`, which the readout takes. Each layer's attention
input, q, k and v, scores, weights and context lie on the compact grid of
:func:`~.attention.compact_grid`, built once per forward (per tile in
evaluation): (S, m), m the most valid slots of any sequence, each
sequence's valid slots right-aligned in their order, so the rows keep their
order. For layouts il and sl that is
the last m columns of the left-padded windows; for ml it also closes the
PAD gap between a pair's two windows. The attention's dropout draws one
uniform per weight of that compact (J, S, m, m) grid, so its stream follows
m; the grid arrays' storage is sized for the padded (S, L) grid (see
:mod:`.attention`). The forward's cache keeps each compact slot's padded
column, from which :func:`attention_weights` puts the weights back on the
(S, L) grid.

Parameters and checkpoints: :class:`ModelParameters` holds its values and
its gradients as one contiguous 1-D array each (a :class:`~.optim.FlatTensors`),
with every named tensor a view into it, placed by one (name, shape, offset)
table. Zeroing the gradients, a snapshot, a restore, a dtype cast and an
Adam step (see :mod:`.optim`) each work on the whole array at once.
Checkpoint format 3 (:func:`save_checkpoint`) stores those arrays as they
are: an uncompressed ``.npz`` archive with a ``param`` member, ``adam_m``
and ``adam_v`` members when the Adam state is saved, each 1-D in the
parameters' dtype, and a JSON ``meta`` member holding the table.
:func:`load_checkpoint` reads each member in one zip read and returns named
views into it; format 1 and 2 files (one member per tensor) are refused by
their version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import copy
import io
import json
import math
import zipfile

import numpy as np
from numpy.lib import format as npy_format

from . import attention as nn
from .encoders import MteConfig, bie_counts, bie_reconstruct, encode_coarse_time, encode_fine_time, mix_temporal, ste_decompose
from .errors import CheckFailure, ConfigError
from .optim import FlatTensors
from .sampling import PAD_ID, BatchNeighborIndex, NeighborSequence

__all__ = [
    "ModelConfig",
    "ModelParameters",
    "PairBatch",
    "featurize_pairs",
    "to_sequences",
    "to_window_rows",
    "forward_batch",
    "backward_batch",
    "loss_and_grads",
    "batch_loss",
    "predict_probs",
    "grad_check",
    "attention_weights",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 3
# the arrays of a checkpoint, one per kind; the Adam moments are optional
CHECKPOINT_KINDS = ("param", "adam_m", "adam_v")
# The transformer's compute dtype; ModelParameters.astype gives a copy in another.
COMPUTE_DTYPE = np.float32
# The most padded slots of one tile of an evaluation forward (see forward_batch):
# 2,048 slots keep a tile's workspace near 10 MiB at the default sizes.
INFERENCE_TILE_SLOTS = 2048
# K in grad_check's roundoff allowance K * eps_mach * |L| / epsilon.
ROUNDOFF_FACTOR = 4.0
# The parameters of the season and trend blocks' linear lifts: weight and bias under "ste.".
_STE_PARAMS = {"season": ("ws", "bs"), "trend": ("wt", "bt")}


@dataclass
class ModelConfig:
    """Architecture and encoder switches.

    ``layout`` selects how windows become token sequences: one sequence per
    node ("sl"), the pair's two windows stacked into one sequence ("ml"), or
    one sequence per node with interaction context columns ("il", default).
    ``time_mode`` picks the temporal block: "mix" (fine + calendar term),
    "fine", or "none". :meth:`token_blocks` gives the blocks of a token
    under these switches.
    """

    n_neighbors: int = 20
    hidden: int = 64
    layers: int = 2
    heads: int = 2
    dropout: float = 0.1
    layout: str = "il"
    time_mode: str = "mix"
    use_bie: bool = True
    use_ste: bool = True
    d_b: int = 50
    d_s: int = 50
    d_tr: int = 50
    ste_window: int = 3
    neighbor_strategy: str = "recent"
    mte: MteConfig = field(default_factory=MteConfig)

    def __post_init__(self):
        if self.layout not in ("il", "sl", "ml"):
            raise ConfigError(f"layout must be il/sl/ml, got {self.layout!r}")
        if self.time_mode not in ("mix", "fine", "none"):
            raise ConfigError(f"time_mode must be mix/fine/none, got {self.time_mode!r}")
        if self.neighbor_strategy not in ("recent", "uniform"):
            raise ConfigError(f"neighbor_strategy must be recent/uniform, got {self.neighbor_strategy!r}")
        if self.hidden % self.heads:
            raise ConfigError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must lie in [0,1), got {self.dropout}")
        for name in ("n_neighbors", "hidden", "layers", "heads", "d_b", "d_s", "d_tr"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if "season" in dict(self.token_blocks(0)) and self.ste_window not in range(1, self.n_neighbors + 1, 2):
            raise ConfigError(f"ste_window must be an odd integer in [1, n_neighbors={self.n_neighbors}], "
                              f"got {self.ste_window}")

    @property
    def d_head(self) -> int:
        return self.hidden // self.heads

    def token_blocks(self, d_feat: int) -> list[tuple[str, int]]:
        """A token's blocks in column order, as (name, width) pairs: the d_feat
        features ``h``; unless time_mode is "none", a time block, ``tmix``
        (mixed granularity) on layout il in mode "mix" and ``tfine`` otherwise;
        and on layout il only, the learned blocks ``bie``, ``season`` and
        ``trend`` of the encoders that are on."""
        blocks = [("h", d_feat)]
        if self.time_mode != "none":
            mixed = self.layout == "il" and self.time_mode == "mix"
            blocks.append(("tmix", self.mte.output_dim) if mixed else ("tfine", self.mte.d_t))
        if self.layout == "il":
            if self.use_bie:
                blocks.append(("bie", self.d_b))
            if self.use_ste:
                blocks += [("season", self.d_s), ("trend", self.d_tr)]
        return blocks

    def token_width(self, d_n: int, d_e: int) -> int:
        return sum(width for _, width in self.token_blocks(d_n + d_e))


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class ModelParameters:
    """Named parameter tensors plus same-shaped gradient buffers.

    ``values`` and ``grads`` are :class:`~.optim.FlatTensors` over one table
    built here: each a contiguous 1-D array with the named tensors as views
    into it, in the order below. Every tensor has the compute dtype
    ``dtype``, :data:`COMPUTE_DTYPE` as built; :meth:`astype` gives a copy in
    another dtype. The initial values are drawn in float64 and then cast.
    ``workspace`` holds the step buffers of :func:`forward_batch` and
    :func:`backward_batch`; it is empty until the first forward, and every
    copy gets its own.
    """

    def __init__(self, cfg: ModelConfig, d_n: int, d_e: int, seed: int = 0):
        self.cfg = cfg
        self.dtype = np.dtype(COMPUTE_DTYPE)
        self.d_n = d_n
        self.d_e = d_e
        rng = np.random.default_rng(seed)
        h = cfg.hidden
        blocks = dict(cfg.token_blocks(d_n + d_e))
        width = sum(blocks.values())
        if width == 0:
            raise ConfigError(f"layout {cfg.layout!r}, time_mode {cfg.time_mode!r}: no token columns without features")
        vals: dict[str, np.ndarray] = {}

        vals["input.w"] = _glorot(rng, (width, h), width, h)
        vals["input.b"] = np.zeros(h)
        for l in range(cfg.layers):
            p = f"layers.{l}."
            vals[p + "wq"] = _glorot(rng, (cfg.heads, h, cfg.d_head), h, cfg.d_head)
            vals[p + "wk"] = _glorot(rng, (cfg.heads, h, cfg.d_head), h, cfg.d_head)
            vals[p + "wv"] = _glorot(rng, (cfg.heads, h, cfg.d_head), h, cfg.d_head)
            vals[p + "wo"] = _glorot(rng, (h, h), h, h)
            vals[p + "bo"] = np.zeros(h)
            vals[p + "ln1_g"] = np.ones(h)
            vals[p + "ln1_b"] = np.zeros(h)
            vals[p + "ffn_w1"] = _glorot(rng, (h, 4 * h), h, 4 * h)
            vals[p + "ffn_b1"] = np.zeros(4 * h)
            vals[p + "ffn_w2"] = _glorot(rng, (4 * h, h), 4 * h, h)
            vals[p + "ffn_b2"] = np.zeros(h)
            vals[p + "ln2_g"] = np.ones(h)
            vals[p + "ln2_b"] = np.zeros(h)
        if "bie" in blocks:
            vals["bie.w1"] = _glorot(rng, (2, cfg.d_b), 2, cfg.d_b)
            vals["bie.b1"] = np.zeros(cfg.d_b)
            vals["bie.w2"] = _glorot(rng, (cfg.d_b, cfg.d_b), cfg.d_b, cfg.d_b)
            vals["bie.b2"] = np.zeros(cfg.d_b)
        for name, (w, b) in _STE_PARAMS.items():
            if name in blocks:
                vals[f"ste.{w}"] = _glorot(rng, (1, blocks[name]), 1, blocks[name])
                vals[f"ste.{b}"] = np.zeros(blocks[name])
        vals["link.w1"] = _glorot(rng, (2 * h, h), 2 * h, h)
        vals["link.b1"] = np.zeros(h)
        vals["link.w2"] = _glorot(rng, (h, 1), h, 1)
        vals["link.b2"] = np.zeros(1)

        self.values = FlatTensors.pack(vals, self.dtype)
        self.grads = FlatTensors.zeros(self.values.table, self.dtype)
        self.workspace = nn.Workspace()

    def astype(self, dtype) -> "ModelParameters":
        """A copy with every tensor cast to ``dtype`` and zero gradients."""
        out = copy.copy(self)
        out.dtype = np.dtype(dtype)
        out.values = self.values.astype(out.dtype)
        out.grads = FlatTensors.zeros(out.values.table, out.dtype)
        out.workspace = nn.Workspace()
        return out

    def zero_grads(self) -> None:
        self.grads.flat.fill(0.0)

    def layer_view(self, l: int) -> dict[str, np.ndarray]:
        p = f"layers.{l}."
        keys = ("wq", "wk", "wv", "wo", "bo", "ln1_g", "ln1_b",
                "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2", "ln2_g", "ln2_b")
        return {k: self.values[p + k] for k in keys}

    def add_grads(self, prefix: str, grads: dict[str, np.ndarray]) -> None:
        """Accumulate a block's gradients, keyed by local name, under ``prefix``."""
        for k, g in grads.items():
            self.grads[f"{prefix}.{k}"] += g

    @property
    def num_scalars(self) -> int:
        return self.values.flat.size

    def snapshot(self) -> FlatTensors:
        return self.values.astype(self.dtype)

    def restore(self, snapshot: FlatTensors) -> None:
        """Copy ``snapshot`` (of :meth:`snapshot` or :func:`load_checkpoint`)
        into the tensors in one copy, cast to the compute dtype."""
        if snapshot.table != self.values.table:
            raise ValueError("the snapshot's tensor table is not the parameters'")
        self.values.flat[...] = snapshot.flat


@dataclass
class PairBatch:
    """Encoder outputs for a batch of candidate pairs, ready for assembly.

    Sequences are stacked source-block-first: row i holds the source window
    of pair i and row P+i the target window. A field whose block is not in
    :meth:`ModelConfig.token_blocks` is None.
    """

    h: np.ndarray  # (2P, n, d_n+d_e): block h
    # (2P, n, width) float32, block tmix or tfine: a table of the batch's distinct offsets, gathered
    tmix: np.ndarray | None
    counts: np.ndarray | None  # (2P, n, 2): the input of block bie
    season: np.ndarray | None  # (2P, n, 1): the input of block season
    trend: np.ndarray | None  # (2P, n, 1): the input of block trend
    mask: np.ndarray  # (2P, n) bool
    token_ids: np.ndarray  # (2P, n) int64
    num_pairs: int


def featurize_pairs(
    seq_pairs: list[tuple[NeighborSequence, NeighborSequence]],
    index: BatchNeighborIndex,
    store,
    cfg: ModelConfig,
) -> PairBatch:
    """Run the fixed encoders over sampled window pairs, for exactly the
    blocks of ``cfg.token_blocks``: the features ``h`` (node features by id
    and edge features by event id, zero on PAD slots), the time block, and
    the inputs of the learned blocks (interaction counts, season and trend).

    Every block is built for all 2P windows at once, the time block as one
    float32 row per distinct offset gathered onto the grid; the per-pair
    interaction counts are the one exception.
    """
    p = len(seq_pairs)
    if p == 0:
        raise ValueError("empty batch")
    n = seq_pairs[0][0].n
    seqs = [sp[0] for sp in seq_pairs] + [sp[1] for sp in seq_pairs]
    blocks = dict(cfg.token_blocks(store.d_n + store.d_e))

    times = np.stack([seq.times for seq in seqs])
    qtimes = np.array([[seq.query_time] for seq in seqs], dtype=np.float64)
    token_ids = np.stack([seq.ids for seq in seqs])
    mask = token_ids != PAD_ID
    h = np.zeros((2 * p, n, store.d_n + store.d_e))
    eids = np.stack([seq.event_ids for seq in seqs])[mask]
    h[mask] = np.concatenate([store.node_features[token_ids[mask]], store.edge_features[eids]], axis=1)

    tmix = None
    if blocks.keys() & {"tfine", "tmix"}:
        # offsets repeat: every PAD slot reads 0, a negative reuses its positive's source window
        offsets, at = np.unique(qtimes - times, return_inverse=True)
        table = encode_fine_time(offsets, cfg.mte)
        if "tmix" in blocks:
            _, coarse = encode_coarse_time(offsets, cfg.mte)
            table = mix_temporal(table, coarse, cfg.mte.combine)
        tmix = table.astype(np.float32, copy=False)[at.reshape(times.shape)]

    counts = None
    if "bie" in blocks:
        counts = np.zeros((2 * p, n, 2))
        for i, (src_seq, tgt_seq) in enumerate(seq_pairs):
            src_new, tgt_new = bie_reconstruct(src_seq, tgt_seq, index)
            i_src, i_tgt = bie_counts(src_new, tgt_new)
            counts[i] = i_src
            counts[p + i] = i_tgt

    season = trend = None
    if "season" in blocks:
        signal = np.where(token_ids == PAD_ID, 0.0, token_ids / float(store.num_nodes))[..., None]
        parts = ste_decompose(signal, cfg.ste_window)
        season, trend = parts.seasonal, parts.trend

    return PairBatch(
        h=h, tmix=tmix, counts=counts, season=season, trend=trend,
        mask=mask, token_ids=token_ids, num_pairs=p,
    )


def _slot_order(batch: PairBatch, cfg: ModelConfig) -> np.ndarray:
    """The (S, L) transformer sequences of :func:`to_sequences` as the flat
    index of each slot in the (2P, n) window grid."""
    return to_sequences(np.arange(batch.mask.size).reshape(batch.mask.shape), cfg)


def _assemble_tokens(params: ModelParameters, cfg: ModelConfig, batch: PairBatch, slots: np.ndarray | None = None):
    """Token rows (R, width) in the compute dtype, in the workspace: one row
    per window slot of ``slots`` (flat indices into the (2P, n) grid; by
    default every valid slot, in :func:`to_sequences` order), with the
    columns of ``cfg.token_blocks``. ``h`` and the time block are gathered
    and cast into theirs (another width raises :class:`CheckFailure`); the
    count lift and the season and trend embeddings run on the gathered rows,
    whose cast inputs the cache keeps by block name for the backward pass,
    and write into theirs."""
    ws = params.workspace
    v = params.values
    if slots is None:
        slots = _slot_order(batch, cfg)[to_sequences(batch.mask, cfg)]
    # consecutive slots (every slot valid, windows in order) are a slice
    first = int(slots[0]) if len(slots) else 0
    run = slice(first, first + len(slots)) if np.array_equal(slots, np.arange(first, first + len(slots))) else None

    def gather(a, out):
        if a.shape[:-1] != batch.mask.shape:
            raise ValueError(f"encoder block of shape {a.shape} does not match windows {batch.mask.shape}")
        a = a.reshape(batch.mask.size, a.shape[-1])
        out[...] = a[slots] if run is None else a[run]
        return out

    def rows(key, width):
        return ws.get(key, (len(slots), width), params.dtype)

    blocks = cfg.token_blocks(params.d_n + params.d_e)
    tokens = rows("tokens", sum(width for _, width in blocks))
    cache = {}
    col = 0
    for name, width in blocks:
        cols = tokens[:, col : col + width]
        col += width
        if name == "bie":
            x = gather(batch.counts, rows("bie.counts", 2))
            emb, cache["bie"] = nn.ffn_forward(x, v["bie.w1"], v["bie.b1"], v["bie.w2"], v["bie.b2"], ws=ws, key="bie")
            cols[...] = emb
        elif name in _STE_PARAMS:
            w, b = (v[f"ste.{k}"] for k in _STE_PARAMS[name])
            _, cache[name] = nn.linear_forward(gather(getattr(batch, name), rows(f"{name}.x", 1)), w, b, out=cols)
        else:
            block = batch.h if name == "h" else batch.tmix
            if block is None or block.shape[-1] != width:
                raise CheckFailure(f"token width: the batch's block {name!r} is not the table's {width} columns")
            gather(block, cols)
    return tokens, cache


def to_sequences(rows: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Window rows (2P, n, ...) to transformer sequences.

    Layouts il and sl attend within each window, so the rows are the
    sequences. Layout ml sets a pair's two windows side by side in one
    (P, 2n, ...) sequence, source block first (DyGFormer's patch stacking).
    """
    if cfg.layout != "ml":
        return rows
    p = len(rows) // 2
    return np.concatenate([rows[:p], rows[p:]], axis=1)


def to_window_rows(seqs: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Inverse of :func:`to_sequences`: transformer sequences to (2P, n, ...) window rows."""
    if cfg.layout != "ml":
        return seqs
    n = seqs.shape[1] // 2
    return np.concatenate([seqs[:, :n], seqs[:, n:]], axis=0)


def forward_batch(
    params: ModelParameters,
    cfg: ModelConfig,
    batch: PairBatch,
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Score every pair in the batch; returns (probabilities, cache).

    The cache lives in ``params.workspace`` and stays valid until the next
    forward on ``params``; the probabilities are a fresh array. Its
    ``tokens`` are the (R, width) token rows, ``final_rows`` the (R, h)
    output rows of the last layer, and ``cols`` (S, m) and ``width`` (L) the
    padded column of each slot of the attention's compact grid and the
    padded grid's width.

    Inside ``params.workspace.inference()`` the sequences of
    :func:`to_sequences` run, in order, in tiles of whole sequences of at
    most :data:`INFERENCE_TILE_SLOTS` padded slots (at least one sequence),
    from token assembly to the readout; the link head then scores every
    pair at once. Every tile and every layer runs in the same buffers (key
    ``layers.0``), so the cache holds only the last tile's arrays, of
    which only the last entry of ``cache["layers"]`` is valid, and it cannot
    take a backward pass. Outside it the batch is one tile and every layer's
    cache is valid.
    """
    p = batch.num_pairs
    ws = params.workspace
    mask = to_sequences(batch.mask, cfg)
    order = _slot_order(batch, cfg)
    per_tile = max(1, INFERENCE_TILE_SLOTS // mask.shape[1] if ws.shared_layers else len(mask))
    embs = []
    for a in range(0, len(mask), per_tile):
        tile = mask[a : a + per_tile]
        emb, cache = _forward_tile(params, cfg, batch, order[a : a + per_tile][tile], tile, training, rng)
        embs.append(emb)

    emb = to_window_rows(np.concatenate(embs), cfg).reshape(2 * p, -1)
    pair_emb = np.concatenate([emb[:p], emb[p:]], axis=-1)
    # the link head's (P, ·) pair rows are small and allocate their own arrays,
    # so every 2-D workspace array is a slot-row matrix (see Workspace)
    logit2d, cache["link"] = nn.ffn_forward(
        pair_emb, params.values["link.w1"], params.values["link.b1"],
        params.values["link.w2"], params.values["link.b2"],
    )
    probs = nn.sigmoid(logit2d[:, 0])
    return probs, cache


def _forward_tile(params, cfg, batch, slots, mask, training, rng):
    """The forward of the sequences ``mask`` (S, L), whose valid slots are
    the window slots ``slots``, up to the readout, in the workspace sized for
    them: the (S, L / n, h) window embeddings, a fresh array, and the cache."""
    ws = params.workspace
    ws.row_capacity = mask.size
    tokens, asm_cache = _assemble_tokens(params, cfg, batch, slots)
    # the attention's compact grid: the same rows in the same order
    grid_mask, cols = nn.compact_grid(mask)

    w_in = params.values["input.w"]
    out = ws.get("rows", (len(tokens),) + w_in.shape[1:], params.dtype)
    x, _ = nn.linear_forward(tokens, w_in, params.values["input.b"], out=out)
    layer_caches = []
    for l in range(cfg.layers):
        # every layer writes its output rows over its input rows
        x, cache_l = nn.transformer_layer_forward(
            x, grid_mask, params.layer_view(l), dropout_rate=cfg.dropout, rng=rng, training=training,
            ws=ws, key="layers.0" if ws.shared_layers else f"layers.{l}", out=x, width=mask.shape[1],
        )
        layer_caches.append(cache_l)

    # each window's mean: the sequence mask viewed as (S, L / n) windows of
    # n slots gives (S, L / n, h) embeddings
    emb, readout_cache = nn.readout_forward(x, mask.reshape(len(mask), -1, batch.mask.shape[1]), ws=ws)
    cache = {
        "asm": asm_cache, "tokens": tokens, "layers": layer_caches, "readout": readout_cache, "final_rows": x,
        "cols": cols, "width": mask.shape[1],
    }
    return emb, cache


def backward_batch(params: ModelParameters, cfg: ModelConfig, cache, dlogits: np.ndarray) -> None:
    """Accumulate gradients of the batch loss into ``params.grads``.

    ``dlogits`` (float64, from the loss) is cast to the compute dtype first,
    so the whole backward pass runs in it.
    """
    dlogits = dlogits.astype(params.dtype, copy=False)
    dpair, link_grads = nn.ffn_backward(dlogits[:, None], cache["link"])
    params.add_grads("link", link_grads)
    demb = np.concatenate(np.split(dpair, 2, axis=-1))  # source rows, then target rows
    dx = nn.readout_backward(to_sequences(demb[:, None], cfg), cache["readout"])

    for l in reversed(range(cfg.layers)):
        dx, layer_grads = nn.transformer_layer_backward(dx, cache["layers"][l])
        params.add_grads(f"layers.{l}", layer_grads)

    asm = cache["asm"]
    w_in = params.values["input.w"]
    _, dw, db = nn.linear_backward(dx, cache["tokens"], w_in, need_dx=False)
    params.add_grads("input", {"w": dw, "b": db})
    # only the learned blocks, whose forward caches assembly kept, need the
    # token gradient; they are the last columns, so one GEMM against the tail
    # of input.w
    learned = [(name, width) for name, width in cfg.token_blocks(params.d_n + params.d_e) if name in asm]
    widths = [width for _, width in learned]
    out = params.workspace.get("grad.input.dx", (len(dx), sum(widths)), params.dtype)
    dtail = np.matmul(dx, w_in[len(w_in) - sum(widths) :].T, out=out)
    for (name, _), grad in zip(learned, np.split(dtail, np.cumsum(widths)[:-1], axis=1)):
        if name == "bie":
            params.add_grads("bie", nn.ffn_backward(grad, asm["bie"])[1])
        else:
            w, b = _STE_PARAMS[name]
            _, dw, db = nn.linear_backward(grad, asm[name], params.values[f"ste.{w}"], need_dx=False)
            params.add_grads("ste", {w: dw, b: db})


def loss_and_grads(
    params: ModelParameters,
    cfg: ModelConfig,
    batch: PairBatch,
    labels: np.ndarray,
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Mean binary cross-entropy over the batch plus a full gradient pass."""
    probs, cache = forward_batch(params, cfg, batch, training=training, rng=rng)
    loss = float(nn.bce_loss(probs, labels).mean())
    if not np.isfinite(loss):
        raise CheckFailure("non-finite loss")
    dlogits = (probs - labels) / len(labels)
    params.zero_grads()
    backward_batch(params, cfg, cache, dlogits)
    return loss, probs


def batch_loss(params, cfg, batch, labels) -> float:
    return float(nn.bce_loss(predict_probs(params, cfg, batch), labels).mean())


def predict_probs(params, cfg, batch) -> np.ndarray:
    """The pair probabilities of an evaluation forward, which no backward
    follows, so it runs in the workspace's inference scope."""
    with params.workspace.inference():
        probs, _ = forward_batch(params, cfg, batch, training=False)
    return probs


def attention_weights(cache, layer: int = -1) -> np.ndarray:
    """Softmax attention weights (J, S, L, L) of one layer, head axis first,
    over the S transformer sequences of :func:`to_sequences`: the weights of
    the layer's compact grid put back at their slots' columns, with zeros on
    PAD query rows and key columns. A fresh array."""
    msa = cache["layers"][layer]["msa"]
    attn, cols, width = msa["attn"], cache["cols"], cache["width"]
    out = np.zeros(attn.shape[:-2] + (width, width), attn.dtype)
    seqs = np.arange(len(cols))[:, None, None]
    out[:, seqs, cols[:, :, None], cols[:, None, :]] = attn * msa["mask"][..., None]
    return out


def grad_check(
    params: ModelParameters,
    cfg: ModelConfig,
    batch: PairBatch,
    labels: np.ndarray,
    epsilon: float = 1e-5,
    num_checks: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative gradient error beyond the finite-difference roundoff floor.

    Checks a random subset of parameter scalars in deterministic (dropout
    off) mode, on a float64 copy of ``params``; the caller's parameters and
    gradients are left as they were. For each scalar the analytic gradient
    a and the central difference n = (L+ - L-) / 2ε are compared by the
    criterion

        |a - n| <= atol + rtol * max(|a|, |n|),
        atol = K * eps_mach * max(|L+|, |L-|) / ε,

    where L± are the losses at θ ± ε that n is built from. atol is the
    roundoff floor of the central difference (Nocedal & Wright, Numerical
    Optimization, §8.1): cancellation in L+ - L- leaves about eps_mach * |L|
    of absolute noise, which the division by 2ε amplifies. Without it, a
    correct gradient of order 1e-8 reads as a relative error of 1e-3 or more,
    and that error grows as ε shrinks.

    The return value is the worst relative error in excess of that
    allowance, max(|a - n| - atol, 0) / max(|a|, |n|), or 0 when a = n = 0.
    Callers compare it with their tolerance, which plays the role of rtol.
    A gradient smaller than atol cannot be resolved by central differences
    at this ε and always passes. A non-finite analytic or numeric gradient
    raises :class:`CheckFailure`.

    K = ``ROUNDOFF_FACTOR`` = 4. Measured at ε = 1e-5 on every scalar of the
    small test models (layouts il, sl, ml and concat time encoding) and on
    6,000 sampled scalars of ``harness.gradcheck_fixture``: where roundoff
    dominates the truncation error, |a - n| / (eps_mach * max(|L+|, |L-|) / ε)
    has a median of about 0.2, a 99th percentile of at most 1.0 and a
    maximum of 1.35. The larger ratios (up to 5.9) belong to scalars whose
    O(ε²) truncation error dominates, on gradients large enough that the
    rtol term covers it.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if num_checks < 1:
        raise ValueError(f"num_checks must be positive, got {num_checks}")
    rng = rng or np.random.default_rng(0)
    params = params.astype(np.float64)
    loss0, _ = loss_and_grads(params, cfg, batch, labels, training=False)
    if not np.isfinite(loss0):
        raise CheckFailure("non-finite loss at the check point")
    analytic = {k: g.copy() for k, g in params.grads.items()}

    names = sorted(params.values)
    sizes = np.array([params.values[k].size for k in names])
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    total = int(bounds[-1])
    chosen = rng.choice(total, size=min(num_checks, total), replace=False)

    worst = 0.0
    for flat in np.sort(chosen):
        slot = int(np.searchsorted(bounds, flat, side="right")) - 1
        name, off = names[slot], int(flat - bounds[slot])
        tensor = params.values[name]
        orig = tensor.flat[off]
        tensor.flat[off] = orig + epsilon
        up = batch_loss(params, cfg, batch, labels)
        tensor.flat[off] = orig - epsilon
        down = batch_loss(params, cfg, batch, labels)
        tensor.flat[off] = orig
        numeric = (up - down) / (2.0 * epsilon)
        a = analytic[name].flat[off]
        if not (np.isfinite(a) and np.isfinite(numeric)):
            raise CheckFailure(f"non-finite gradient at {name}[{off}]: analytic {a}, numeric {numeric}")
        atol = ROUNDOFF_FACTOR * np.finfo(float).eps * max(abs(up), abs(down)) / epsilon
        scale = max(abs(a), abs(numeric))
        if scale > 0.0:
            worst = max(worst, max(abs(a - numeric) - atol, 0.0) / scale)
    return worst


def save_checkpoint(path, params: ModelParameters, adam_state=None, config_hash: str = "", extra: dict | None = None) -> None:
    """Write a format-3 checkpoint: an uncompressed ``.npz`` archive of one
    1-D array per kind, ``param`` and, with ``adam_state``, the moments
    ``adam_m`` and ``adam_v``, each the flat array of its
    :class:`~.optim.FlatTensors` in the parameters' dtype, plus ``meta``, a
    JSON record: the format version, the config hash, the optimizer step
    ``adam_t`` (with ``adam_state``), any ``extra`` fields, and ``table``,
    the [name, shape, offset] of every tensor in the flat arrays, in order.
    :meth:`ModelParameters.restore` casts the values into a model of either
    dtype."""
    table = params.values.table
    payload = {"param": params.values.flat}
    meta = {"format_version": CHECKPOINT_VERSION, "config_hash": config_hash,
            "table": [[name, list(shape), off] for name, shape, off in table]}
    if adam_state is not None:
        if adam_state.m.table != table:
            raise ValueError("the Adam state's tensor table is not the parameters'")
        payload.update(adam_m=adam_state.m.flat, adam_v=adam_state.v.flat)
        meta["adam_t"] = adam_state.t
    if extra:
        meta.update(extra)
    payload["meta"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez(path, **payload)


def _read_npy(data: bytes) -> np.ndarray:
    """The array of one ``.npy`` member's bytes, a read-only view of them."""
    fp = io.BytesIO(data)
    version = npy_format.read_magic(fp)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"npy format version {version} is not supported")
    read_header = npy_format.read_array_header_1_0 if version == (1, 0) else npy_format.read_array_header_2_0
    shape, fortran, dtype = read_header(fp)
    if dtype.hasobject or (fortran and len(shape) > 1):
        raise ValueError(f"an array of dtype {dtype} (fortran order {fortran}) is not a checkpoint array")
    return np.frombuffer(data, dtype, count=math.prod(shape), offset=fp.tell()).reshape(shape)


def load_checkpoint(path) -> dict:
    """Read a format-3 checkpoint (see :func:`save_checkpoint`):
    ``{"values", "meta"}`` and, when it holds the moments, ``"adam"``
    (``{"m", "v", "t"}``). ``values`` and the moments are
    :class:`~.optim.FlatTensors` of named, read-only views into the array
    read from the file, one zip-member read per kind. A file that is not
    such a checkpoint (not a zip archive, truncated, another format version,
    a member missing, a table that does not fit its arrays) raises
    :class:`ConfigError`."""
    try:
        with zipfile.ZipFile(path) as zf:
            names = set(zf.namelist())
            raw = {kind: zf.read(f"{kind}.npy") for kind in ("meta", *CHECKPOINT_KINDS) if f"{kind}.npy" in names}
        arrays = {kind: _read_npy(data) for kind, data in raw.items()}
        meta = json.loads(str(arrays.pop("meta")[()])) if "meta" in arrays else None
    except (zipfile.BadZipFile, ValueError) as exc:
        raise ConfigError(f"{path}: not a readable checkpoint: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: not a checkpoint: no meta record")
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint format version {meta.get('format_version')} "
            f"(this version reads {CHECKPOINT_VERSION}); retrain to write a new checkpoint"
        )
    if set(arrays) not in ({"param"}, set(CHECKPOINT_KINDS)):
        raise ConfigError(f"{path}: a checkpoint holds param, or param, adam_m and adam_v; found {sorted(arrays)}")
    try:
        entries = [(str(name), tuple(int(d) for d in shape), int(off)) for name, shape, off in meta["table"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed tensor table: {exc!r}") from None
    table = FlatTensors.layout((name, shape) for name, shape, _ in entries)
    size = sum(math.prod(shape) for _, shape, _ in table)
    if (entries != list(table) or len({name for name, _, _ in table}) != len(table)
            or any(d < 0 for _, shape, _ in table for d in shape)
            or any(a.shape != (size,) for a in arrays.values())):
        shapes = {kind: a.shape for kind, a in arrays.items()}
        raise ConfigError(f"{path}: the tensor table does not pack its arrays: "
                          f"{len(table)} tensors of {size} scalars in all, arrays of shapes {shapes}")
    stores = {kind: FlatTensors(table, a) for kind, a in arrays.items()}
    out = {"values": stores["param"], "meta": meta}
    if "adam_m" in stores:
        out["adam"] = {"m": stores["adam_m"], "v": stores["adam_v"], "t": meta.get("adam_t", 0)}
    return out
