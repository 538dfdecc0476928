"""Temporal, interaction, and season-trend encoders for neighbor sequences.

Three feature families are produced per token of a sampled neighbor window:

* mixed-granularity time features: a cosine expansion of the fine relative
  offset plus a coarse calendar-bucket term shared by every offset that falls
  into the same segment;
* bidirectional interaction counts: per-token occurrence pairs obtained after
  cross-reconstructing the source and target windows through the per-batch
  neighbor dictionaries, so second-order context is reached with purely
  first-order sampling (linear cost in the window length);
* season/trend components of the normalized neighbor-index signal, split by a
  moving average whose padding preserves the window length.

Everything here is a pure function of its inputs; learned projections of
these features live with the model parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import ConfigError, LeakageError
from .sampling import PAD_ID, BatchNeighborIndex, NeighborSequence

__all__ = [
    "GRANULARITY_SECONDS",
    "MteConfig",
    "encode_fine_time",
    "encode_coarse_time",
    "mix_temporal",
    "ReconstructedSequence",
    "bie_reconstruct",
    "bie_counts",
    "SeasonTrend",
    "ste_decompose",
]

# Calendar divisors in seconds. Weekly is hours*days*sec; the monthly and
# yearly divisors deliberately retain the 7x factor of the weekly formula
# (override via MteConfig.divisor_override for conventional month/year spans).
GRANULARITY_SECONDS = {
    "weekly": 24 * 7 * 3600,
    "monthly": 24 * 7 * 30 * 3600,
    "yearly": 24 * 7 * 365 * 3600,
}

# Largest residual delta_t_max * alpha**(-(d_t-1)/beta) that validate_decay
# accepts as "the slowest frequency has died out".
DECAY_TOL = 1e-6


@dataclass
class MteConfig:
    """Hyperparameters of the mixed-granularity time encoder.

    The cosine frequencies are ``alpha ** (-(j-1)/beta)`` for j = 1..d_t;
    both default to sqrt(d_t). ``validate_decay`` enforces that the slowest
    frequency has effectively died out at the dataset's maximum offset, which
    is what keeps distinct offsets distinguishable.
    """

    d_t: int = 100
    alpha: float | None = None
    beta: float | None = None
    granularity: str = "weekly"
    r_segments: int = 1
    combine: str = "sum"
    divisor_override: float | None = None

    def __post_init__(self):
        if self.d_t < 1:
            raise ConfigError(f"d_t must be >= 1, got {self.d_t}")
        if self.alpha is None:
            self.alpha = sqrt(self.d_t)
        if self.beta is None:
            self.beta = sqrt(self.d_t)
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha and beta must be positive")
        if self.granularity not in GRANULARITY_SECONDS:
            raise ConfigError(f"unknown granularity {self.granularity!r}")
        if self.r_segments < 1:
            raise ConfigError(f"r_segments must be >= 1, got {self.r_segments}")
        if self.combine not in ("sum", "concat"):
            raise ConfigError(f"combine must be 'sum' or 'concat', got {self.combine!r}")
        if self.divisor_override is not None and self.divisor_override <= 0:
            raise ConfigError("divisor_override must be positive")

    @property
    def omega(self) -> np.ndarray:
        j = np.arange(self.d_t, dtype=np.float64)
        return np.asarray(self.alpha, dtype=np.float64) ** (-j / self.beta)

    @property
    def divisor(self) -> float:
        if self.divisor_override is not None:
            return float(self.divisor_override)
        return float(GRANULARITY_SECONDS[self.granularity])

    @property
    def output_dim(self) -> int:
        return self.d_t if self.combine == "sum" else 2 * self.d_t

    def validate_decay(self, delta_t_max: float) -> None:
        """Reject configs whose slowest frequency has not decayed at delta_t_max."""
        residual = delta_t_max * float(self.alpha) ** (-(self.d_t - 1) / self.beta)
        if residual > DECAY_TOL:
            needed = (delta_t_max / DECAY_TOL) ** (self.beta / (self.d_t - 1)) if self.d_t > 1 else np.inf
            raise ConfigError(
                f"time-encoder decay condition violated: delta_t_max * alpha**(-(d_t-1)/beta) "
                f"= {residual:.3e} > {DECAY_TOL:.1e}; raise alpha above {needed:.3f} "
                f"or lower beta"
            )


def encode_fine_time(delta_t, cfg: MteConfig) -> np.ndarray:
    """Cosine expansion of fine relative offsets; shape ``(..., d_t)``.

    Component j equals ``cos(alpha**(-(j-1)/beta) * delta_t)``; an offset of
    zero therefore maps to the all-ones vector.
    """
    delta = np.asarray(delta_t, dtype=np.float64)
    if np.any(delta < 0):
        raise LeakageError("negative fine offset: history must precede the query time")
    return np.cos(delta[..., None] * cfg.omega)


def encode_coarse_time(delta_t, cfg: MteConfig):
    """Calendar bucket(s) of the offset and the matching constant vector term.

    Returns ``(bucket, term)`` where ``bucket = floor(delta_t / divisor)`` and
    ``term`` broadcasts ``bucket / R`` over d_t components.
    """
    delta = np.asarray(delta_t, dtype=np.float64)
    if np.any(delta < 0):
        raise LeakageError("negative coarse offset: history must precede the query time")
    bucket = np.floor_divide(delta, cfg.divisor).astype(np.int64)
    term = np.broadcast_to(
        (bucket.astype(np.float64) / cfg.r_segments)[..., None], bucket.shape + (cfg.d_t,)
    ).copy()
    if bucket.ndim == 0:
        return int(bucket), term
    return bucket, term


def mix_temporal(fine: np.ndarray, coarse_term: np.ndarray, combine: str = "sum") -> np.ndarray:
    """Merge the fine and coarse terms, elementwise or by concatenation."""
    if fine.shape != coarse_term.shape:
        raise ValueError(f"shape mismatch: fine {fine.shape} vs coarse {coarse_term.shape}")
    if combine == "sum":
        return fine + coarse_term
    if combine == "concat":
        return np.concatenate([fine, coarse_term], axis=-1)
    raise ConfigError(f"combine must be 'sum' or 'concat', got {combine!r}")


@dataclass
class ReconstructedSequence:
    """A neighbor window after cross-side reconstruction.

    ``replacements`` maps token positions to the id multiset (as an array)
    that the token was expanded into by a successful dictionary lookup;
    untouched positions keep their own id. The merged multiset is what the
    opposite side's tokens are counted against.
    """

    base: NeighborSequence
    replacements: dict[int, np.ndarray]
    _multiset: Counter | None = field(default=None, repr=False, compare=False)

    def id_multiset(self) -> Counter:
        """Merged non-PAD id multiset of the reconstructed window (cached)."""
        if self._multiset is None:
            counts: Counter = Counter()
            ids = self.base.ids
            for k in range(len(ids)):
                if ids[k] == PAD_ID:
                    continue
                rep = self.replacements.get(k)
                if rep is None:
                    counts[int(ids[k])] += 1
                else:
                    for v in rep:
                        counts[int(v)] += 1
            self._multiset = counts
        return self._multiset


def _lookup_ids(index: dict[int, NeighborSequence], node: int) -> np.ndarray | None:
    seq = index.get(node)
    if seq is None:
        return None
    real = seq.ids[seq.ids != PAD_ID]
    return real.copy()


def bie_reconstruct(
    src_seq: NeighborSequence,
    tgt_seq: NeighborSequence,
    index: BatchNeighborIndex,
) -> tuple[ReconstructedSequence, ReconstructedSequence]:
    """Cross-reconstruct a pair of windows through the batch dictionaries.

    Tokens whose id occurs in exactly one of the two windows (and is not one
    of the two anchors) are looked up on the opposite side's dictionary:
    source-window tokens in the target dictionary and vice versa. A hit
    replaces the token by the retrieved window's neighbor ids; a miss leaves
    it unchanged. Anchors, PAD slots, and shared neighbors are never touched.
    """
    src_ids = set(int(v) for v in src_seq.ids[src_seq.ids != PAD_ID])
    tgt_ids = set(int(v) for v in tgt_seq.ids[tgt_seq.ids != PAD_ID])
    shared = src_ids & tgt_ids
    anchors = {src_seq.anchor, tgt_seq.anchor}

    def reconstruct(seq: NeighborSequence, opposite: dict[int, NeighborSequence]) -> ReconstructedSequence:
        replacements: dict[int, np.ndarray] = {}
        for k, v in enumerate(seq.ids):
            v = int(v)
            if v == PAD_ID or v in anchors or v in shared:
                continue
            retrieved = _lookup_ids(opposite, v)
            if retrieved is not None:
                replacements[k] = retrieved
        return ReconstructedSequence(base=seq, replacements=replacements)

    return reconstruct(src_seq, index.tgt_index), reconstruct(tgt_seq, index.src_index)


def bie_counts(
    src_new: ReconstructedSequence, tgt_new: ReconstructedSequence
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token (source-side, target-side) interaction counts, shape (n, 2).

    A token's own-side count comes from its original window; its cross-side
    count comes from the opposite window *after* reconstruction, which is
    where the widened receptive field pays off. The two anchor nodes are
    special-cased to carry the pair's mutual counts, and PAD slots are (0,0).
    """
    src_seq, tgt_seq = src_new.base, tgt_new.base
    src_orig = src_seq.id_counts()
    tgt_orig = tgt_seq.id_counts()
    src_recon = src_new.id_multiset()
    tgt_recon = tgt_new.id_multiset()
    anchors = {src_seq.anchor, tgt_seq.anchor}
    mutual = (src_orig.get(tgt_seq.anchor, 0), tgt_orig.get(src_seq.anchor, 0))

    def count_side(seq: NeighborSequence, own: Counter, cross: Counter) -> np.ndarray:
        out = np.zeros((seq.n, 2), dtype=np.int64)
        for k, v in enumerate(seq.ids):
            v = int(v)
            if v == PAD_ID:
                continue
            if v in anchors:
                out[k] = mutual
            else:
                out[k] = (own.get(v, 0), cross.get(v, 0))
        return out

    i_src = count_side(src_seq, src_orig, tgt_recon)
    i_tgt = count_side(tgt_seq, src_recon, tgt_orig)
    return i_src, i_tgt


@dataclass
class SeasonTrend:
    """Season/trend split of a window signal.

    The split is lossless: ``seasonal`` is bit-for-bit the input minus the
    trend, so re-summing the parts recovers the input to within a single
    floating-point rounding.
    """

    trend: np.ndarray
    seasonal: np.ndarray
    window: int


def ste_decompose(q: np.ndarray, window: int) -> SeasonTrend:
    """Split a signal into moving-average trend and seasonal residual.

    The average runs along the second-to-last axis with replicate edge
    padding of (window-1)/2 on each side, so the output keeps the input
    length; the seasonal part is the exact elementwise remainder.
    """
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"decomposition window must be a positive odd integer, got {window}")
    q = np.asarray(q, dtype=np.float64)
    if q.ndim < 2:
        raise ValueError("signal must have shape (..., n, d)")
    if window > q.shape[-2]:
        raise ConfigError(f"window {window} exceeds sequence length {q.shape[-2]}")
    half = (window - 1) // 2
    pad = [(0, 0)] * q.ndim
    pad[-2] = (half, half)
    padded = np.pad(q, pad, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window, axis=-2)
    trend = windows.mean(axis=-1)
    return SeasonTrend(trend=trend, seasonal=q - trend, window=window)

