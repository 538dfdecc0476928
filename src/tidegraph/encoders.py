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

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

from .errors import ConfigError, LeakageError
from .sampling import BatchNeighborIndex, NeighborSequence

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

# Offsets per chunk of encode_fine_time's two float64 buffers (200 KB each at d_t = 100).
FINE_TIME_CHUNK = 256

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

    def smallest_alpha(self, delta_t_max: float) -> float:
        """The smallest alpha, to 0.01, that passes :meth:`validate_decay` at
        ``delta_t_max``; the current alpha where every alpha passes (a span
        within the tolerance) or none does (``d_t`` = 1)."""
        if self.d_t == 1 or delta_t_max <= DECAY_TOL:
            return float(self.alpha)
        exact = (delta_t_max / DECAY_TOL) ** (self.beta / (self.d_t - 1))
        return ceil(exact * 100.0) / 100.0


def encode_fine_time(delta_t, cfg: MteConfig) -> np.ndarray:
    """Cosine expansion of fine relative offsets; float32, shape ``(..., d_t)``.

    Component j equals ``cos(alpha**(-(j-1)/beta) * delta_t)``; an offset of
    zero therefore maps to the all-ones vector. The argument is formed and
    reduced by 2π in float64, where a float32 ulp of an offset of years
    would be seconds; the reduced argument lies in [-π, π], so its float32
    cosine is within 2**-21 of the float64 one. It runs in chunks of
    ``FINE_TIME_CHUNK`` offsets, in float64 buffers whose pages stay resident
    from call to call. ``featurize_pairs`` calls this once per batch on the
    batch's distinct offsets.
    """
    delta = np.asarray(delta_t, dtype=np.float64)
    if np.any(delta < 0):
        raise LeakageError("negative fine offset: history must precede the query time")
    omega = cfg.omega
    out = np.empty(delta.shape + (cfg.d_t,), np.float32)
    offsets, rows = delta.reshape(-1, 1), out.reshape(-1, cfg.d_t)
    work = np.empty((2, min(FINE_TIME_CHUNK, len(rows)), cfg.d_t))
    for lo in range(0, len(rows), FINE_TIME_CHUNK):
        x, t = work[:, :min(FINE_TIME_CHUNK, len(rows) - lo)]
        np.multiply(offsets[lo:lo + len(x)], omega, out=x)
        # x -= rint(x / 2π) * 2π
        np.rint(np.divide(x, 2 * np.pi, out=t), out=t)
        x -= np.multiply(t, 2 * np.pi, out=t)
        rows[lo:lo + len(x)] = x
    return np.cos(out, out=out)


def encode_coarse_time(delta_t, cfg: MteConfig):
    """Calendar bucket(s) of the offset and the matching constant vector term.

    Returns ``(bucket, term)`` where ``bucket = floor(delta_t / divisor)`` and
    ``term`` is a read-only view broadcasting ``bucket / R`` over d_t
    components.
    """
    delta = np.asarray(delta_t, dtype=np.float64)
    if np.any(delta < 0):
        raise LeakageError("negative coarse offset: history must precede the query time")
    bucket = np.floor_divide(delta, cfg.divisor).astype(np.int64)
    term = np.broadcast_to(
        (bucket.astype(np.float64) / cfg.r_segments)[..., None], bucket.shape + (cfg.d_t,)
    )
    if bucket.ndim == 0:
        return int(bucket), term
    return bucket, term


def mix_temporal(fine: np.ndarray, coarse_term: np.ndarray, combine: str = "sum") -> np.ndarray:
    """Merge the fine and coarse terms, elementwise or by concatenation; the
    sum is ``(fine + coarse_term).astype(fine.dtype)``, rounded once."""
    if fine.shape != coarse_term.shape:
        raise ValueError(f"shape mismatch: fine {fine.shape} vs coarse {coarse_term.shape}")
    if combine == "sum":
        return np.add(fine, coarse_term, out=np.empty(fine.shape, fine.dtype), casting="same_kind")
    if combine == "concat":
        return np.concatenate([fine, coarse_term], axis=-1)
    raise ConfigError(f"combine must be 'sum' or 'concat', got {combine!r}")


@dataclass
class ReconstructedSequence:
    """A neighbor window after cross-side reconstruction.

    ``replacements`` maps token positions to the real neighbor ids that the
    token was expanded into by a successful dictionary lookup (the retrieved
    window's read-only ``real_ids``); untouched positions keep their own id.
    The merged ids, the kept real tokens followed by every replacement array,
    are what the opposite side's tokens are counted against.
    """

    base: NeighborSequence
    replacements: dict[int, np.ndarray]

    def merged_ids(self) -> np.ndarray:
        """Non-PAD ids of the reconstructed window, as one array."""
        real = self.base.real_ids
        kept = [v for k, v in enumerate(real.tolist(), self.base.n - real.size) if k not in self.replacements]
        return np.concatenate([np.array(kept, dtype=np.int64), *self.replacements.values()])


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
    src_list, tgt_list = src_seq.real_ids.tolist(), tgt_seq.real_ids.tolist()
    skip = (set(src_list) & set(tgt_list)) | {src_seq.anchor, tgt_seq.anchor}

    def reconstruct(seq: NeighborSequence, ids: list[int], opposite: dict[int, NeighborSequence]):
        slots = enumerate(ids, start=seq.n - len(ids))  # window positions of the real ids
        replacements = {k: opposite[v].real_ids for k, v in slots if v not in skip and v in opposite}
        return ReconstructedSequence(base=seq, replacements=replacements)

    return reconstruct(src_seq, src_list, index.tgt_index), reconstruct(tgt_seq, tgt_list, index.src_index)


def bie_counts(
    src_new: ReconstructedSequence, tgt_new: ReconstructedSequence
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token (source-side, target-side) interaction counts, (n, 2) per window.

    A token's own-side count is how often its id occurs in its own window's
    real ids; its cross-side count, in the opposite window's merged ids
    *after* reconstruction, which is where the widened receptive field pays
    off. Tokens equal to either anchor carry the pair's mutual counts (how
    often each anchor occurs in the other one's window). Node ids lie in
    [0, 2**61), PAD is -1. Pool j's id v is keyed ``j * span + v + 1``; the
    four pools are sorted as one array and each token counted by two
    ``np.searchsorted`` lookups, O(m log m) in the pools' size m whatever
    the id range. PAD keys are in no pool, so PAD slots come out (0, 0).
    """
    src_seq, tgt_seq = src_new.base, tgt_new.base
    pools = (src_seq.real_ids, tgt_new.merged_ids(), src_new.merged_ids(), tgt_seq.real_ids)
    flat = np.concatenate(pools)
    shift = np.arange(4) * (max(flat.max(initial=-1), src_seq.anchor, tgt_seq.anchor) + 2) + 1
    keys = np.sort(flat + shift.repeat([p.size for p in pools]))
    at = np.concatenate([np.add.outer(src_seq.ids, shift[:2]), np.add.outer(tgt_seq.ids, shift[2:]),
                         [[tgt_seq.anchor + shift[0], src_seq.anchor + shift[3]]]])  # last row: mutual counts
    counts = np.searchsorted(keys, at, "right") - np.searchsorted(keys, at, "left")
    i_src, i_tgt, mutual = counts[: src_seq.n], counts[src_seq.n : -1], counts[-1]
    for ids, out in ((src_seq.ids, i_src), (tgt_seq.ids, i_tgt)):
        out[(ids == src_seq.anchor) | (ids == tgt_seq.anchor)] = mutual
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

