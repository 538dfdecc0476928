"""First-order neighbor sequences, per-batch indices, and negative sampling.

All sampling is pure given (store, rng state). Sequences are left-padded:
PAD slots occupy a contiguous prefix so the most recent interaction is always
the last token. PAD slots carry zero features and timestamp equal to the
query time, which makes their fine time offset exactly zero; downstream code
must additionally honor the validity mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LeakageError, SamplingError
from .events import EventStore

__all__ = [
    "PAD_ID",
    "NeighborSequence",
    "NeighborSampler",
    "BatchNeighborIndex",
    "NegativeSamplingStrategy",
    "NegativeSampler",
]

PAD_ID = -1


@dataclass
class NeighborSequence:
    """Length-n chronological window of one node's first-order history; PAD slots form a prefix."""

    anchor: int
    query_time: float
    ids: np.ndarray  # (n,) int64, PAD_ID marks padding
    times: np.ndarray  # (n,) float64, PAD slots hold query_time
    edge_feats: np.ndarray  # (n, d_e), PAD rows are zero
    event_ids: np.ndarray  # (n,) int64, PAD slots hold -1

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def mask(self) -> np.ndarray:
        """True on real interactions, False on PAD slots."""
        return self.ids != PAD_ID

    @cached_property
    def real_ids(self) -> np.ndarray:
        """``ids[mask]`` as a read-only view of the tail of ``ids`` (PAD is a prefix)."""
        real = self.ids[np.count_nonzero(self.ids == PAD_ID) :]
        real.flags.writeable = False
        return real


class NeighborSampler:
    """Per-node chronological adjacency supporting recent/uniform windows.

    The adjacency is built once from the store (each event contributes one
    entry to both endpoints); individual queries then cost a binary search
    plus the window size.
    """

    def __init__(self, store: EventStore):
        self.store = store
        n = store.num_events
        nodes = np.concatenate([store.src, store.tgt])
        partners = np.concatenate([store.tgt, store.src])
        times = np.concatenate([store.timestamps, store.timestamps])
        eids = np.concatenate([np.arange(n), np.arange(n)])
        order = np.lexsort((eids, times, nodes))
        self._nodes = nodes[order]
        self._partners = partners[order]
        self._times = times[order]
        self._eids = eids[order]
        counts = np.bincount(self._nodes, minlength=store.num_nodes) if len(nodes) else np.zeros(store.num_nodes, dtype=np.int64)
        self._ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    def sample(
        self,
        anchor: int,
        query_time: float,
        n: int,
        strategy: str = "recent",
        rng: np.random.Generator | None = None,
    ) -> NeighborSequence:
        if n < 1:
            raise ValueError(f"window length must be >= 1, got {n}")
        if query_time < 0:
            raise ValueError(f"query_time must be non-negative, got {query_time}")
        lo, hi = self._ptr[anchor], self._ptr[anchor + 1]
        cut = lo + np.searchsorted(self._times[lo:hi], query_time, side="left")
        if strategy == "recent":
            picked = np.arange(max(lo, cut - n), cut)
        elif strategy == "uniform":
            avail = cut - lo
            if avail <= n:
                picked = np.arange(lo, cut)
            else:
                if rng is None:
                    raise ValueError("uniform strategy needs an rng")
                picked = lo + np.sort(rng.choice(avail, size=n, replace=False))
        else:
            raise ValueError(f"unknown neighbor sampling strategy {strategy!r}")

        k = len(picked)
        ids = np.full(n, PAD_ID, dtype=np.int64)
        times = np.full(n, query_time, dtype=np.float64)
        eids = np.full(n, -1, dtype=np.int64)
        feats = np.zeros((n, self.store.d_e))
        if k:
            ids[n - k :] = self._partners[picked]
            times[n - k :] = self._times[picked]
            eids[n - k :] = self._eids[picked]
            feats[n - k :] = self.store.edge_features[self._eids[picked]]
            if times[n - k :].max() >= query_time:
                raise LeakageError(
                    f"sampled interaction at t={times[n - k:].max()} for query_time={query_time}"
                )
        return NeighborSequence(
            anchor=int(anchor),
            query_time=float(query_time),
            ids=ids,
            times=times,
            edge_feats=feats,
            event_ids=eids,
        )


@dataclass
class BatchNeighborIndex:
    """Per-batch source/target neighbor dictionaries.

    Holds the sequences of the current batch keyed by node id; later
    duplicates within a batch overwrite earlier ones. Rebuilt per batch and
    read-only afterwards.
    """

    src_index: dict[int, NeighborSequence]
    tgt_index: dict[int, NeighborSequence]


@dataclass(frozen=True)
class NegativeSamplingStrategy:
    """Which corruption scheme an evaluation run uses, plus its seed."""

    kind: str = "random"
    seed: int = 0

    _KINDS = ("random", "historical", "inductive")
    _ALIASES = {"rnd": "random", "hist": "historical", "ind": "inductive"}

    def __post_init__(self):
        kind = self._ALIASES.get(self.kind, self.kind)
        if kind not in self._KINDS:
            raise ValueError(f"unknown negative sampling strategy {self.kind!r}")
        object.__setattr__(self, "kind", kind)


class NegativeSampler:
    """Draws one corrupted target per positive, keeping src and time.

    random      - uniform over the observed target universe minus the paired
                  positive's target.
    historical  - a target the source interacted with strictly before the
                  positive's time, minus the paired target; falls back to
                  random (flagged) when that pool is empty.
    inductive   - the historical pool restricted to (src, tgt) pairs whose
                  first occurrence lies outside the training range; same
                  fallback.
    """

    def __init__(
        self,
        store: EventStore,
        strategy: NegativeSamplingStrategy,
        train_range: tuple[int, int] | None = None,
    ):
        self.store = store
        self.strategy = strategy
        self.universe = np.unique(store.tgt)
        if self.universe.size == 0:
            raise SamplingError("target universe is empty")
        self.rng = np.random.default_rng(strategy.seed)
        self.fallback_count = 0

        if strategy.kind in ("historical", "inductive"):
            if train_range is None:
                raise ValueError(f"{strategy.kind} sampling needs the train range")
            order = np.lexsort((np.arange(store.num_events), store.timestamps, store.src))
            self._hist_src = store.src[order]
            self._hist_tgt = store.tgt[order]
            self._hist_ts = store.timestamps[order]
            uniq, starts = np.unique(self._hist_src, return_index=True)
            self._src_slice = {
                int(s): (int(a), int(b))
                for s, a, b in zip(uniq, starts, list(starts[1:]) + [len(order)])
            }
        if strategy.kind == "inductive":
            lo, hi = train_range
            _, first = np.unique(np.stack([store.src, store.tgt], axis=1), axis=0, return_index=True)
            first = first[(first < lo) | (first >= hi)]
            self._new_pairs = set(zip(store.src[first].tolist(), store.tgt[first].tolist()))

    def _random_target(self, exclude: int) -> int:
        u = self.universe
        if u.size == 1 and u[0] == exclude:
            raise SamplingError("target universe contains only the positive target")
        pos = np.searchsorted(u, exclude)
        hit = pos < u.size and u[pos] == exclude
        r = int(self.rng.integers(u.size - 1 if hit else u.size))
        if hit and r >= pos:
            r += 1
        return int(u[r])

    def _pool(self, src: int, t: float, exclude: int) -> np.ndarray:
        sl = self._src_slice.get(int(src))
        if sl is None:
            return np.array([], dtype=np.int64)
        a, b = sl
        cut = a + np.searchsorted(self._hist_ts[a:b], t, side="left")
        partners = np.unique(self._hist_tgt[a:cut])
        partners = partners[partners != exclude]
        if self.strategy.kind == "inductive":
            keep = [p for p in partners if (int(src), int(p)) in self._new_pairs]
            partners = np.asarray(keep, dtype=np.int64)
        return partners

    def sample(self, positives) -> tuple[np.ndarray, np.ndarray]:
        """Return (neg_tgt, fallback_flag) arrays, one entry per positive."""
        neg = np.empty(len(positives), dtype=np.int64)
        fell_back = np.zeros(len(positives), dtype=bool)
        for i, (src, tgt, t) in enumerate(positives):
            src, tgt, t = int(src), int(tgt), float(t)
            if self.strategy.kind == "random":
                neg[i] = self._random_target(tgt)
                continue
            pool = self._pool(src, t, tgt)
            if pool.size:
                neg[i] = int(pool[self.rng.integers(pool.size)])
            else:
                neg[i] = self._random_target(tgt)
                fell_back[i] = True
                self.fallback_count += 1
        return neg, fell_back

