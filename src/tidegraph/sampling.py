"""First-order neighbor windows, per-batch indices, and negative sampling.

All sampling is pure given (store, rng state). Windows read one index of
node history, :class:`NeighborSampler`; negative pools are built from the
event columns. Windows are left-padded: PAD slots occupy a contiguous prefix
so the most recent interaction is always the last token. PAD slots hold
event id -1 and timestamp equal to the query time, which makes their fine
time offset exactly zero; featurization zeroes their features, and
downstream code must additionally honor the validity mask.
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
    """Every node's chronological history, as TGL's time-sorted adjacency.

    Each event gives one entry to both endpoints, sorted by (node, time,
    event id); ``_from_src`` marks the entries anchored at the event's
    source. A query binary-searches the node column and then the anchor's
    times, so nothing here grows with the largest node id.
    """

    def __init__(self, store: EventStore):
        n = store.num_events
        nodes = np.concatenate([store.src, store.tgt])
        times = np.concatenate([store.timestamps, store.timestamps])
        eids = np.tile(np.arange(n), 2)
        order = np.lexsort((eids, times, nodes))
        self._nodes = nodes[order]
        self._partners = np.concatenate([store.tgt, store.src])[order]
        self._times = times[order]
        self._eids = eids[order]
        self._from_src = order < n

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
        lo, hi = self._nodes.searchsorted([anchor, anchor + 1])
        cut = lo + self._times[lo:hi].searchsorted(query_time, side="left")
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
        if k:
            ids[n - k :] = self._partners[picked]
            times[n - k :] = self._times[picked]
            eids[n - k :] = self._eids[picked]
            if times[n - k :].max() >= query_time:
                raise LeakageError(
                    f"sampled interaction at t={times[n - k:].max()} for query_time={query_time}"
                )
        return NeighborSequence(
            anchor=int(anchor),
            query_time=float(query_time),
            ids=ids,
            times=times,
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

    Each positive takes one bounded draw, in batch order, into its pool
    sorted by id or into the universe: one ``rng.integers`` call per batch,
    none if it raises. The pools are built once from the event columns:
    each (source, target) pair's first event, ordered by (source, event id),
    which is (source, time) order since events are in time order.
    """

    def __init__(
        self,
        store: EventStore,
        strategy: NegativeSamplingStrategy,
        train_range: tuple[int, int] | None = None,
    ):
        self.strategy = strategy
        self.universe = np.unique(store.tgt)
        if self.universe.size == 0:
            raise SamplingError("target universe is empty")
        self.rng = np.random.default_rng(strategy.seed)
        self.fallback_count = 0
        if strategy.kind == "random":
            return
        if train_range is None:
            raise ValueError(f"{strategy.kind} sampling needs the train range")
        src, tgt = store.src, store.tgt
        # lexsort is stable, so each (source, target) run starts at the pair's first event
        by_pair = np.lexsort((tgt, src))
        s, t = src[by_pair], tgt[by_pair]
        first = np.ones(len(by_pair), dtype=bool)
        first[1:] = (s[1:] != s[:-1]) | (t[1:] != t[:-1])
        eids = by_pair[first]
        if strategy.kind == "inductive":
            lo, hi = train_range
            eids = eids[(eids < lo) | (eids >= hi)]
        eids = eids[np.lexsort((eids, src[eids]))]
        self._nodes = src[eids]
        self._key = np.empty(len(eids), dtype=[("node", np.int64), ("time", np.float64)])
        self._key["node"], self._key["time"] = self._nodes, store.timestamps[eids]
        self._ranks = self.universe.searchsorted(tgt[eids])  # every partner here is a target

    def _pools(self, src, t, exclude) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every positive's pool as ranks in the universe, its ``exclude``
        rank left out: one flat array with each pool sorted, plus
        per-positive starts and sizes."""
        lo = self._nodes.searchsorted(src)
        q = np.empty(len(src), dtype=self._key.dtype)
        q["node"], q["time"] = src, t
        lens = self._key.searchsorted(q) - lo
        owner = np.repeat(np.arange(len(src)), lens)
        ranks = self._ranks[np.arange(lens.sum()) + np.repeat(lo - (np.cumsum(lens) - lens), lens)]
        keep = ranks != exclude[owner]
        owner, ranks = owner[keep], ranks[keep]
        sizes = np.bincount(owner, minlength=len(src))
        u = self.universe.size
        return np.sort(owner * u + ranks) % u, np.cumsum(sizes) - sizes, sizes

    def sample(self, positives) -> tuple[np.ndarray, np.ndarray]:
        """Return (neg_tgt, fallback_flag) arrays, one entry per positive."""
        cols = tuple(zip(*positives)) or ((), (), ())
        src = np.array(cols[0], dtype=np.int64)
        tgt = np.array(cols[1], dtype=np.int64)
        t = np.array(cols[2], dtype=np.float64)
        u = self.universe
        at = u.searchsorted(tgt)
        hit = u[np.minimum(at, u.size - 1)] == tgt
        if self.strategy.kind == "random":
            pool = starts = sizes = np.zeros(len(tgt), dtype=np.int64)
        else:
            pool, starts, sizes = self._pools(src, t, np.where(hit, at, -1))
        rand = sizes == 0
        highs = np.where(rand, u.size - hit, sizes)
        if np.any(highs == 0):
            raise SamplingError("target universe contains only the positive target")
        r = self.rng.integers(highs)
        rank = r + (hit & (r >= at))
        rank[~rand] = pool[starts[~rand] + r[~rand]]
        fell_back = rand & (self.strategy.kind != "random")
        self.fallback_count += int(np.count_nonzero(fell_back))
        return u[rank], fell_back
