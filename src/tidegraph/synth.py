"""Synthetic bipartite event streams with known structure.

Two generators back the end-to-end checks:

* ``generate_cycle_corpus`` - every source walks deterministically through a
  personal triple of targets, one full lap per week, so the next target is a
  pure function of the source's history. A rule-based predictor
  (:func:`cycle_oracle_scores`) is essentially perfect on this stream, which
  certifies that the learning task is solvable before any model runs.
* ``generate_hotnode_corpus`` - one target participates in an order of
  magnitude more interactions than any other node and is also the anchor of
  the stream's only predictable transition, giving attention a reason to
  concentrate on it.
"""

from __future__ import annotations

import numpy as np

from .events import DatasetManifest, EventStore

__all__ = [
    "generate_cycle_corpus",
    "generate_hotnode_corpus",
    "cycle_oracle_scores",
]

WEEK_SECONDS = 7 * 24 * 3600.0


def generate_cycle_corpus(
    num_sources: int = 50,
    num_targets: int = 150,
    num_events: int = 20_000,
    seed: int = 0,
    d_e: int = 0,
) -> tuple[EventStore, DatasetManifest]:
    """Bipartite stream where each source cycles through 3 targets weekly.

    Sources are ids ``0..num_sources-1``; targets follow. Source s emits one
    event every week/3 seconds (with a per-source phase), visiting its triple
    in a fixed cyclic order, so the full triple repeats with weekly period.
    """
    _check_events(num_events, num_sources)
    rng = np.random.default_rng(seed)
    triples = np.array(
        [rng.choice(num_targets, size=3, replace=False) for _ in range(num_sources)]
    ) + num_sources

    per_source = num_events // num_sources
    step = WEEK_SECONDS / 3.0
    phases = rng.uniform(0, step, size=num_sources)

    src = np.repeat(np.arange(num_sources), per_source)
    k = np.tile(np.arange(per_source), num_sources)
    ts = phases[src] + k * step
    tgt = triples[src, k % 3]

    order = np.argsort(ts, kind="stable")
    src, tgt, ts = src[order], tgt[order], ts[order]
    feats = rng.normal(size=(len(src), d_e)) if d_e else np.zeros((len(src), 0))

    store = EventStore(src, tgt, ts, feats, num_nodes=num_sources + num_targets, bipartite=True)
    return store, _weekly_manifest(store)


def _check_events(num_events: int, num_sources: int) -> None:
    """Each source emits ``num_events // num_sources`` events, so fewer than
    ``num_sources`` would make an empty corpus."""
    if num_events < num_sources:
        raise ValueError(f"num_events must be at least num_sources ({num_sources}), got {num_events}")


def _weekly_manifest(store: EventStore) -> DatasetManifest:
    """A bipartite store's manifest, with weekly segments spanning its duration."""
    return DatasetManifest(
        num_nodes=store.num_nodes, d_e=store.d_e, bipartite=True, granularity="weekly",
        r_segments=max(1, int(np.ceil(store.duration_seconds / WEEK_SECONDS))),
        duration_seconds=store.duration_seconds,
    )


def cycle_oracle_scores(store: EventStore, positives, candidates) -> np.ndarray:
    """Score candidates with the cycle rule learned from the raw stream.

    For each query (src, t), the successor map observed in src's history
    before t predicts the next target; a candidate scores 1.0 when it matches
    that prediction, 0.5 when the source has no usable history, 0.0 otherwise.
    The predictor reads nothing but past events, so it is a legitimate,
    model-free reference for any learner on this corpus.
    """
    by_src: dict[int, list[tuple[float, int]]] = {}
    for s, t, stamp in zip(store.src, store.tgt, store.timestamps):
        by_src.setdefault(int(s), []).append((float(stamp), int(t)))

    scores = np.empty(len(candidates))
    for i, ((s, _tgt, stamp), cand) in enumerate(zip(positives, candidates)):
        history = [x for x in by_src.get(int(s), []) if x[0] < float(stamp)]
        if len(history) < 2:
            scores[i] = 0.5
            continue
        successor: dict[int, int] = {}
        for (_, a), (_, b) in zip(history[:-1], history[1:]):
            successor[a] = b
        last = history[-1][1]
        predicted = successor.get(last)
        if predicted is None:
            scores[i] = 0.5
        else:
            scores[i] = 1.0 if int(cand) == predicted else 0.0
    return scores


def generate_hotnode_corpus(
    num_sources: int = 20,
    num_cold_targets: int = 40,
    num_events: int = 4_000,
    seed: int = 0,
) -> tuple[EventStore, DatasetManifest, int]:
    """Bipartite stream with one target at roughly 10x everyone's frequency.

    Each source repeats the block [hot, signature, random-cold, random-cold],
    so the hot target absorbs a quarter of all events while every cold target
    stays near 1/40 of the remainder, and the only deterministic transition
    in the stream (hot -> signature) hinges on spotting the hot node in the
    history. Returns the store, manifest, and the hot node id.
    """
    _check_events(num_events, num_sources)
    rng = np.random.default_rng(seed)
    hot = num_sources  # first target id
    cold = np.arange(num_sources + 1, num_sources + 1 + num_cold_targets)
    signature = rng.choice(cold, size=num_sources, replace=True)

    per_source = num_events // num_sources
    step = WEEK_SECONDS / 7.0
    phases = rng.uniform(0, step, size=num_sources)

    src = np.repeat(np.arange(num_sources), per_source)
    k = np.tile(np.arange(per_source), num_sources)
    ts = phases[src] + k * step
    tgt = np.empty(len(src), dtype=np.int64)
    pos_in_block = k % 4
    tgt[pos_in_block == 0] = hot
    tgt[pos_in_block == 1] = signature[src[pos_in_block == 1]]
    rand_rows = pos_in_block >= 2
    tgt[rand_rows] = rng.choice(cold, size=int(rand_rows.sum()))

    order = np.argsort(ts, kind="stable")
    src, tgt, ts = src[order], tgt[order], ts[order]
    num_nodes = num_sources + 1 + num_cold_targets
    store = EventStore(src, tgt, ts, num_nodes=num_nodes, bipartite=True)
    return store, _weekly_manifest(store), int(hot)
