"""Seeded event corpora for the benchmark, written in the program's file format.

The program reads only the files written here: an event CSV with header
``src,tgt,ts,f0..f{k-1}`` and a JSON manifest with the same stem. Both
generators are written in the benchmark, not taken from ``tidegraph.synth``,
so a change to the program cannot change its own inputs.

* ``cycle``: every source walks through a private triple of targets in a
  fixed order, one event every third of a week. A source's next target is
  therefore fixed by its last one, which makes link prediction solvable and
  lets the benchmark set a floor on the test AP.
* ``hotnode``: every source repeats the block [hot, signature, cold, cold],
  so one target takes a quarter of all events and sits in almost every
  window.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WEEK_SECONDS = 7 * 24 * 3600.0


@dataclass(frozen=True)
class CorpusSpec:
    kind: str  # "cycle" or "hotnode"
    num_sources: int
    num_targets: int
    num_events: int
    d_e: int


@dataclass
class Corpus:
    spec: CorpusSpec
    src: np.ndarray
    tgt: np.ndarray
    ts: np.ndarray
    feats: np.ndarray  # (N, d_e)

    @property
    def num_nodes(self) -> int:
        return self.spec.num_sources + self.spec.num_targets

    @property
    def duration_seconds(self) -> float:
        return float(self.ts[-1] - self.ts[0])

    @property
    def r_segments(self) -> int:
        """Calendar segments spanned by the stream at weekly granularity."""
        return max(1, int(np.ceil(self.duration_seconds / WEEK_SECONDS)))


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    rng = np.random.default_rng([seed, 0 if spec.kind == "cycle" else 1])
    s_count, t_count = spec.num_sources, spec.num_targets
    per_source = spec.num_events // s_count
    src = np.repeat(np.arange(s_count), per_source)
    k = np.tile(np.arange(per_source), s_count)
    if spec.kind == "cycle":
        step = WEEK_SECONDS / 3.0
        triples = s_count + np.stack(
            [rng.permutation(t_count)[:3] for _ in range(s_count)]
        )
        tgt = triples[src, k % 3]
    elif spec.kind == "hotnode":
        step = WEEK_SECONDS / 7.0
        hot = s_count
        cold = np.arange(s_count + 1, s_count + t_count)
        signature = rng.choice(cold, size=s_count)
        block = k % 4
        tgt = np.where(block == 0, hot, signature[src])
        rand_rows = block >= 2
        tgt[rand_rows] = rng.choice(cold, size=int(rand_rows.sum()))
    else:
        raise ValueError(f"unknown corpus kind {spec.kind!r}")
    phases = rng.uniform(0.0, step, size=s_count)
    ts = phases[src] + k * step
    order = np.argsort(ts, kind="stable")
    feats = rng.normal(size=(len(src), spec.d_e))
    return Corpus(spec, src[order], tgt[order], ts[order], feats[order])


def write(corpus: Corpus, path: Path) -> Path:
    """Write the event CSV and its manifest; return the CSV path."""
    path = Path(path)
    d_e = corpus.spec.d_e
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "tgt", "ts"] + [f"f{j}" for j in range(d_e)])
        for i in range(len(corpus.src)):
            writer.writerow(
                [int(corpus.src[i]), int(corpus.tgt[i]), repr(float(corpus.ts[i]))]
                + [repr(float(v)) for v in corpus.feats[i]]
            )
    manifest = {
        "num_nodes": corpus.num_nodes,
        "d_n": 0,
        "d_e": d_e,
        "bipartite": True,
        "granularity": "weekly",
        "r_segments": corpus.r_segments,
        "duration_seconds": corpus.duration_seconds,
    }
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path
