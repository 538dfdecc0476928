"""The benchmark's workloads: corpus, layout and loop of each.

Sizes are chosen so that one round (the fixed set of batches that is timed
as a unit) takes a few seconds on a 2-core machine, and a run of 24 s holds
several rounds. The model is the default ``ModelConfig`` apart from the
layout and the time-encoder decay, which is solved from the corpus duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from perfbench.corpus import CorpusSpec

# Chronological split of the program's default SplitSpec (70/15/15),
# recomputed here so that the positive counts can be checked.
TRAIN_FRAC, VAL_FRAC = 0.70, 0.15
# Time-encoder shape: the defaults d_t = 100 and beta = sqrt(d_t).
D_T, BETA, DECAY_TOL = 100, 10.0, 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    layout: str  # "il" or "ml"
    mode: str  # "train" or "eval"
    batch_size: int
    nss: str  # negative sampler of the evaluations
    epochs: int = 0
    lr: float = 1e-3
    ap_floor: float | None = None  # test AP the trained model must reach

    def split(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        n = self.corpus.num_events // self.corpus.num_sources * self.corpus.num_sources
        a = int(math.floor(n * TRAIN_FRAC))
        b = int(math.floor(n * (TRAIN_FRAC + VAL_FRAC)))
        return (0, a), (a, b), (b, n)

    def round_shape(self) -> tuple[int, int]:
        """(scoring batches, candidate pairs) of one round.

        A training round runs ``epochs`` epochs, each a pass over the train
        split plus a validation pass, then one test pass. An evaluation round
        is one test pass. Each positive is scored with one negative.
        """
        train, val, test = self.split()

        def passes(rng):
            size = rng[1] - rng[0]
            return math.ceil(size / self.batch_size), 2 * size

        parts = [passes(test)]
        if self.mode == "train":
            parts += [passes(train), passes(val)] * self.epochs
        return sum(p[0] for p in parts), sum(p[1] for p in parts)


# The cycle corpus is small so that a whole training run (two epochs, the
# validation passes and the test pass) is one round of about 6 s. The AP
# floors are derived in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cycle-train",
            corpus=CorpusSpec("cycle", num_sources=20, num_targets=60, num_events=500, d_e=16),
            layout="il", mode="train", batch_size=50, nss="random", epochs=2,
            ap_floor=0.75,
        ),
        Workload(
            name="cycle-train-ml",
            corpus=CorpusSpec("cycle", num_sources=20, num_targets=60, num_events=500, d_e=16),
            layout="ml", mode="train", batch_size=50, nss="random", epochs=2,
            ap_floor=0.6,
        ),
        Workload(
            name="hotnode-eval",
            corpus=CorpusSpec("hotnode", num_sources=20, num_targets=41, num_events=4000, d_e=0),
            layout="il", mode="eval", batch_size=100, nss="historical",
        ),
    )
}


def decay_alpha(duration_seconds: float) -> float:
    """Smallest alpha (to 1e-2) whose slowest frequency has decayed at the
    corpus duration: duration * alpha**(-(d_t-1)/beta) <= DECAY_TOL."""
    exact = (duration_seconds / DECAY_TOL) ** (BETA / (D_T - 1))
    return math.ceil(exact * 100.0) / 100.0
