"""Wrapping the program's public functions from outside, and the span tracer.

A function is wrapped where its caller looks it up: a name bound by
``from ... import`` is replaced in the importing module (for example
``tidegraph.harness.featurize_pairs``), and a method on its class. Wrappers
are removed when the ``Patches`` context ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict


class Patches:
    """Replace attributes by wrappers and put the originals back on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def after(self, owner, attr, hook):
        """Call ``hook(result, *args, **kwargs)`` after every call."""
        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(result, *args, **kwargs)
                return result
            return wrapper
        self.wrap(owner, attr, make)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# --------------------------------------------------------------- FLOP count


def msa_flops(x_shape, heads, d_head, backward=False) -> float:
    """Matrix-product FLOPs of masked multi-head attention on (B, L, h) input."""
    *lead, length, h = x_shape
    rows = float(length)
    for d in lead:
        rows *= d
    per_head = 3 * 2 * rows * h * d_head + 2 * 2 * rows * length * d_head
    fwd = heads * per_head + 2 * rows * h * h
    return 2 * fwd if backward else fwd


def ffn_flops(x_shape, inner, backward=False) -> float:
    """Matrix-product FLOPs of the two-layer FFN of width ``inner``."""
    *lead, h = x_shape
    rows = 1.0
    for d in lead:
        rows *= d
    fwd = 2 * 2 * rows * h * inner
    return 2 * fwd if backward else fwd


# ------------------------------------------------------------------- tracer


class Tracer:
    """Nested spans kept in memory, plus per-batch self time and counters.

    A span is ``[name, start, end, parent, batch]``. A batch (one training
    step or one evaluation batch) starts when the negative sampler is
    called; ``train`` and ``evaluate_link_prediction`` open and close no
    batch, so their set-up is kept out of the per-batch figures. Self time is
    credited to the innermost open span at every span boundary, so the self
    times of all spans add up to the time the root spans cover.
    """

    BATCH_START = "sampling.negative"
    OUTSIDE_BATCH = ("harness.train", "harness.evaluate")

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.batch = None
        self.num_batches = 0
        self.self_time: dict[tuple, float] = defaultdict(float)
        self.counts: dict[tuple, float] = defaultdict(float)
        self._last = 0.0

    def _tick(self) -> float:
        now = self.clock()
        if self.stack:
            self.self_time[(self.spans[self.stack[-1]][0], self.batch)] += now - self._last
        self._last = now
        return now

    def enter(self, name: str) -> int:
        now = self._tick()
        if name == self.BATCH_START:
            self.batch = self.num_batches
            self.num_batches += 1
        elif name in self.OUTSIDE_BATCH:
            self.batch = None
        self.spans.append([name, now, None, self.stack[-1] if self.stack else -1, self.batch])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def exit(self, idx: int) -> None:
        now = self._tick()
        self.spans[idx][2] = now
        self.stack.pop()
        if self.spans[idx][0] in self.OUTSIDE_BATCH:
            self.batch = None

    def count(self, name: str, value: float) -> None:
        self.counts[(name, self.batch)] += value

    def span_wrapper(self, name: str, counter=None):
        def make(original):
            def wrapper(*args, **kwargs):
                idx = self.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.exit(idx)
                if counter is not None:
                    counter(self, result, *args, **kwargs)
                return result
            return wrapper
        return make

    # ---- summaries

    def durations(self) -> dict[tuple, float]:
        """Inclusive span time per (name, batch)."""
        out: dict[tuple, float] = defaultdict(float)
        for name, start, end, _parent, batch in self.spans:
            out[(name, batch)] += end - start
        return out

    def span_self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        self_t = [end - start for _n, start, end, _p, _b in self.spans]
        for _n, start, end, parent, _b in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t

    def root_time(self) -> float:
        return sum(end - start for _n, start, end, parent, _b in self.spans if parent < 0)

    def per_batch(self, table: dict[tuple, float], names) -> float:
        """Median over batches in which any of ``names`` ran of their summed value."""
        sums: dict[int, float] = defaultdict(float)
        for (name, batch), value in table.items():
            if name in names and batch is not None:
                sums[batch] += value
        return statistics.median(sums.values()) if sums else 0.0

    def per_parent(self, names) -> float:
        """Median over parent spans (for example, evaluations) of the summed
        duration of their children named ``names``."""
        sums: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _b in self.spans:
            if name in names:
                sums[parent] += end - start
        return statistics.median(sums.values()) if sums else 0.0

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "batch"], "spans": self.spans}

