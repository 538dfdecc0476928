"""Event streams for continuous-time dynamic graphs.

A graph is stored as a flat, chronologically ordered array of timestamped
interactions. The store is immutable after construction and is safe to read
from any number of workers.

Event files are CSV with header ``src,tgt,ts[,label],f0..f{k-1}``; the label
column is optional. A JSON manifest with the same stem (``<name>.json``)
carries the quantities that cannot be inferred reliably from the rows
themselves: node count, feature dimensions, bipartiteness, calendar
granularity, segment count, and the dataset duration.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError, SplitError, ValidationError

__all__ = [
    "EventStore",
    "DatasetManifest",
    "SplitSpec",
    "SplitRanges",
    "ingest_events",
    "write_events",
    "chronological_split",
    "inductive_mask",
]


# The JSON values each annotation of DatasetManifest accepts, and its name in errors.
_FIELD_TYPES = {
    "int": (int, "an integer"), "float": ((int, float), "a number"),
    "bool": (bool, "true or false"), "str": (str, "a string"),
}


@dataclass
class DatasetManifest:
    """Sidecar metadata for an event CSV."""

    num_nodes: int
    d_n: int = 0
    d_e: int = 0
    bipartite: bool = False
    granularity: str = "weekly"
    r_segments: int = 1
    duration_seconds: float = 0.0

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        """Read a manifest; a file that is not a JSON object of the fields,
        each of its declared type, raises :class:`SchemaError` naming it."""
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"manifest {path}: not valid JSON: {exc}") from None
        try:
            manifest = cls(**raw)
        except TypeError as exc:  # not a JSON object, a missing field or an unknown one
            raise SchemaError(f"manifest {path}: {exc}") from None
        for f in fields(cls):
            value = getattr(manifest, f.name)
            kinds, kind = _FIELD_TYPES[f.type]
            # a JSON true or false is a Python int too
            if not isinstance(value, kinds) or isinstance(value, bool) != (f.type == "bool"):
                raise SchemaError(f"manifest {path}: {f.name} must be {kind}, got {value!r}")
        return manifest

    @classmethod
    def beside(cls, events_path) -> "DatasetManifest | None":
        """The sidecar manifest of an event file (same stem, ``.json``), if any."""
        sidecar = Path(events_path).with_suffix(".json")
        return cls.load(sidecar) if sidecar.exists() else None

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


class EventStore:
    """Immutable, chronologically ordered interaction store.

    Events are held as column arrays (``src``, ``tgt``, ``timestamps``,
    ``edge_features``, ``labels``), indexed by event id; a missing label is
    NaN.
    """

    def __init__(
        self,
        src,
        tgt,
        timestamps,
        edge_features=None,
        *,
        num_nodes=None,
        node_features=None,
        bipartite=False,
        labels=None,
    ):
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.tgt = np.ascontiguousarray(tgt, dtype=np.int64)
        self.timestamps = np.ascontiguousarray(timestamps, dtype=np.float64)
        n = len(self.src)
        if not (len(self.tgt) == len(self.timestamps) == n):
            raise ValidationError("src/tgt/timestamp columns differ in length")
        if edge_features is None:
            edge_features = np.zeros((n, 0))
        self.edge_features = np.ascontiguousarray(edge_features, dtype=np.float64)
        if self.edge_features.ndim != 2 or len(self.edge_features) != n:
            raise ValidationError("edge_features must be an (N, d_e) matrix")
        if labels is None:
            labels = np.full(n, np.nan)
        self.labels = np.ascontiguousarray(labels, dtype=np.float64)

        _reject_events(~np.isfinite(self.timestamps), "non-finite timestamp")
        _reject_events(~np.isfinite(self.edge_features).all(axis=1), "non-finite edge feature")
        _reject_events((self.src < 0) | (self.tgt < 0), "negative node id")
        _reject_events(self.timestamps < 0, "negative timestamp")
        _reject_events(np.diff(self.timestamps, prepend=-np.inf) < 0, "events out of chronological order")

        observed = int(max(self.src.max(), self.tgt.max())) + 1 if n else 0
        self.num_nodes = observed if num_nodes is None else int(num_nodes)
        if n and observed > self.num_nodes:
            raise ValidationError(
                f"node id {observed - 1} outside declared universe of {self.num_nodes}"
            )
        if node_features is None:
            node_features = np.zeros((self.num_nodes, 0))
        self.node_features = np.ascontiguousarray(node_features, dtype=np.float64)
        if len(self.node_features) != self.num_nodes:
            raise ValidationError("node_features row count must equal num_nodes")

        self.bipartite = bool(bipartite)
        if self.bipartite and n:
            overlap = np.intersect1d(np.unique(self.src), np.unique(self.tgt))
            if overlap.size:
                raise ValidationError(
                    f"bipartite store has {overlap.size} ids on both sides, e.g. {overlap[0]}"
                )

    @property
    def d_e(self) -> int:
        return self.edge_features.shape[1]

    @property
    def d_n(self) -> int:
        return self.node_features.shape[1]

    @property
    def num_events(self) -> int:
        return len(self.src)

    @property
    def duration_seconds(self) -> float:
        if not self.num_events:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    def __len__(self) -> int:
        return self.num_events

    def node_ids(self) -> np.ndarray:
        """Distinct node ids that actually occur in the stream."""
        return np.unique(np.concatenate([self.src, self.tgt])) if self.num_events else np.array([], dtype=np.int64)


def _reject_events(bad: np.ndarray, what: str) -> None:
    """Raise naming the first event flagged in ``bad``, if any is."""
    if bad.any():
        raise ValidationError(f"{what} at event {int(np.argmax(bad))}")


def _parse_header(header: list[str]):
    if len(header) < 3 or header[0] != "src" or header[1] != "tgt" or header[2] != "ts":
        raise SchemaError(f"header must start with src,tgt,ts; got {header[:3]}")
    rest = header[3:]
    has_label = bool(rest) and rest[0] == "label"
    feats = rest[1:] if has_label else rest
    for j, name in enumerate(feats):
        if name != f"f{j}":
            raise SchemaError(f"feature columns must be f0..f{{k-1}}; got {name!r} at position {j}")
    return has_label, len(feats)


def ingest_events(path, manifest: DatasetManifest | None = None) -> EventStore:
    """Read an event CSV (plus optional manifest) into an :class:`EventStore`.

    Rows must be in chronological order, with non-negative node ids and
    finite, non-negative timestamps and finite edge features; a row that is
    not is rejected with its line number. Line numbers count data rows (the
    header is line 0).
    """
    path = Path(path)
    if manifest is None:
        manifest = DatasetManifest.beside(path)

    src, tgt, ts, labels, feats = [], [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            header = None
        if header is None:
            has_label, d_e = False, 0
        else:
            has_label, d_e = _parse_header([h.strip() for h in header])
        prev_ts = 0.0
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            expected = 3 + (1 if has_label else 0) + d_e
            if len(row) != expected:
                raise SchemaError(
                    f"line {line_no}: expected {expected} columns, got {len(row)}"
                )
            try:
                s, t = int(row[0]), int(row[1])
                stamp = float(row[2])
                offset = 3
                if has_label:
                    cell = row[3].strip()
                    labels.append(float(cell) if cell else np.nan)
                    offset = 4
                feats.append([float(c) for c in row[offset:]])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if s < 0 or t < 0:
                raise ValidationError(f"line {line_no}: negative node id {min(s, t)}")
            if d_e and not all(map(math.isfinite, feats[-1])):
                raise ValidationError(f"line {line_no}: non-finite edge feature")
            # one comparison on the common path rejects NaN, inf, negative and out-of-order times
            if not prev_ts <= stamp < math.inf:
                if not math.isfinite(stamp):
                    why = f"non-finite timestamp {stamp}"
                elif stamp < 0:
                    why = f"negative timestamp {stamp}"
                else:
                    why = f"timestamp {stamp} precedes previous row"
                raise ValidationError(f"line {line_no}: {why}")
            prev_ts = stamp
            src.append(s)
            tgt.append(t)
            ts.append(stamp)

    src = np.asarray(src, dtype=np.int64)
    tgt = np.asarray(tgt, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.float64)
    feat_arr = np.asarray(feats, dtype=np.float64) if feats else np.zeros((len(src), d_e))
    if feat_arr.size == 0:
        feat_arr = feat_arr.reshape(len(src), d_e)
    label_arr = np.asarray(labels, dtype=np.float64) if has_label else None

    kwargs = {}
    if manifest is not None:
        kwargs = dict(num_nodes=manifest.num_nodes, bipartite=manifest.bipartite)
        if manifest.d_n:
            kwargs["node_features"] = np.zeros((manifest.num_nodes, manifest.d_n))
        if manifest.d_e != feat_arr.shape[1]:
            raise SchemaError(
                f"manifest declares d_e={manifest.d_e} but file has {feat_arr.shape[1]} feature columns"
            )
    return EventStore(src, tgt, ts, feat_arr, labels=label_arr, **kwargs)


def write_events(store: EventStore, path) -> None:
    """Serialize a store back to the CSV layout accepted by :func:`ingest_events`."""
    has_label = bool(store.num_events) and not np.all(np.isnan(store.labels))
    header = ["src", "tgt", "ts"]
    if has_label:
        header.append("label")
    header += [f"f{j}" for j in range(store.d_e)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(store.num_events):
            row = [int(store.src[i]), int(store.tgt[i]), repr(float(store.timestamps[i]))]
            if has_label:
                lab = store.labels[i]
                row.append("" if np.isnan(lab) else repr(float(lab)))
            row += [repr(float(v)) for v in store.edge_features[i]]
            writer.writerow(row)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split fractions; boundaries floor by event count."""

    train_frac: float = 0.70
    val_frac: float = 0.15
    test_frac: float = 0.15

    def __post_init__(self):
        for f in (self.train_frac, self.val_frac, self.test_frac):
            if not (0.0 < f < 1.0):
                raise SplitError(f"split fractions must lie in (0,1); got {f}")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-12:
            raise SplitError(f"split fractions must sum to 1; got {total}")


@dataclass(frozen=True)
class SplitRanges:
    """Half-open event-id ranges partitioning ``[0, N)``."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]


def chronological_split(store: EventStore, spec: SplitSpec = SplitSpec()) -> SplitRanges:
    """Partition the store into contiguous train/val/test event-id ranges."""
    n = store.num_events
    if n == 0:
        raise SplitError("cannot split an empty store")
    a = int(np.floor(n * spec.train_frac))
    b = int(np.floor(n * (spec.train_frac + spec.val_frac)))
    ranges = SplitRanges(train=(0, a), val=(a, b), test=(b, n))
    for name, (lo, hi) in (("train", ranges.train), ("val", ranges.val), ("test", ranges.test)):
        if hi <= lo:
            raise SplitError(f"{name} range is empty for N={n} under {spec}")
    return ranges


def inductive_mask(store: EventStore, train_range: tuple[int, int]) -> set[int]:
    """Node ids that occur in the stream but never inside ``train_range``."""
    lo, hi = train_range
    seen = np.unique(np.concatenate([store.src[lo:hi], store.tgt[lo:hi]]))
    everyone = store.node_ids()
    return set(int(v) for v in np.setdiff1d(everyone, seen, assume_unique=True))
