"""Event streams for continuous-time dynamic graphs.

A graph is stored as a flat, chronologically ordered array of timestamped
interactions. The store is immutable after construction and is safe to read
from any number of workers.

Event files are CSV with header ``src,tgt,ts[,label],f0..f{k-1}``; the label
column is optional. The reader skips blank lines and allows spaces around
cells and CRLF line endings. Ids are int64 (``2.5`` is not an id); the other
cells are float64 in decimal or exponent form, and an empty label is NaN.
A JSON manifest with the same stem (``<name>.json``)
carries the quantities that cannot be inferred reliably from the rows
themselves: node count, feature dimensions, bipartiteness, calendar
granularity, segment count, and the dataset duration.
"""

from __future__ import annotations

import csv
import json
import warnings
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

        _check_rows(self.src, self.tgt, self.timestamps, self.edge_features)

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


class _BadEvent(ValidationError):
    """An event breaks a row invariant; ``detail`` describes it as a file's row."""

    def __init__(self, event: int, kind: str, detail: str):
        super().__init__(f"{kind} at event {event}")
        self.event, self.detail = event, detail


def _check_rows(src, tgt, ts, feats) -> None:
    """Raise :class:`_BadEvent` for the first event with a negative node id, a
    non-finite edge feature, or a timestamp that is not finite, is negative
    or precedes the previous event's (tested in that order)."""
    prev = np.concatenate(([0.0], ts[:-1]))
    bad = (src < 0) | (tgt < 0) | ~np.isfinite(feats).all(axis=1) | ~((prev <= ts) & (ts < np.inf))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    node, stamp = min(int(src[i]), int(tgt[i])), float(ts[i])
    for failed, kind, detail in (
        (node < 0, "negative node id", f"negative node id {node}"),
        (not np.isfinite(feats[i]).all(), "non-finite edge feature", "non-finite edge feature"),
        (not np.isfinite(stamp), "non-finite timestamp", f"non-finite timestamp {stamp}"),
        (stamp < 0, "negative timestamp", f"negative timestamp {stamp}"),
        (True, "events out of chronological order", f"timestamp {stamp} precedes previous row"),
    ):
        if failed:
            raise _BadEvent(i, kind, detail)


def _parse_header(header: str):
    names = [name.strip() for name in header.split(",")] if header else ["src", "tgt", "ts"]
    if names[:3] != ["src", "tgt", "ts"]:
        raise SchemaError(f"header must start with src,tgt,ts; got {names[:3]}")
    has_label = names[3:4] == ["label"]
    for j, name in enumerate(names[3 + has_label:]):
        if name != f"f{j}":
            raise SchemaError(f"feature columns must be f0..f{{k-1}}; got {name!r} at position {j}")
    return has_label, len(names) - 3 - has_label


def _read_columns(source, has_label: bool, d_e: int):
    """Parse data rows (an open file or a list of lines) into contiguous
    ``src, tgt, ts, edge_features, labels`` columns; raises ``ValueError``
    on a bad cell or column count."""
    columns = [("src", np.int64), ("tgt", np.int64), ("ts", np.float64)]
    columns += [("label", np.float64)] * has_label + [("f", np.float64, (d_e,))] * bool(d_e)
    converters = {3: lambda cell: float(cell) if cell.strip() else np.nan} if has_label else None
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(source, dtype=columns, delimiter=",", comments=None, converters=converters, ndmin=1)
    # one copy per column; the parsed rows are freed on return, before any check runs
    feats = rows["f"].copy() if d_e else np.zeros((len(rows), 0))
    return rows["src"].copy(), rows["tgt"].copy(), rows["ts"].copy(), feats, rows["label"].copy() if has_label else None


def ingest_events(path, manifest: DatasetManifest | None = None) -> EventStore:
    """Read an event CSV (plus optional manifest) into an :class:`EventStore`.

    The file is parsed in one pass by numpy's reader, then checked as arrays.
    Errors name a line, counting the header as line 0 and blank lines too; the
    first bad line wins. A wrong column count (a line of only spaces too)
    raises :class:`SchemaError` and a cell that does not parse
    :class:`ParseError`. A negative node id, a non-finite edge feature or
    timestamp, a negative timestamp or a row out of chronological order raises
    :class:`ValidationError`. A manifest whose ``d_e`` differs from the
    header's raises :class:`SchemaError` before any row is read.
    """
    if manifest is None:
        manifest = DatasetManifest.beside(path)
    try:
        with open(path) as fh:
            has_label, d_e = _parse_header(fh.readline())
            if manifest is not None and manifest.d_e != d_e:
                raise SchemaError(f"manifest declares d_e={manifest.d_e} but file has {d_e} feature columns")
            try:
                src, tgt, ts, feats, labels = _read_columns(fh, has_label, d_e)
            except ValueError:
                # find the first line the reader rejects; the rows above it are checked first
                fh.seek(0)
                lines = fh.read().split("\n")
                for line_no, line in enumerate(lines[1:], start=1):
                    try:
                        _read_columns([line], has_label, d_e)
                    except ValueError:
                        break
                else:
                    raise
                _check_rows(*_read_columns(lines[1:line_no], has_label, d_e)[:4])
                cells, expected = line.count(",") + 1, 3 + has_label + d_e
                if cells != expected:
                    raise SchemaError(f"line {line_no}: expected {expected} columns, got {cells}") from None
                raise ParseError(line_no, f"ids must be integers, other cells numbers; got {line.strip()!r}") from None
        kwargs = {} if manifest is None else dict(
            num_nodes=manifest.num_nodes, bipartite=manifest.bipartite,
            node_features=np.zeros((manifest.num_nodes, manifest.d_n)))
        return EventStore(src, tgt, ts, feats, labels=labels, **kwargs)
    except _BadEvent as exc:
        with open(path) as fh:
            data_lines = [k for k, line in enumerate(fh.read().split("\n")) if k and line]
        raise ValidationError(f"line {data_lines[exc.event]}: {exc.detail}") from None


def write_events(store: EventStore, path) -> None:
    """Serialize a store back to the CSV layout accepted by :func:`ingest_events`:
    floats as their ``repr``, which reads back exactly, and a missing label empty."""
    has_label = bool(store.num_events) and not np.all(np.isnan(store.labels))
    header = ["src", "tgt", "ts"] + ["label"] * has_label + [f"f{j}" for j in range(store.d_e)]
    labels = [["" if np.isnan(v) else v for v in store.labels.tolist()]] * has_label
    columns = [store.src.tolist(), store.tgt.tolist(), store.timestamps.tolist(), *labels,
               *store.edge_features.T.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


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
