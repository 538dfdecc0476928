"""The event reader against a row-by-row reference parser: bitwise stores, the
same error types and line numbers, and a memory bound."""

import csv
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from tidegraph.errors import ParseError, SchemaError, ValidationError
from tidegraph.events import EventStore, ingest_events, write_events

STORE_ARRAYS = ("src", "tgt", "timestamps", "edge_features", "labels", "node_features")


def reference_ingest(path) -> EventStore:
    """Parse an event CSV one row at a time with the csv module, checking
    each row as it is read; every error names its line (header = 0)."""
    src, tgt, ts, labels, feats = [], [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, ["src", "tgt", "ts"])]
        if header[:3] != ["src", "tgt", "ts"]:
            raise SchemaError(f"header must start with src,tgt,ts; got {header[:3]}")
        has_label = header[3:4] == ["label"]
        d_e = len(header) - 3 - has_label
        expected = 3 + has_label + d_e
        prev_ts = 0.0
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != expected:
                raise SchemaError(f"line {line_no}: expected {expected} columns, got {len(row)}")
            try:
                s, t, stamp = int(row[0]), int(row[1]), float(row[2])
                if has_label:
                    cell = row[3].strip()
                    labels.append(float(cell) if cell else np.nan)
                feats.append([float(c) for c in row[3 + has_label:]])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if s < 0 or t < 0:
                raise ValidationError(f"line {line_no}: negative node id {min(s, t)}")
            if d_e and not all(map(math.isfinite, feats[-1])):
                raise ValidationError(f"line {line_no}: non-finite edge feature")
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
    feat_arr = np.asarray(feats, dtype=np.float64).reshape(len(src), d_e)
    return EventStore(
        np.asarray(src, dtype=np.int64), np.asarray(tgt, dtype=np.int64),
        np.asarray(ts, dtype=np.float64), feat_arr,
        labels=np.asarray(labels, dtype=np.float64) if has_label else None,
    )


def assert_same_store(got: EventStore, want: EventStore):
    for name in STORE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert (got.num_nodes, got.bipartite) == (want.num_nodes, want.bipartite)


def _write_bytes(tmp_path, text, name="events.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


def _random_store(rng) -> EventStore:
    n = int(rng.integers(1, 60))
    d_e = int(rng.integers(0, 5))
    high = int(rng.choice([50, 2**53 + 10, 2**59]))
    scale = 10.0 ** rng.uniform(-6, 15)
    labels = None
    if rng.random() < 0.5:
        labels = np.where(rng.random(n) < 0.5, rng.normal(size=n), np.nan)
        labels[0] = 1.0  # at least one label, so write_events writes the column
    return EventStore(
        rng.integers(0, high, n), rng.integers(0, high, n),
        np.sort(rng.uniform(0, 1, n) * scale),
        rng.normal(size=(n, d_e)) * 10.0 ** rng.uniform(-30, 30, size=(n, d_e)),
        labels=labels,
    )


@pytest.mark.parametrize("seed", range(25))
def test_written_stores_read_back_bitwise(tmp_path, seed):
    store = _random_store(np.random.default_rng(seed))
    path = tmp_path / "events.csv"
    write_events(store, path)
    got = ingest_events(path)
    assert_same_store(got, reference_ingest(path))
    for name in ("src", "tgt", "timestamps", "edge_features"):
        assert getattr(got, name).tobytes() == getattr(store, name).tobytes()


def _cell(rng, value) -> str:
    """A float cell as a file might hold it, in a form that reads back exactly."""
    text = [repr(value), f"{value:.17e}", f"{value:.17G}"][rng.integers(3)]
    return " " * int(rng.integers(2)) + text + " " * int(rng.integers(2))


def _hand_made_text(rng) -> str:
    """A valid event file with the layout choices a reader must accept."""
    n, d_e = int(rng.integers(1, 30)), int(rng.integers(0, 3))
    has_label = bool(rng.integers(2))
    header = ["src", "tgt", "ts"] + ["label"] * has_label + [f"f{j}" for j in range(d_e)]
    ids = rng.integers(0, 2**59, size=(n, 2)) if rng.random() < 0.5 else rng.integers(0, 9, size=(n, 2))
    stamps = np.sort(rng.uniform(0, 1, n)) * 10.0 ** rng.uniform(-8, 20)
    lines = [",".join(header)]
    for i in range(n):
        while rng.random() < 0.2:
            lines.append("")
        row = [f" {ids[i, 0]}", f"{ids[i, 1]} ", _cell(rng, float(stamps[i]))]
        if has_label:
            row.append(rng.choice(["", " ", "1", "0.0", " 1e0 "]))
        row += [_cell(rng, float(v)) for v in rng.normal(size=d_e)]
        lines.append(",".join(row))
    end = "\r\n" if rng.integers(2) else "\n"
    return end.join(lines) + end * int(rng.integers(3))


@pytest.mark.parametrize("seed", range(40))
def test_hand_made_texts_read_bitwise(tmp_path, seed):
    path = _write_bytes(tmp_path, _hand_made_text(np.random.default_rng(seed)))
    assert_same_store(ingest_events(path), reference_ingest(path))


@pytest.mark.parametrize("text", [
    "src,tgt,ts\n9007199254740993,18446744073709551,1e3\n576460752303423487,0,1.5E+3\n",
    "src,tgt,ts,label,f0\r\n0,1,2,,0.5\r\n\r\n 3 , 4 , 2.0 , 1 , -0 \r\n",
    "src,tgt,ts\n\n\n0,1,5\n\n",
])
def test_edge_texts_read_bitwise(tmp_path, text):
    path = _write_bytes(tmp_path, text)
    assert_same_store(ingest_events(path), reference_ingest(path))


@pytest.mark.parametrize("text", ["", "src,tgt,ts,label,f0,f1\n", "src,tgt,ts", "src,tgt,ts\n\n"])
def test_empty_files_give_empty_store_without_warning(tmp_path, text):
    path = _write_bytes(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = ingest_events(path)
    assert store.num_events == 0
    assert_same_store(store, reference_ingest(path))


VALID = ["0,5,1.0,1,0.5", "1,6,2.0,,0.25", "2,5,3.0,0,-1.5"]
BAD_ROWS = {
    "non-integer id": "2.5,5,4.0,1,0.5",
    "non-integer target": "2,1e1,4.0,1,0.5",
    "non-numeric timestamp": "2,5,x,1,0.5",
    "non-numeric feature": "2,5,4.0,1,abc",
    "non-numeric label": "2,5,4.0,yes,0.5",
    "empty id": ",5,4.0,1,0.5",
    "too many columns": "2,5,4.0,1,0.5,0.5",
    "too few columns": "2,5,4.0,1",
    "only whitespace": "   ",
    "nan timestamp": "2,5,nan,1,0.5",
    "inf timestamp": "2,5,inf,1,0.5",
    "inf feature": "2,5,4.0,1,-inf",
    "negative id": "-1,5,4.0,1,0.5",
    "negative timestamp": "2,5,-4.0,1,0.5",
    "out of order": "2,5,0.5,1,0.5",
}


def _error(call, path):
    """The error type and the line its message names."""
    with pytest.raises((ParseError, SchemaError, ValidationError)) as info:
        call(path)
    line = re.match(r"line (\d+): ", str(info.value))
    assert line, str(info.value)
    return type(info.value), int(line.group(1))


@pytest.mark.parametrize("blank", [False, True], ids=["as-written", "after-blank-line"])
@pytest.mark.parametrize("position", [0, 2, 3])
@pytest.mark.parametrize("kind", BAD_ROWS)
def test_errors_name_the_reference_line(tmp_path, kind, position, blank):
    if kind == "out of order" and position == 0:
        position = 1  # an earlier row gives the time something to precede
    rows = list(VALID)
    rows.insert(position, BAD_ROWS[kind])
    if blank:
        rows.insert(position, "")
    path = _write_bytes(tmp_path, "src,tgt,ts,label,f0\n" + "\n".join(rows + VALID[-1:]) + "\n")
    want = _error(reference_ingest, path)
    assert _error(ingest_events, path) == want
    assert want[1] == position + 1 + blank


@pytest.mark.parametrize("first, second", [
    ("out of order", "non-numeric timestamp"),
    ("negative id", "too many columns"),
    ("non-integer id", "negative id"),
])
def test_first_bad_line_wins(tmp_path, first, second):
    rows = [VALID[0], VALID[1], BAD_ROWS[first], "", BAD_ROWS[second], VALID[2]]
    path = _write_bytes(tmp_path, "src,tgt,ts,label,f0\n" + "\n".join(rows) + "\n")
    assert _error(ingest_events, path) == _error(reference_ingest, path)
    assert _error(ingest_events, path)[1] == 3


def test_peak_memory_is_bounded_by_the_store(tmp_path):
    # the parsed rows and their column copies may coexist, but no Python object per cell
    rng = np.random.default_rng(3)
    n = 20_000
    store = EventStore(
        rng.integers(0, 500, n), rng.integers(500, 1000, n),
        np.sort(rng.uniform(0, 1e7, n)), rng.normal(size=(n, 16)),
    )
    path = tmp_path / "events.csv"
    write_events(store, path)
    tracemalloc.start()
    try:
        back = ingest_events(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    store_bytes = sum(getattr(back, name).nbytes for name in STORE_ARRAYS)
    assert peak <= 2.5 * store_bytes, peak / store_bytes
