"""Fixed-seed replay grid: check that a change leaves training output bitwise equal, or within a tolerance.

``run OUT`` trains 18 models and writes each run's artifacts (``run.jsonl``,
``metrics.csv``, ``traces.csv``, ``checkpoint.npz``) to ``OUT/<corpus>-<layout>-<nss>/``.
The grid is two corpora, ``generate_cycle_corpus(num_sources=20,
num_targets=60, num_events=1500, d_e=4)`` and
``generate_hotnode_corpus(num_events=1500)``, crossed with layouts il, sl and
ml and with random, historical and inductive negatives. Every run uses 3
epochs, dropout 0.1, hidden 32, n_neighbors 10, lr 1e-3, batch 100, seed 7, the
time-encoder alpha solved from the corpus duration, and an attention trace at
epochs 0 and -1 with threshold 30. ``--dropout RATE`` sets another dropout
rate for every run. A grid at rate 0 draws no dropout mask, so it checks a
change to the arithmetic even when the change also moves the dropout stream
(for example, by drawing masks for fewer units). At rate 0 the cycle-il runs
amplify float32-level changes about 250x by epoch 3, so a tolerance claim on
them needs a control grid (the parent run with an ulp-level perturbation,
compared against the parent's own grid) to show what the bound must absorb.

``compare A B`` byte-compares the three text artifacts of every run, and
compares every checkpoint array bitwise (dtype, shape and bytes) and the
checkpoint's meta record without its format version and table. Checkpoints
are read through :func:`read_checkpoint`, tensor by tensor, in format 2 and
format 3 alike, so a grid of either format compares with a grid of the
other. It prints each difference and a total, and exits 1 if anything
differs.

``compare A B --tolerance REL,ABS`` is for a change that is meant to move the
numbers a little (a new compute dtype, say). Per run it compares the
per-epoch ``train_loss`` within REL relative, every AP and AUC (per-epoch
validation, report and ``metrics.csv``) and the traced ``mean_mass`` within
ABS absolute, and every checkpoint array, cast to float64, within
``ABS + REL * |a|`` elementwise. Every other field (epochs, best epoch,
positives, fallbacks, trace keys, array shapes, the checkpoint's meta
record) must be equal. It prints the worst difference of each kind per run
and exits 1 if any run is outside the bounds.

The package is imported from ``--src`` (default: the ``src`` directory next
to this file), so one copy of the script runs any checkout. To check a change
against its parent commit::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python tools/replay_grid.py run /tmp/grid-parent --src /tmp/parent/src
    python tools/replay_grid.py run /tmp/grid-change
    python tools/replay_grid.py compare /tmp/grid-parent /tmp/grid-change

The script holds numpy's BLAS at one thread, so a grid does not depend on
the shell's thread settings. A whole grid takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: a GEMM's summation order depends
# on the thread count, so grids written under different counts differ in the
# last bits and cannot be compared bitwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

CORPORA = ("cycle", "hotnode")
LAYOUTS = ("il", "sl", "ml")
NEGATIVES = ("random", "historical", "inductive")
TEXT_ARTIFACTS = ("run.jsonl", "metrics.csv", "traces.csv")
# fields compared within the tolerance, by the kind reported: losses relative
# (REL), AP/AUC and trace masses absolute (ABS)
TOLERANCE_FIELDS = {
    "train_loss": "loss", "ap": "ap/auc", "auc": "ap/auc", "val_ap": "ap/auc", "val_auc": "ap/auc",
    "mean_mass": "mass",
}
D_T, BETA = 100, 10.0


def _corpus(name):
    from tidegraph.synth import generate_cycle_corpus, generate_hotnode_corpus

    if name == "cycle":
        return generate_cycle_corpus(num_sources=20, num_targets=60, num_events=1500, d_e=4)[0]
    return generate_hotnode_corpus(num_events=1500)[0]


def _run_config(store, layout, nss, dropout):
    from tidegraph.config import RunConfig, TraceSpec, TrainConfig
    from tidegraph.encoders import DECAY_TOL, MteConfig
    from tidegraph.model import ModelConfig

    exact = (store.duration_seconds / DECAY_TOL) ** (BETA / (D_T - 1))
    mte = MteConfig(d_t=D_T, beta=BETA, alpha=math.ceil(exact * 100.0) / 100.0)
    model = ModelConfig(n_neighbors=10, hidden=32, dropout=dropout, layout=layout, mte=mte)
    return RunConfig(
        model=model,
        train=TrainConfig(lr=1e-3, epochs=3, batch_size=100, seed=7),
        nss=nss,
        trace=TraceSpec(threshold=30.0, epochs=[0, -1]),
    )


def run(out: Path, dropout: float = 0.1) -> None:
    from tidegraph.harness import train

    for corpus in CORPORA:
        store = _corpus(corpus)
        for layout in LAYOUTS:
            for nss in NEGATIVES:
                name = f"{corpus}-{layout}-{nss}"
                train(store, _run_config(store, layout, nss, dropout), out_dir=out / name)
                print(f"wrote {out / name}", flush=True)


def _run_names():
    return [f"{c}-{l}-{n}" for c in CORPORA for l in LAYOUTS for n in NEGATIVES]


def read_checkpoint(path: Path) -> tuple[dict, dict]:
    """A checkpoint's meta record, without ``format_version`` and ``table``,
    and its arrays keyed ``param.<name>``, ``adam_m.<name>`` and
    ``adam_v.<name>``: one member per tensor in format 2, the named slices of
    one flat array per kind, placed by the meta's ``table``, in format 3."""
    with np.load(path) as ck:
        meta = json.loads(str(ck["meta"]))
        meta.pop("format_version", None)
        table = meta.pop("table", None)
        if table is None:
            return meta, {k: ck[k] for k in ck.files if k != "meta"}
        arrays = {}
        for kind in ("param", "adam_m", "adam_v"):
            if kind in ck.files:
                flat = ck[kind]
                for name, shape, off in table:
                    arrays[f"{kind}.{name}"] = flat[off : off + math.prod(shape)].reshape(shape)
        return meta, arrays


def compare(a: Path, b: Path) -> int:
    """Print every difference between two grids; return the number found."""
    compared, differ = 0, []
    for name in _run_names():
        for artifact in TEXT_ARTIFACTS:
            compared += 1
            pa, pb = a / name / artifact, b / name / artifact
            if not (pa.exists() and pb.exists() and pa.read_bytes() == pb.read_bytes()):
                differ.append(f"{name}/{artifact}")
        meta_a, ca = read_checkpoint(a / name / "checkpoint.npz")
        meta_b, cb = read_checkpoint(b / name / "checkpoint.npz")
        compared += 1
        if meta_a != meta_b:
            differ.append(f"{name}/checkpoint.npz:meta")
        for key in sorted(ca.keys() | cb.keys()):
            compared += 1
            if key not in ca or key not in cb:
                differ.append(f"{name}/checkpoint.npz:{key} (missing on one side)")
                continue
            xa, xb = ca[key], cb[key]
            if xa.dtype != xb.dtype or xa.shape != xb.shape or xa.tobytes() != xb.tobytes():
                differ.append(f"{name}/checkpoint.npz:{key}")
    for item in differ:
        print(f"differs: {item}")
    print(f"{compared} files and arrays compared, {len(differ)} differ")
    return len(differ)


def _records(run_dir: Path) -> dict:
    """The run's text artifacts parsed: run.jsonl lines, and CSV rows as dicts."""
    out = {"run.jsonl": [json.loads(line) for line in (run_dir / "run.jsonl").read_text().splitlines()]}
    for artifact in ("metrics.csv", "traces.csv"):
        with open(run_dir / artifact, newline="") as fh:
            out[artifact] = list(csv.DictReader(fh))
    return out


def _walk(a, b, path: str, key: str, worst: dict, mismatches: list) -> None:
    """Compare two parsed records: fields of TOLERANCE_FIELDS raise ``worst``
    to their difference, every other leaf must be equal."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            _walk(a[k], b[k], f"{path}.{k}", k, worst, mismatches)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", key, worst, mismatches)
    elif key in TOLERANCE_FIELDS and a is not None and b is not None:
        x, y = float(a), float(b)
        kind = TOLERANCE_FIELDS[key]
        diff = abs(x - y)
        if kind == "loss" and diff:
            diff /= max(abs(x), abs(y))
        if not math.isfinite(diff):  # max() would drop a nan
            mismatches.append(f"{path}: {a!r} vs {b!r}")
        worst[kind] = max(worst[kind], diff)
    elif a != b:
        mismatches.append(f"{path}: {a!r} != {b!r}")


def compare_within(a: Path, b: Path, rel: float, abs_: float) -> int:
    """Print the worst difference of each kind per run; return the number of
    runs outside the tolerance or with a field that must be equal and is not."""
    failed = 0
    print(f"{'run':<24} {'loss rel':>9} {'ap/auc abs':>10} {'mass abs':>9} {'ckpt abs':>9}")
    for name in _run_names():
        worst = {"loss": 0.0, "ap/auc": 0.0, "mass": 0.0, "ckpt": 0.0}
        mismatches: list[str] = []
        _walk(_records(a / name), _records(b / name), name, "", worst, mismatches)
        ckpt_ok = True
        meta_a, ca = read_checkpoint(a / name / "checkpoint.npz")
        meta_b, cb = read_checkpoint(b / name / "checkpoint.npz")
        if meta_a != meta_b:
            mismatches.append(f"{name}/checkpoint.npz: meta {meta_a} != {meta_b}")
        if ca.keys() != cb.keys():
            mismatches.append(f"{name}/checkpoint.npz: arrays {sorted(ca.keys() ^ cb.keys())} on one side")
        for key in sorted(ca.keys() & cb.keys()):
            xa, xb = ca[key], cb[key]
            if xa.shape != xb.shape:
                mismatches.append(f"{name}/checkpoint.npz:{key}: shape {xa.shape} != {xb.shape}")
            elif xa.size:
                xa, xb = xa.astype(np.float64), xb.astype(np.float64)
                diff = np.abs(xa - xb)
                worst["ckpt"] = max(worst["ckpt"], float(diff.max()))
                ckpt_ok &= bool(np.all(diff <= abs_ + rel * np.abs(xa)))
        within = worst["loss"] <= rel and worst["ap/auc"] <= abs_ and worst["mass"] <= abs_ and ckpt_ok
        ok = within and not mismatches
        failed += not ok
        print(f"{name:<24} {worst['loss']:>9.2e} {worst['ap/auc']:>10.2e} {worst['mass']:>9.2e} "
              f"{worst['ckpt']:>9.2e}  {'ok' if ok else 'OUTSIDE'}")
        for item in mismatches:
            print(f"  differs: {item}")
    print(f"{len(_run_names())} runs compared at rel {rel:g}, abs {abs_:g}; {failed} outside")
    return failed


def _tolerance(text: str) -> tuple[float, float]:
    try:
        rel, abs_ = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected REL,ABS, got {text!r}") from None
    if not (rel >= 0 and abs_ >= 0):
        raise argparse.ArgumentTypeError(f"REL and ABS must be non-negative, got {text!r}")
    return rel, abs_


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="train the grid and write its artifacts")
    p.add_argument("out", type=Path)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                   help="directory holding the tidegraph package to import")
    p.add_argument("--dropout", type=float, default=0.1, metavar="RATE",
                   help="dropout rate of every run (default 0.1)")
    p = sub.add_parser("compare", help="compare two grids written by run")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--tolerance", type=_tolerance, metavar="REL,ABS",
                   help="compare losses, AP/AUC, trace masses and checkpoints within these "
                        "bounds instead of bitwise")
    args = parser.parse_args(argv)
    if args.command == "run":
        sys.path.insert(0, str(args.src.resolve()))
        run(args.out, args.dropout)
        return 0
    if args.tolerance is not None:
        return 1 if compare_within(args.a, args.b, *args.tolerance) else 0
    return 1 if compare(args.a, args.b) else 0


if __name__ == "__main__":
    sys.exit(main())
