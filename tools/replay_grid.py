"""Fixed-seed replay grid: check that a change leaves training output bitwise equal.

``run OUT`` trains 12 models and writes each run's artifacts (``run.jsonl``,
``metrics.csv``, ``traces.csv``, ``checkpoint.npz``) to ``OUT/<corpus>-<layout>-<nss>/``.
The grid is two corpora, ``generate_cycle_corpus(num_sources=20,
num_targets=60, num_events=1500, d_e=4)`` and
``generate_hotnode_corpus(num_events=1500)``, crossed with layouts il, sl and
ml and with random and historical negatives. Every run uses 3 epochs,
dropout 0.1, hidden 32, n_neighbors 10, lr 1e-3, batch 100, seed 7, the
time-encoder alpha solved from the corpus duration, and an attention trace at
epochs 0 and -1 with threshold 30.

``compare A B`` byte-compares the three text artifacts of every run and
compares every checkpoint array bitwise (dtype, shape and bytes). It prints
each difference and a total, and exits 1 if anything differs.

The package is imported from ``--src`` (default: the ``src`` directory next
to this file), so one copy of the script runs any checkout. To check a change
against its parent commit::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python tools/replay_grid.py run /tmp/grid-parent --src /tmp/parent/src
    python tools/replay_grid.py run /tmp/grid-change
    python tools/replay_grid.py compare /tmp/grid-parent /tmp/grid-change

A whole grid takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

CORPORA = ("cycle", "hotnode")
LAYOUTS = ("il", "sl", "ml")
NEGATIVES = ("random", "historical")
TEXT_ARTIFACTS = ("run.jsonl", "metrics.csv", "traces.csv")
D_T, BETA = 100, 10.0


def _corpus(name):
    from tidegraph.synth import generate_cycle_corpus, generate_hotnode_corpus

    if name == "cycle":
        return generate_cycle_corpus(num_sources=20, num_targets=60, num_events=1500, d_e=4)[0]
    return generate_hotnode_corpus(num_events=1500)[0]


def _run_config(store, layout, nss):
    from tidegraph.config import RunConfig, TraceSpec, TrainConfig
    from tidegraph.encoders import DECAY_TOL, MteConfig
    from tidegraph.model import ModelConfig

    exact = (store.duration_seconds / DECAY_TOL) ** (BETA / (D_T - 1))
    mte = MteConfig(d_t=D_T, beta=BETA, alpha=math.ceil(exact * 100.0) / 100.0)
    model = ModelConfig(n_neighbors=10, hidden=32, dropout=0.1, layout=layout, mte=mte)
    return RunConfig(
        model=model,
        train=TrainConfig(lr=1e-3, epochs=3, batch_size=100, seed=7),
        nss=nss,
        trace=TraceSpec(threshold=30.0, epochs=[0, -1]),
    )


def run(out: Path) -> None:
    from tidegraph.harness import train

    for corpus in CORPORA:
        store = _corpus(corpus)
        for layout in LAYOUTS:
            for nss in NEGATIVES:
                name = f"{corpus}-{layout}-{nss}"
                train(store, _run_config(store, layout, nss), out_dir=out / name)
                print(f"wrote {out / name}", flush=True)


def compare(a: Path, b: Path) -> int:
    """Print every difference between two grids; return the number found."""
    compared, differ = 0, []
    for corpus in CORPORA:
        for layout in LAYOUTS:
            for nss in NEGATIVES:
                name = f"{corpus}-{layout}-{nss}"
                for artifact in TEXT_ARTIFACTS:
                    compared += 1
                    pa, pb = a / name / artifact, b / name / artifact
                    if not (pa.exists() and pb.exists() and pa.read_bytes() == pb.read_bytes()):
                        differ.append(f"{name}/{artifact}")
                with np.load(a / name / "checkpoint.npz") as ca, np.load(b / name / "checkpoint.npz") as cb:
                    for key in sorted(set(ca.files) | set(cb.files)):
                        compared += 1
                        if key not in ca.files or key not in cb.files:
                            differ.append(f"{name}/checkpoint.npz:{key} (missing on one side)")
                            continue
                        xa, xb = ca[key], cb[key]
                        if xa.dtype != xb.dtype or xa.shape != xb.shape or xa.tobytes() != xb.tobytes():
                            differ.append(f"{name}/checkpoint.npz:{key}")
    for item in differ:
        print(f"differs: {item}")
    print(f"{compared} files and arrays compared, {len(differ)} differ")
    return len(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="train the grid and write its artifacts")
    p.add_argument("out", type=Path)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                   help="directory holding the tidegraph package to import")
    p = sub.add_parser("compare", help="compare two grids written by run")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        sys.path.insert(0, str(args.src.resolve()))
        run(args.out)
        return 0
    return 1 if compare(args.a, args.b) else 0


if __name__ == "__main__":
    sys.exit(main())
