"""Command-line entry points.

Subcommands: ``gen-synth`` (write a synthetic corpus), ``train``, ``eval``
(score a checkpoint), ``ablate`` (layout x encoder grid), ``trace``
(train with attention tracing), and ``gradcheck`` (finite-difference audit).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import TraceSpec, config_hash, fit_time_encoder, read_config, run_config_from_dict
from .errors import CheckFailure, ConfigError, DataError
from .events import DatasetManifest, ingest_events, write_events
from .harness import (
    ablate,
    evaluate_link_prediction,
    evaluation_seed,
    gradcheck_fixture,
    train,
    write_ablation_csv,
    write_metrics_csv,
)
from .model import ModelParameters, grad_check, load_checkpoint
from .sampling import NeighborSampler
from .synth import generate_cycle_corpus, generate_hotnode_corpus


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="event CSV path")
    p.add_argument("--manifest", help="dataset manifest JSON (defaults to <data>.json)")
    p.add_argument("--config", help="run config YAML")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--nss", choices=["rnd", "hist", "ind"], help="negative sampling strategy")
    p.add_argument("--setting", choices=["trans", "ind"], help="evaluation setting")
    p.add_argument("--out", help="output directory")


def _load(args, **changes):
    """The run config and event store of a subcommand.

    The config comes from ``--config`` (defaults without one), with the
    command-line overrides and ``changes`` applied. When it leaves
    ``model.mte.alpha`` unset, its time encoder is fitted to the data
    (:func:`~.config.fit_time_encoder`): alpha from the stream's duration,
    and the manifest's granularity and segment count where the config does
    not give them.
    """
    raw = read_config(args.config) if args.config else {}
    run_cfg = run_config_from_dict(raw)
    if args.seed is not None:
        changes["train"] = replace(run_cfg.train, seed=args.seed)
    if args.nss:
        changes["nss"] = args.nss
    if args.setting:
        changes["setting"] = args.setting
    run_cfg = replace(run_cfg, **changes)
    manifest = DatasetManifest.load(args.manifest) if args.manifest else DatasetManifest.beside(args.data)
    store = ingest_events(args.data, manifest)
    mte_raw = (raw.get("model") or {}).get("mte") or {}
    if mte_raw.get("alpha") is None:
        run_cfg = fit_time_encoder(run_cfg, store.duration_seconds, manifest, given=set(mte_raw))
    return run_cfg, store


def cmd_gen_synth(args) -> int:
    if args.mode == "cycle":
        store, manifest = generate_cycle_corpus(num_events=args.events, seed=args.seed)
    else:
        store, manifest, hot = generate_hotnode_corpus(num_events=args.events, seed=args.seed)
        print(f"hot node id: {hot}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_events(store, out)
    manifest.save(out.with_suffix(".json"))
    print(f"wrote {store.num_events} events over {store.num_nodes} nodes to {out}")
    return 0


def cmd_train(args) -> int:
    run_cfg, store = _load(args)
    result = train(store, run_cfg, out_dir=args.out)
    print(json.dumps({"report": result.report}, sort_keys=True, indent=2))
    return 0


def cmd_eval(args) -> int:
    run_cfg, store = _load(args)
    ckpt = load_checkpoint(args.checkpoint)
    params = ModelParameters(run_cfg.model, store.d_n, store.d_e, seed=run_cfg.train.seed)
    values = ckpt["values"]
    for name in [*params.values, *sorted(set(values) - set(params.values))]:
        want = params.values[name].shape if name in params.values else "absent"
        got = values[name].shape if name in values else "absent"
        if got != want:
            raise ConfigError(
                f"checkpoint does not match the config: tensor {name!r} has shape {got} "
                f"in the checkpoint and {want} under the config"
            )
    params.restore(values)
    from .events import chronological_split

    splits = chronological_split(store, run_cfg.split)
    sampler = NeighborSampler(store)
    metrics = evaluate_link_prediction(
        params, run_cfg.model, store, sampler, splits.test,
        splits=splits, nss=run_cfg.nss, setting=run_cfg.setting,
        batch_size=run_cfg.train.batch_size, eval_seed=evaluation_seed(run_cfg.train.seed),
    )
    report = {"config_hash": config_hash(run_cfg), "nss": run_cfg.nss,
              "setting": run_cfg.setting, "test": metrics}
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out / "metrics.csv", report)
    return 0


def cmd_ablate(args) -> int:
    run_cfg, store = _load(args)
    rows = ablate(store, run_cfg, epochs=args.epochs)
    for row in rows:
        ap = "n/a" if row["test_ap"] is None else f"{row['test_ap']:.4f}"
        print(f"{row['layout']:>3} {row['variant']:>10}  width={row['token_width']:<5d} test_ap={ap}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_ablation_csv(out / "ablation.csv", rows)
    return 0


def cmd_trace(args) -> int:
    epochs = [0, -1] if not args.at_epochs else [int(e) for e in args.at_epochs.split(",")]
    run_cfg, store = _load(args, trace=TraceSpec(threshold=args.threshold, epochs=epochs, layer=args.layer))
    result = train(store, run_cfg, out_dir=args.out)
    for rec in result.trace_records:
        print(f"epoch={rec.epoch:>3} node={rec.node:<6d} freq={rec.frequency:<6d} "
              f"mass={rec.mean_mass:.5f} ({rec.appearances} windows)")
    epochs_run = result.report["epochs_run"]
    missed = [e for e in epochs if e > epochs_run]
    if missed:
        print(f"training stopped after epoch {epochs_run}; no snapshot at epochs {missed}")
    if not result.trace_records and len(missed) < len(epochs):
        print("no node exceeded the trace threshold; empty trace")
    return 0


def cmd_gradcheck(args) -> int:
    params, cfg, batch, labels = gradcheck_fixture(
        corpus_seed=args.data_seed, param_seed=args.param_seed,
        tokens=args.tokens, batch_pairs=args.batch, hidden=args.hidden,
    )
    err = grad_check(params, cfg, batch, labels, epsilon=args.epsilon,
                     num_checks=args.checks, rng=np.random.default_rng(args.subset_seed))
    print(f"max relative gradient error beyond the roundoff allowance "
          f"over {min(args.checks, params.num_scalars)} parameters: {err:.3e}")
    return 0 if err < args.tolerance else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tidegraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a synthetic event corpus + manifest")
    p.add_argument("--mode", choices=["cycle", "hotnode"], default="cycle")
    p.add_argument("--events", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train and evaluate a model")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint on the test split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the layout x encoder ablation grid")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None, help="override epochs per cell")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("trace", help="train while tracing key-node attention mass")
    _add_common(p)
    p.add_argument("--threshold", type=float, default=150.0)
    p.add_argument("--layer", type=int, default=-1)
    p.add_argument("--at-epochs", help="comma-separated epochs (0=start, -1=end)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the gradients")
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--checks", type=int, default=200)
    p.add_argument("--tokens", type=int, default=4)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--tolerance", type=float, default=1e-4,
                   help="bound on the max relative gradient error beyond the "
                        "finite-difference roundoff allowance (see model.grad_check)")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--param-seed", type=int, default=1)
    p.add_argument("--subset-seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ConfigError, ValueError, CheckFailure, OSError) as exc:
        # bad input or a failed self-check: one line and argparse's usage
        # exit code, not a traceback
        print(f"tidegraph {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
