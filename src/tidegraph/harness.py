"""Training loop, evaluation settings, attention tracing, and ablations.

Runs are deterministic functions of (dataset, config, seed): batches iterate
chronologically, every random draw comes from a generator derived from the
run seed, and no wall-clock values enter the run log or report.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, TraceSpec, config_hash
from .errors import MetricError
from .events import EventStore, SplitRanges, chronological_split, inductive_mask
from .metrics import auc_roc, average_precision
from .model import (
    ModelConfig,
    ModelParameters,
    attention_weights,
    featurize_pairs,
    forward_batch,
    loss_and_grads,
    predict_probs,
    save_checkpoint,
    to_sequences,
)
from .optim import AdamState, adam_step
from .sampling import BatchNeighborIndex, NegativeSampler, NegativeSamplingStrategy, NeighborSampler

__all__ = [
    "AttentionTraceRecord",
    "TrainResult",
    "iter_event_batches",
    "sample_pair_windows",
    "build_scoring_batch",
    "evaluate_link_prediction",
    "evaluation_seed",
    "train",
    "node_frequencies",
    "attention_mass_snapshot",
    "ablate",
    "ABLATION_VARIANTS",
    "variant_config",
    "gradcheck_fixture",
    "write_run_log",
    "write_metrics_csv",
    "write_trace_csv",
]

log = logging.getLogger(__name__)

ABLATION_VARIANTS = ("full", "-mte", "-bie", "-ste", "fine-only")


@dataclass(frozen=True)
class AttentionTraceRecord:
    """Mean attention mass received by one key node at one training stage."""

    epoch: int
    node: int
    frequency: int
    mean_mass: float
    appearances: int


@dataclass
class TrainResult:
    report: dict
    epoch_records: list[dict]
    trace_records: list[AttentionTraceRecord]
    params: ModelParameters
    splits: SplitRanges


def _derived_seed(seed: int, purpose: int) -> int:
    return (seed * 7919 + purpose) % (2**31 - 1)


def evaluation_seed(run_seed: int) -> int:
    """Seed of every evaluation in a run seeded ``run_seed``.

    ``tidegraph eval`` uses it too, so scoring a run's checkpoint draws the
    run's negatives and windows and reproduces its test metrics.
    """
    return _derived_seed(run_seed, 4)


def _event_pairs(store: EventStore, idx) -> list[tuple[int, int, float]]:
    """``(src, tgt, time)`` of the events with ids ``idx``, in order."""
    return [(int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i])) for i in idx]


def iter_event_batches(store: EventStore, lo: int, hi: int, batch_size: int):
    for start in range(lo, hi, batch_size):
        yield _event_pairs(store, range(start, min(start + batch_size, hi)))


def sample_pair_windows(sampler: NeighborSampler, pairs, cfg: ModelConfig, rng=None):
    """Sample the per-pair windows and key them into the batch dictionaries."""
    src_index, tgt_index = {}, {}
    seq_pairs = []
    for s, t, tm in pairs:
        src_seq = sampler.sample(s, tm, cfg.n_neighbors, cfg.neighbor_strategy, rng)
        tgt_seq = sampler.sample(t, tm, cfg.n_neighbors, cfg.neighbor_strategy, rng)
        seq_pairs.append((src_seq, tgt_seq))
        src_index[s] = src_seq
        tgt_index[t] = tgt_seq
    return seq_pairs, BatchNeighborIndex(src_index, tgt_index)


def build_scoring_batch(sampler, store, cfg, pos_pairs, neg_tgts, rng=None):
    """Featurize positives followed by their negative counterparts."""
    seq_pairs, index = sample_pair_windows(sampler, pos_pairs, cfg, rng)
    neg_pairs = [
        (seq_pairs[j][0], sampler.sample(int(v), float(pos_pairs[j][2]), cfg.n_neighbors, cfg.neighbor_strategy, rng))
        for j, v in enumerate(neg_tgts)
    ]
    batch = featurize_pairs(seq_pairs + neg_pairs, index, store, cfg)
    labels = np.concatenate([np.ones(len(pos_pairs)), np.zeros(len(pos_pairs))])
    return batch, labels


def evaluate_link_prediction(
    params: ModelParameters,
    cfg: ModelConfig,
    store: EventStore,
    sampler: NeighborSampler,
    ev_range: tuple[int, int],
    *,
    splits: SplitRanges,
    nss: str = "random",
    setting: str = "transductive",
    batch_size: int = 200,
    eval_seed: int = 0,
) -> dict:
    """Score one split's positives against per-positive negatives.

    The inductive setting keeps only positives whose source or target never
    occurs in the training range; each positive is paired with one corrupted
    target drawn by the requested strategy.
    """
    lo, hi = ev_range
    idx = np.arange(lo, hi)
    if setting == "inductive":
        unseen = np.fromiter(inductive_mask(store, splits.train), dtype=np.int64)
        idx = idx[np.isin(store.src[idx], unseen) | np.isin(store.tgt[idx], unseen)]
        if len(idx) == 0:
            raise MetricError("inductive evaluation has no positives touching unseen nodes")

    strategy = NegativeSamplingStrategy(nss, seed=eval_seed)
    neg_sampler = NegativeSampler(store, strategy, train_range=splits.train)
    rng = np.random.default_rng(_derived_seed(eval_seed, 11))

    scores, labels = [], []
    for start in range(0, len(idx), batch_size):
        pos = _event_pairs(store, idx[start : start + batch_size])
        neg_tgts, _ = neg_sampler.sample(pos)
        batch, lbl = build_scoring_batch(sampler, store, cfg, pos, neg_tgts, rng)
        scores.append(predict_probs(params, cfg, batch))
        labels.append(lbl)
    scores = np.concatenate(scores)
    labels = np.concatenate(labels)
    return {
        "ap": average_precision(scores, labels),
        "auc": auc_roc(scores, labels),
        "num_positives": int(len(idx)),
        "nss_fallbacks": int(neg_sampler.fallback_count),
    }


def node_frequencies(store: EventStore) -> np.ndarray:
    """Interaction count per node id over the whole stream."""
    return np.bincount(
        np.concatenate([store.src, store.tgt]), minlength=store.num_nodes
    )


def attention_mass_snapshot(
    params: ModelParameters,
    cfg: ModelConfig,
    store: EventStore,
    sampler: NeighborSampler,
    probe_pairs,
    key_nodes,
    *,
    layer: int = -1,
    batch_size: int = 200,
    rng=None,
) -> dict[int, tuple[float, int]]:
    """Mean attention mass each key node receives over the probe batches.

    A node's mass in one attention sequence (a window, or under layout ml a
    pair's two stacked windows) is the final-layer attention weight landing
    on its key slots, summed over heads and valid query rows and normalized
    by (heads x valid queries); masses over all nodes of a sequence with a
    valid token sum to one. The mean runs over sequences where the node
    actually appears.
    """
    sums = {int(v): 0.0 for v in key_nodes}
    seen = {int(v): 0 for v in key_nodes}
    for start in range(0, len(probe_pairs), batch_size):
        pairs = probe_pairs[start : start + batch_size]
        seq_pairs, index = sample_pair_windows(sampler, pairs, cfg, rng)
        batch = featurize_pairs(seq_pairs, index, store, cfg)
        _, cache = forward_batch(params, cfg, batch, training=False)
        attn = attention_weights(cache, layer)  # (J, S, L, L)
        ids = to_sequences(batch.token_ids, cfg)
        qmask = to_sequences(batch.mask, cfg)
        heads = attn.shape[0]
        col_mass = (attn * qmask[None, :, :, None]).sum(axis=(0, 2))
        denom = np.maximum(qmask.sum(axis=1), 1) * heads
        col_mass /= denom[:, None]
        for v in sums:
            sel = ids == v
            present = sel.any(axis=1)
            if present.any():
                sums[v] += float((col_mass * sel).sum(axis=1)[present].sum())
                seen[v] += int(present.sum())
    return {v: (sums[v] / seen[v] if seen[v] else 0.0, seen[v]) for v in sums}


def _trace_snapshot(epoch, params, run_cfg, store, sampler, probe_pairs, key_nodes, freqs):
    # a fresh generator per snapshot: uniform windows probe the same
    # neighbors at every epoch (recent windows never draw from it)
    masses = attention_mass_snapshot(
        params, run_cfg.model, store, sampler, probe_pairs, key_nodes,
        layer=run_cfg.trace.layer, rng=np.random.default_rng(_derived_seed(run_cfg.train.seed, 5)),
    )
    return [
        AttentionTraceRecord(
            epoch=epoch, node=v, frequency=int(freqs[v]),
            mean_mass=masses[v][0], appearances=masses[v][1],
        )
        for v in sorted(masses)
    ]


def train(store: EventStore, run_cfg: RunConfig, out_dir=None) -> TrainResult:
    """Full training run with early stopping and best-checkpoint testing.

    Per-epoch train loss and validation metrics are recorded; the parameters
    with the best validation average precision are restored before the single
    test evaluation. With ``epochs=0`` the report covers the untrained model.
    """
    cfg, tr = run_cfg.model, run_cfg.train
    cfg.mte.validate_decay(store.duration_seconds)
    splits = chronological_split(store, run_cfg.split)
    sampler = NeighborSampler(store)
    params = ModelParameters(cfg, store.d_n, store.d_e, seed=tr.seed)
    adam = AdamState.for_params(params.values)

    train_neg = NegativeSampler(
        store, NegativeSamplingStrategy("random", seed=_derived_seed(tr.seed, 1)),
        train_range=splits.train,
    )
    drop_rng = np.random.default_rng(_derived_seed(tr.seed, 2))
    window_rng = np.random.default_rng(_derived_seed(tr.seed, 3))

    def run_eval(ev_range):
        return evaluate_link_prediction(
            params, cfg, store, sampler, ev_range,
            splits=splits, nss=run_cfg.nss, setting=run_cfg.setting,
            batch_size=tr.batch_size, eval_seed=evaluation_seed(tr.seed),
        )

    trace_records: list[AttentionTraceRecord] = []
    probe_pairs, key_nodes, freqs = [], [], None
    if run_cfg.trace is not None:
        freqs = node_frequencies(store)
        key_nodes = [int(v) for v in np.flatnonzero(freqs > run_cfg.trace.threshold)]
        if not key_nodes:
            log.warning(
                "attention trace requested but no node exceeds frequency %s",
                run_cfg.trace.threshold,
            )
        lo = splits.train[0]
        hi = min(splits.train[1], lo + run_cfg.trace.probe_batches * tr.batch_size)
        probe_pairs = _event_pairs(store, range(lo, hi))

    def maybe_trace(epoch_tag):
        if run_cfg.trace is not None and key_nodes and epoch_tag in run_cfg.trace.epochs:
            trace_records.extend(
                _trace_snapshot(epoch_tag, params, run_cfg, store, sampler, probe_pairs, key_nodes, freqs)
            )

    maybe_trace(0)

    epoch_records: list[dict] = []
    best_snapshot = params.snapshot()
    best = {"val_ap": -np.inf, "epoch": 0, "metrics": None}
    patience_left = tr.patience
    epochs_run = 0
    for epoch in range(1, tr.epochs + 1):
        loss_sum = 0.0
        sample_count = 0
        for pos in iter_event_batches(store, splits.train[0], splits.train[1], tr.batch_size):
            neg_tgts, _ = train_neg.sample(pos)
            batch, labels = build_scoring_batch(sampler, store, cfg, pos, neg_tgts, window_rng)
            loss, _ = loss_and_grads(params, cfg, batch, labels, training=True, rng=drop_rng)
            adam_step(params.values, params.grads, adam, tr.lr, tr.weight_decay)
            loss_sum += loss * len(labels)
            sample_count += len(labels)
        train_loss = loss_sum / sample_count
        val = run_eval(splits.val)
        epoch_records.append(
            {"epoch": epoch, "train_loss": train_loss, "val_ap": val["ap"], "val_auc": val["auc"]}
        )
        epochs_run = epoch
        maybe_trace(epoch)
        if val["ap"] > best["val_ap"]:
            best = {"val_ap": val["ap"], "epoch": epoch, "metrics": val}
            best_snapshot = params.snapshot()
            patience_left = tr.patience
        else:
            patience_left -= 1
            if patience_left == 0:
                break

    if run_cfg.trace is not None:
        missed = [e for e in run_cfg.trace.epochs if e > epochs_run]
        if missed:
            log.warning(
                "training stopped after epoch %d; no attention snapshot at epochs %s",
                epochs_run, missed,
            )
    params.restore(best_snapshot)
    if best["metrics"] is None:
        best = {"val_ap": None, "epoch": 0, "metrics": run_eval(splits.val)}
    maybe_trace(-1)
    test = run_eval(splits.test)

    report = {
        "seed": tr.seed,
        "config_hash": config_hash(run_cfg),
        "nss": run_cfg.nss,
        "setting": run_cfg.setting,
        "num_events": store.num_events,
        "num_nodes": store.num_nodes,
        "epochs_run": epochs_run,
        "best_epoch": best["epoch"],
        "val": best["metrics"],
        "test": test,
        "train_negative_fallbacks": int(train_neg.fallback_count),
    }
    result = TrainResult(
        report=report, epoch_records=epoch_records,
        trace_records=trace_records, params=params, splits=splits,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_run_log(out / "run.jsonl", epoch_records, report)
        write_metrics_csv(out / "metrics.csv", report)
        if run_cfg.trace is not None:
            write_trace_csv(out / "traces.csv", trace_records)
        save_checkpoint(
            out / "checkpoint.npz", params, adam, config_hash(run_cfg),
            extra={"best_epoch": best["epoch"]},
        )
    return result


def gradcheck_fixture(
    corpus_seed: int = 0,
    param_seed: int = 1,
    tokens: int = 4,
    batch_pairs: int = 4,
    hidden: int = 16,
):
    """Small full-width model plus a scoring batch for gradient audits.

    The reference dimensions (time 100, counts 50, season/trend 50+50) ride
    on a short synthetic stream; the time-encoder decay rate is raised to
    match the stream's span. Finite differences are only trustworthy away
    from rectifier kinks, so the default seeds pick a well-conditioned
    operating point.
    """
    from .encoders import MteConfig
    from .synth import generate_cycle_corpus

    store, _ = generate_cycle_corpus(
        num_sources=6, num_targets=18, num_events=240, seed=corpus_seed, d_e=4
    )
    if not 1 <= batch_pairs <= store.num_events:
        raise ValueError(
            f"batch_pairs must lie in [1, {store.num_events}] (the fixture corpus has "
            f"{store.num_events} events), got {batch_pairs}"
        )
    mte = MteConfig(d_t=100, granularity="weekly", r_segments=14, alpha=26.0, beta=10.0)
    mte.validate_decay(store.duration_seconds)
    cfg = ModelConfig(
        n_neighbors=tokens, hidden=hidden, layers=2, heads=2, dropout=0.0,
        d_b=50, d_s=50, d_tr=50, ste_window=3, mte=mte,
    )
    sampler = NeighborSampler(store)
    pos = _event_pairs(store, range(store.num_events - batch_pairs, store.num_events))
    neg_sampler = NegativeSampler(store, NegativeSamplingStrategy("random", seed=corpus_seed))
    neg, _ = neg_sampler.sample(pos)
    batch, labels = build_scoring_batch(
        sampler, store, cfg, pos, neg, np.random.default_rng(corpus_seed)
    )
    params = ModelParameters(cfg, store.d_n, store.d_e, seed=param_seed).astype(np.float64)
    return params, cfg, batch, labels


def variant_config(base: ModelConfig, layout: str, variant: str) -> ModelConfig:
    """Config for one ablation cell; the token projection is re-sized, not
    removed, so the transformer width stays constant across variants."""
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    changes: dict = {"layout": layout}
    if layout == "il":
        changes["time_mode"] = {"full": "mix", "-mte": "none", "fine-only": "fine"}.get(variant, "mix")
        changes["use_bie"] = variant != "-bie"
        changes["use_ste"] = variant != "-ste"
    else:
        changes["time_mode"] = "none" if variant == "-mte" else "fine"
    return replace(base, **changes)


def ablate(
    store: EventStore,
    run_cfg: RunConfig,
    *,
    layouts=("sl", "ml", "il"),
    variants=ABLATION_VARIANTS,
    epochs: int | None = None,
) -> list[dict]:
    """Train/evaluate every (layout, variant) cell under shared seed and
    splits; all configs are built first, and equal ones train once. A cell
    whose tokens have no columns is not trained, and its AP and AUC are None."""
    train_cfg = run_cfg.train if epochs is None else replace(run_cfg.train, epochs=epochs)
    cells = [(layout, variant, replace(run_cfg, model=variant_config(run_cfg.model, layout, variant),
                                       train=train_cfg, trace=None))
             for layout in layouts for variant in variants]
    test_by_config: dict[str, dict] = {}  # keyed by config_hash
    rows = []
    for layout, variant, cell in cells:
        key = config_hash(cell)
        width = cell.model.token_width(store.d_n, store.d_e)
        if width and key not in test_by_config:
            test_by_config[key] = train(store, cell).report["test"]
        test = test_by_config.get(key, {})
        rows.append(
            {
                "layout": layout,
                "variant": variant,
                "token_width": width,
                "test_ap": test.get("ap"),
                "test_auc": test.get("auc"),
            }
        )
    return rows


def write_run_log(path, epoch_records, report) -> None:
    with open(path, "w") as fh:
        for rec in epoch_records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.write(json.dumps({"report": report}, sort_keys=True) + "\n")


def write_metrics_csv(path, report) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "setting", "nss", "ap", "auc", "num_positives", "nss_fallbacks"])
        for split in ("val", "test"):
            m = report.get(split)
            if m:
                writer.writerow(
                    [split, report["setting"], report["nss"],
                     repr(m["ap"]), repr(m["auc"]), m["num_positives"], m["nss_fallbacks"]]
                )


def write_trace_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "node", "frequency", "mean_mass", "appearances"])
        for r in records:
            writer.writerow([r.epoch, r.node, r.frequency, repr(r.mean_mass), r.appearances])


def write_ablation_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, ["layout", "variant", "token_width", "test_ap", "test_auc"])
        writer.writeheader()
        writer.writerows(rows)
