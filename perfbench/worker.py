"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with the BLAS thread count fixed. A run

1. writes the workload's event file (and, for ``hotnode-eval``, a seeded
   checkpoint) from ``--seed``;
2. times the set-up several times: the event file on disk to the state the
   first batch needs;
3. runs one checked round, with hooks that feed the program's outputs to
   ``checks`` (this round is also the warm-up and is not timed);
4. runs timed rounds until ``--seconds`` have passed (at least
   ``MIN_ROUNDS``), each the same fixed set of batches, traced when
   ``--trace 1``;
5. prints a summary and, as its last line, the result JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tidegraph.attention
import tidegraph.events
import tidegraph.harness
import tidegraph.model
import tidegraph.sampling
from perfbench import checks, corpus
from perfbench.probe import Patches, Tracer, ffn_flops, msa_flops
from perfbench.workloads import BETA, D_T, WORKLOADS, Workload, decay_alpha
from tidegraph.config import RunConfig, TrainConfig
from tidegraph.encoders import MteConfig
from tidegraph.events import SplitSpec, chronological_split
from tidegraph.model import ModelConfig, ModelParameters, load_checkpoint, save_checkpoint
from tidegraph.optim import AdamState
from tidegraph.sampling import NegativeSampler, NegativeSamplingStrategy, NeighborSampler

SETUPS_PER_ROUND = 5
MIN_ROUNDS = 3
# Pairs of each captured evaluation batch checked against the reference
# forward pass: the first positives and their negatives.
FORWARD_PAIRS = 3
CAPTURED_BATCHES = 2
WINDOW_CHUNK = 512
ARCH = dict(layers=2, heads=2, ste_window=3)
OUT_DIR = ".perfbench-out"


def model_config(w: Workload, c: corpus.Corpus) -> ModelConfig:
    mte = MteConfig(
        d_t=D_T, alpha=decay_alpha(c.duration_seconds), beta=BETA,
        granularity="weekly", r_segments=c.r_segments,
    )
    return ModelConfig(
        layout=w.layout, time_mode="mix" if w.layout == "il" else "fine", mte=mte,
        layers=ARCH["layers"], heads=ARCH["heads"], ste_window=ARCH["ste_window"],
    )


def arch_for_checks(w: Workload, c: corpus.Corpus) -> dict:
    """The architecture as the checks know it, from the workload alone."""
    return dict(
        ARCH, layout=w.layout, time="mix" if w.layout == "il" else "fine",
        ste=w.layout == "il", alpha=decay_alpha(c.duration_seconds), beta=BETA,
        d_t=D_T, divisor=7 * 24 * 3600.0, r_segments=c.r_segments, num_nodes=c.num_nodes,
    )


class Setup:
    """The state a round starts from, built from the event file on disk."""

    def __init__(self, w: Workload, cfg: ModelConfig, seed: int, csv_path: Path, ckpt_path: Path | None):
        self.store = tidegraph.events.ingest_events(csv_path)
        self.splits = chronological_split(self.store, SplitSpec())
        self.sampler = NeighborSampler(self.store)
        kind = "random" if w.mode == "train" else w.nss
        self.negatives = NegativeSampler(
            self.store, NegativeSamplingStrategy(kind, seed=seed), train_range=self.splits.train
        )
        self.params = ModelParameters(cfg, self.store.d_n, self.store.d_e, seed=seed)
        if w.mode == "train":
            self.adam = AdamState.for_params(self.params.values)
        else:
            for k, v in load_checkpoint(ckpt_path)["values"].items():
                self.params.values[k][...] = v


def make_round(w: Workload, cfg: ModelConfig, seed: int, state: Setup):
    """A callable running one round and returning what must repeat bitwise."""
    if w.mode == "train":
        run_cfg = RunConfig(
            model=cfg,
            train=TrainConfig(
                lr=w.lr, epochs=w.epochs, patience=w.epochs + 1,
                batch_size=w.batch_size, seed=seed,
            ),
            nss=w.nss,
        )

        def run():
            result = tidegraph.harness.train(state.store, run_cfg)
            return {"epochs": result.epoch_records, "val": result.report["val"],
                    "test": result.report["test"]}
    else:
        def run():
            return {"test": tidegraph.harness.evaluate_link_prediction(
                state.params, cfg, state.store, state.sampler, state.splits.test,
                splits=state.splits, nss=w.nss, batch_size=w.batch_size, eval_seed=seed,
            )}
    return run


class CheckedRound:
    """Hooks that stream the program's outputs through the checks.

    Windows and negatives are checked as they are drawn; each evaluation's
    scores, labels and metrics are checked when it returns; a few batches
    are kept for the feature and reference-forward checks.
    """

    def __init__(self, c: corpus.Corpus, arch: dict):
        self.corpus, self.arch = c, arch
        self.past = checks.PastTargets(c.src, c.tgt, c.ts)
        self.problems: list[str] = []
        self.windows: list = []
        self.slots = self.pad_slots = 0
        self.losses: list[float] = []
        self.scores_finite = True
        self.batches = 0
        self.current: dict | None = None
        self.last_featurized = None
        self.featurized: list = []
        self.forwarded: list = []

    def install(self, patches: Patches) -> None:
        h, m, s = tidegraph.harness, tidegraph.model, tidegraph.sampling
        patches.after(s.NeighborSampler, "sample", self.on_window)
        patches.after(s.NegativeSampler, "sample", self.on_negatives)
        patches.after(h, "featurize_pairs", self.on_featurize)
        patches.after(m, "forward_batch", self.on_forward)
        patches.after(h, "loss_and_grads", self.on_loss)
        patches.after(h, "predict_probs", self.on_predict)
        patches.after(h, "average_precision", self.on_metric("ap"))
        patches.after(h, "auc_roc", self.on_metric("auc"))
        patches.wrap(h, "evaluate_link_prediction", self.evaluation)

    def flush_windows(self) -> None:
        self.problems += checks.check_windows(self.corpus.src, self.corpus.tgt, self.corpus.ts, self.windows)
        self.windows = []

    def on_window(self, seq, *_args, **_kw):
        self.windows.append(seq)
        self.slots += len(seq.ids)
        self.pad_slots += int(np.count_nonzero(seq.ids == checks.PAD))
        if len(self.windows) >= WINDOW_CHUNK:
            self.flush_windows()

    def on_negatives(self, result, sampler, positives):
        neg, fell_back = result
        self.batches += 1
        self.problems += checks.check_negatives(self.past, sampler.strategy.kind, positives, neg, fell_back)
        if self.current is not None:
            self.current["fallbacks"] += int(np.count_nonzero(fell_back))
            self.current["positives"].append(len(positives))

    def on_featurize(self, batch, seq_pairs, *_args, **_kw):
        self.last_featurized = (seq_pairs, batch)
        if len(self.featurized) < CAPTURED_BATCHES:
            self.featurized.append(self.last_featurized)

    def on_forward(self, result, params, _cfg, batch, training=False, rng=None):
        if training or len(self.forwarded) >= CAPTURED_BATCHES:
            return
        seq_pairs, featurized = self.last_featurized
        if featurized is batch:
            values = {k: v.copy() for k, v in params.values.items()}
            self.forwarded.append((seq_pairs, batch, values, result[0].copy()))

    def on_loss(self, result, *_args, **_kw):
        loss, probs = result
        self.losses.append(loss)
        self.scores_finite &= bool(np.all(np.isfinite(probs)))

    def on_predict(self, probs, *_args, **_kw):
        self.scores_finite &= bool(np.all(np.isfinite(probs)))
        if self.current is not None:
            self.current["scores"].append(probs.copy())

    def on_metric(self, key):
        def hook(value, scores, labels):
            if self.current is not None:
                self.current[key] = (value, np.array(scores), np.array(labels))
        return hook

    def evaluation(self, original):
        def wrapper(*args, **kwargs):
            self.current = {"fallbacks": 0, "positives": [], "scores": []}
            result = original(*args, **kwargs)
            cur, self.current = self.current, None
            scores = np.concatenate(cur["scores"])
            ap, ap_scores, labels = cur["ap"]
            auc, auc_scores, auc_labels = cur["auc"]
            if not (np.array_equal(ap_scores, scores) and np.array_equal(auc_scores, scores)
                    and np.array_equal(auc_labels, labels)):
                self.problems.append("the ranked scores are not the scores the model produced")
            self.problems += checks.check_ranking(scores, labels, cur["positives"], ap, auc)
            if result["ap"] != ap or result["auc"] != auc:
                self.problems.append("the reported AP/AUC are not the computed ones")
            if result["nss_fallbacks"] != cur["fallbacks"]:
                self.problems.append(
                    f"{result['nss_fallbacks']} fallbacks reported, {cur['fallbacks']} flagged"
                )
            return result
        return wrapper

    def finish(self, feats: np.ndarray) -> None:
        """Run the checks that wait for the end of the round."""
        self.flush_windows()
        rows = lambda sp: [p[0] for p in sp] + [p[1] for p in sp]
        for seq_pairs, batch in self.featurized:
            self.problems += checks.check_features(rows(seq_pairs), batch, feats, self.arch)
        if not self.forwarded:
            self.problems.append("no evaluation batch was captured for the reference forward")
        for seq_pairs, batch, values, probs in self.forwarded:
            self.problems += checks.check_features(rows(seq_pairs), batch, feats, self.arch)
            half = batch.num_pairs // 2
            pairs = list(range(FORWARD_PAIRS)) + [half + i for i in range(FORWARD_PAIRS)]
            self.problems += checks.check_forward(batch, values, self.arch, probs, pairs)


def check_round(w: Workload, c: corpus.Corpus, cap: CheckedRound, record: dict) -> list[str]:
    """Checks on the whole round: counts, learning and the AP floor."""
    problems = list(cap.problems)
    train, val, test = w.split()
    batches, _ = w.round_shape()
    if cap.batches != batches:
        problems.append(f"{cap.batches} scoring batches ran, the round has {batches}")
    problems += checks.check_positives(record["test"]["num_positives"], test, "test")
    if w.mode == "train":
        problems += checks.check_positives(record["val"]["num_positives"], val, "val")
        problems += checks.check_learning(
            cap.losses, [e["train_loss"] for e in record["epochs"]], cap.scores_finite
        )
        problems += checks.check_ap_floor(record["test"]["ap"], w.ap_floor)
    elif not cap.scores_finite:
        problems.append("a score is not finite")
    return problems


# ------------------------------------------------------------------ tracing


def install_tracer(tracer: Tracer, patches: Patches) -> None:
    h, m, a, s = tidegraph.harness, tidegraph.model, tidegraph.attention, tidegraph.sampling
    span = tracer.span_wrapper

    def bie(tr, result, *_a, **_k):
        tr.count("bie.pairs", 1)
        tr.count("bie.hits", sum(len(r.replacements) for r in result))
        tr.count("bie.ids", sum(len(v) for r in result for v in r.replacements.values()))

    def msa_fwd(tr, _r, x, _mask, wq, *_a, **_k):
        tr.count("attention.flop", msa_flops(x.shape, wq.shape[0], wq.shape[2]))

    def msa_bwd(tr, _r, _grad, cache):
        wq = cache["weights"][0]
        tr.count("attention.flop", msa_flops(cache["x"].shape, wq.shape[0], wq.shape[2], backward=True))

    def ffn_fwd(tr, _r, x, w1, *_a, **_k):
        tr.count("attention.flop", ffn_flops(x.shape, w1.shape[1]))

    def ffn_bwd(tr, _r, _grad, cache):
        tr.count("attention.flop", ffn_flops(cache[0].shape, cache[4].shape[1], backward=True))

    def window(tr, *_a, **_k):
        tr.count("sampling.window_calls", 1)

    for owner, attr, name, counter in (
        (tidegraph.events, "ingest_events", "events.ingest", None),
        (h, "train", "harness.train", None),
        (h, "evaluate_link_prediction", "harness.evaluate", None),
        (h, "build_scoring_batch", "harness.build_scoring_batch", None),
        (h, "sample_pair_windows", "harness.sample_pair_windows", None),
        (h, "featurize_pairs", "model.featurize", None),
        (h, "loss_and_grads", "model.loss_and_grads", None),
        (h, "predict_probs", "model.predict_probs", None),
        (h, "adam_step", "optim.adam", None),
        (h, "average_precision", "metrics.ap", None),
        (h, "auc_roc", "metrics.auc", None),
        (s.NeighborSampler, "sample", "sampling.window", window),
        (s.NegativeSampler, "sample", "sampling.negative", None),
        (m, "bie_reconstruct", "encoders.bie_reconstruct", bie),
        (m, "bie_counts", "encoders.bie_counts", None),
        (m, "encode_fine_time", "encoders.fine_time", None),
        (m, "encode_coarse_time", "encoders.coarse_time", None),
        (m, "mix_temporal", "encoders.mix_temporal", None),
        (m, "ste_decompose", "encoders.ste", None),
        (m, "forward_batch", "model.forward", None),
        (m, "backward_batch", "model.backward", None),
        (a, "multi_head_attention", "attention.msa_fwd", msa_fwd),
        (a, "multi_head_attention_backward", "attention.msa_bwd", msa_bwd),
        (a, "ffn_forward", "attention.ffn_fwd", ffn_fwd),
        (a, "ffn_backward", "attention.ffn_bwd", ffn_bwd),
        (a, "layer_norm_forward", "attention.ln_fwd", None),
        (a, "layer_norm_backward", "attention.ln_bwd", None),
    ):
        patches.wrap(owner, attr, span(name, counter))


# Per-batch layer metrics: name -> span names whose inclusive time is summed.
INCLUSIVE_MS = {
    "sampling.window_ms": ("sampling.window",),
    "sampling.negative_ms": ("sampling.negative",),
    "encoders.bie_ms": ("encoders.bie_reconstruct", "encoders.bie_counts"),
    "encoders.time_ms": ("encoders.fine_time", "encoders.coarse_time", "encoders.mix_temporal"),
    "encoders.ste_ms": ("encoders.ste",),
    "model.forward_ms": ("model.forward",),
    "model.backward_ms": ("model.backward",),
    "attention.msa_fwd_ms": ("attention.msa_fwd",),
    "attention.msa_bwd_ms": ("attention.msa_bwd",),
    "attention.ffn_fwd_ms": ("attention.ffn_fwd",),
    "attention.ffn_bwd_ms": ("attention.ffn_bwd",),
    "attention.ln_fwd_ms": ("attention.ln_fwd",),
    "attention.ln_bwd_ms": ("attention.ln_bwd",),
    "optim.adam_ms": ("optim.adam",),
}
HARNESS_SPANS = ("harness.train", "harness.evaluate", "harness.build_scoring_batch",
                 "harness.sample_pair_windows")
UNITS = {
    "events.ingest_s": "s", "sampling.window_calls": "calls/batch",
    "encoders.bie_replacements": "count/pair", "encoders.bie_replacement_ids": "count/pair",
    "model.featurize_ms": "ms/batch", "attention.gflop": "GFLOP/batch", "optim.adam_ms": "ms/step",
    "metrics.rank_ms": "ms/eval", "harness.self_ms": "ms/batch", "process.minflt": "faults/batch",
    "process.sys_s": "s/run", "trace.pairs_per_s": "pairs/s",
}


def layer_metrics(tracer: Tracer, ingest_s: float, minflt: int, sys_s: float, traced_pps: float) -> dict:
    dur, self_t = tracer.durations(), tracer.self_time
    totals = {name: sum(v for (n, _b), v in tracer.counts.items() if n == name)
              for name in ("bie.pairs", "bie.hits", "bie.ids")}
    pairs = totals["bie.pairs"]
    values = {"events.ingest_s": ingest_s}
    for name, spans in INCLUSIVE_MS.items():
        values[name] = 1e3 * tracer.per_batch(dur, spans)
    values.update({
        "sampling.window_calls": tracer.per_batch(tracer.counts, ("sampling.window_calls",)),
        "encoders.bie_replacements": totals["bie.hits"] / pairs if pairs else 0.0,
        "encoders.bie_replacement_ids": totals["bie.ids"] / pairs if pairs else 0.0,
        "model.featurize_ms": 1e3 * tracer.per_batch(self_t, ("model.featurize",)),
        "attention.gflop": tracer.per_batch(tracer.counts, ("attention.flop",)) / 1e9,
        "metrics.rank_ms": 1e3 * tracer.per_parent(("metrics.ap", "metrics.auc")),
        "harness.self_ms": 1e3 * tracer.per_batch(self_t, HARNESS_SPANS),
        "process.minflt": minflt / max(tracer.num_batches, 1),
        "process.sys_s": sys_s,
        "trace.pairs_per_s": traced_pps,
    })
    return {k: {"value": float(v), "unit": UNITS.get(k, "ms/batch")} for k, v in sorted(values.items())}


# --------------------------------------------------------------------- main


class Measurement:
    """Timed rounds, with set-up repetitions between them.

    The host's speed drifts over tens of seconds, so the set-ups are spread
    over the whole run like the rounds, not taken in one burst.
    """

    def __init__(self):
        self.round_s: list[float] = []
        self.setup_s: list[float] = []

    def run(self, setup, run_round, seconds: float, reference: dict, problems: list[str]) -> None:
        start = time.perf_counter()
        while len(self.round_s) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            for _ in range(SETUPS_PER_ROUND):
                t0 = time.perf_counter()
                setup()
                self.setup_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            record = run_round()
            self.round_s.append(time.perf_counter() - t0)
            problems += checks.check_same(reference, record, f"round {len(self.round_s)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    root = Path(__file__).resolve().parent.parent
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=out))
    try:
        c = corpus.generate(w.corpus, args.seed)
        csv_path = corpus.write(c, work / "events.csv")
        cfg = model_config(w, c)
        ckpt = None
        if w.mode == "eval":
            ckpt = work / "checkpoint.npz"
            save_checkpoint(ckpt, ModelParameters(cfg, 0, c.spec.d_e, seed=args.seed))
        setup = lambda: Setup(w, cfg, args.seed, csv_path, ckpt)
        run_round = make_round(w, cfg, args.seed, setup())

        cap = CheckedRound(c, arch_for_checks(w, c))
        with Patches() as patches:
            cap.install(patches)
            reference = run_round()
        cap.finish(c.feats)
        problems = check_round(w, c, cap, reference)

        batches, pairs = w.round_shape()
        m = Measurement()
        if args.trace:
            tracer = Tracer()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with Patches() as patches:
                install_tracer(tracer, patches)
                m.run(setup, run_round, args.seconds, reference, problems)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            ingest = [e - s for name, s, e, _p, _b in tracer.spans if name == "events.ingest"]
            self_sum = sum(t for t, span in zip(tracer.span_self_times(), tracer.spans)
                           if span[0] != "events.ingest")
            wall = sum(m.round_s)
            if abs(self_sum - wall) > 0.01 * wall:
                problems.append(f"span self times add to {self_sum:.3f} s over {wall:.3f} s of rounds")
            metrics = layer_metrics(tracer, statistics.median(ingest), usage.ru_minflt - faults,
                                    usage.ru_stime, pairs / statistics.median(m.round_s))
            trace_path = out / f"trace-{w.name}-seed{args.seed}.json"
            with open(trace_path, "w") as fh:
                json.dump(dict(tracer.to_json(), rounds_s=m.round_s, self_sum_s=self_sum,
                               metrics=metrics), fh)
            print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(root)}; "
                  f"their self times add to {self_sum:.3f} s of {wall:.3f} s of rounds")
        else:
            m.run(setup, run_round, args.seconds, reference, problems)
            metrics = {
                "pairs_per_s": {"value": pairs / statistics.median(m.round_s), "unit": "pairs/s"},
                "setup_s": {"value": statistics.median(m.setup_s), "unit": "s"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = batches * (len(m.round_s) + 1)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"workload {w.name} seed {args.seed}: {len(m.round_s)} timed rounds of {batches} batches "
          f"and {pairs} pairs, round times {[round(t, 3) for t in m.round_s]}, "
          f"{len(m.setup_s)} set-ups")
    print(f"  checked round: test AP {reference['test']['ap']:.4f}, "
          f"PAD share of windows {cap.pad_slots / cap.slots:.3f}, {len(problems)} problems")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
