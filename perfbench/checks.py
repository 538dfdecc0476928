"""Output checks made apart from the program.

Every check takes plain arrays (or objects with the same attributes as the
program's records), recomputes what it can from the benchmark's own corpus
arrays and the architecture, and returns a list of problems; an empty list
means the check passed. Nothing here imports the program, so a fault in the
program cannot hide in its own reference.

Tolerances (see README.md) are loose enough for a float32 compute policy:

* probabilities: |p - p_ref| <= PROB_ATOL + PROB_RTOL * |p_ref|;
* time-encoder and season/trend columns: absolute FEATURE_ATOL;
* AP and AUC: absolute RANK_ATOL, since both sides use the same scores.
"""

from __future__ import annotations

from math import sqrt

import numpy as np
from scipy.stats import rankdata

PAD = -1
PROB_ATOL, PROB_RTOL = 1e-5, 1e-4
FEATURE_ATOL = 1e-5
RANK_ATOL = 1e-9
LN_EPS = 1e-5


def _first(problems: list[str], limit: int = 5) -> list[str]:
    if len(problems) > limit:
        return problems[:limit] + [f"... and {len(problems) - limit} more"]
    return problems


# ---------------------------------------------------------------- sampling


def check_windows(src, tgt, ts, windows) -> list[str]:
    """No window holds an event at or after its query time.

    Each non-PAD slot must name an event of the store whose endpoints are the
    window's anchor and the slot's id, whose time is the slot's time, and
    which happened strictly before the query time.
    """
    problems = []
    for w in windows:
        real = w.ids != PAD
        eids = w.event_ids[real]
        if eids.size == 0:
            continue
        if eids.min() < 0 or eids.max() >= len(ts):
            problems.append(f"window of {w.anchor} at {w.query_time}: event id out of range")
            continue
        ends = {(int(a), int(b)) for a, b in zip(src[eids], tgt[eids])}
        partners = np.where(src[eids] == w.anchor, tgt[eids], src[eids])
        if any(w.anchor not in e for e in ends) or not np.array_equal(partners, w.ids[real]):
            problems.append(f"window of {w.anchor} at {w.query_time}: slots do not match the store")
        if not np.array_equal(ts[eids], w.times[real]):
            problems.append(f"window of {w.anchor} at {w.query_time}: slot times differ from the store")
        late = ts[eids] >= w.query_time
        if late.any():
            problems.append(
                f"window of {w.anchor} at {w.query_time}: {int(late.sum())} event(s) at or after the query time"
            )
    return _first(problems)


class PastTargets:
    """Targets each source met strictly before a time, from the store arrays."""

    def __init__(self, src, tgt, ts):
        self._by_src: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for s in np.unique(src):
            rows = np.flatnonzero(src == s)
            self._by_src[int(s)] = (ts[rows], tgt[rows])
        self.universe = set(int(v) for v in np.unique(tgt))

    def before(self, s: int, t: float) -> set[int]:
        times, targets = self._by_src.get(int(s), (np.empty(0), np.empty(0, dtype=np.int64)))
        return set(int(v) for v in targets[times < t])


def check_negatives(past: PastTargets, kind: str, positives, negatives, fell_back) -> list[str]:
    """One negative per positive, never the positive's own target.

    Historical negatives must be targets the source met strictly before the
    positive's time, unless flagged as a fallback, and a fallback is allowed
    only when no such target exists. Random negatives must be targets.
    """
    problems = []
    if len(negatives) != len(positives) or len(fell_back) != len(positives):
        return [f"{len(negatives)} negatives for {len(positives)} positives"]
    for (s, t, tm), v, fb in zip(positives, negatives, fell_back):
        v = int(v)
        if v == int(t):
            problems.append(f"negative of ({s}, {t}, {tm}) is the positive target")
        if v not in past.universe:
            problems.append(f"negative {v} of ({s}, {t}, {tm}) is not a target")
        if kind == "random":
            continue
        pool = past.before(s, tm) - {int(t)}
        if fb and pool:
            problems.append(f"({s}, {t}, {tm}) fell back with {len(pool)} past targets available")
        if not fb and v not in pool:
            problems.append(f"historical negative {v} of ({s}, {t}, {tm}) was not met before {tm}")
    return _first(problems)


# ----------------------------------------------------------------- ranking


def reference_ap(scores, labels) -> float:
    """Mean over positives of the precision at their rank; equal scores keep
    their input order, as the program's metric documents."""
    order = np.lexsort((np.arange(len(scores)), -np.asarray(scores)))
    hits = np.asarray(labels)[order] > 0
    ranks = np.flatnonzero(hits) + 1
    return float(np.mean(np.arange(1, len(ranks) + 1) / ranks))


def reference_auc(scores, labels) -> float:
    """Mann-Whitney U over midranks, divided by n_pos * n_neg."""
    labels = np.asarray(labels) > 0
    ranks = rankdata(scores)
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def structural_labels(batch_positives) -> np.ndarray:
    """Labels implied by the batch layout: P positives, then their P negatives."""
    return np.concatenate([np.r_[np.ones(p), np.zeros(p)] for p in batch_positives])


def check_ranking(scores, labels, batch_positives, ap, auc) -> list[str]:
    """AP and AUC equal an independent computation from the scores.

    ``labels`` are the ones the program ranked with; they must match the
    batch layout, and the reported metrics must match the recomputation from
    the scores and the layout's labels.
    """
    problems = []
    expected = structural_labels(batch_positives)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != expected.shape:
        return [f"{scores.size} scores for {expected.size} candidates"]
    if not np.array_equal(np.asarray(labels, dtype=np.float64), expected):
        problems.append(f"{int((np.asarray(labels) != expected).sum())} labels differ from the batch layout")
    if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
        problems.append("scores outside [0, 1] or not finite")
        return problems
    ref_ap, ref_auc = reference_ap(scores, expected), reference_auc(scores, expected)
    if abs(ap - ref_ap) > RANK_ATOL:
        problems.append(f"AP {ap!r} != independent {ref_ap!r}")
    if abs(auc - ref_auc) > RANK_ATOL:
        problems.append(f"AUC {auc!r} != independent {ref_auc!r}")
    return problems


def check_positives(reported: int, split_range: tuple[int, int], name: str) -> list[str]:
    expected = split_range[1] - split_range[0]
    if reported != expected:
        return [f"{name}: {reported} positives scored, the split holds {expected}"]
    return []


# ---------------------------------------------------------------- learning


def check_learning(losses, epoch_losses, scores_finite: bool) -> list[str]:
    """Every loss and score is finite and the training loss falls."""
    problems = []
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0 or not np.all(np.isfinite(losses)):
        problems.append("a training loss is not finite (or none was recorded)")
    if not scores_finite:
        problems.append("a score is not finite")
    if len(epoch_losses) < 2 or not np.all(np.isfinite(epoch_losses)):
        problems.append(f"epoch losses {epoch_losses} cannot show learning")
    elif not epoch_losses[-1] < epoch_losses[0]:
        problems.append(f"training loss did not fall: {epoch_losses[0]!r} -> {epoch_losses[-1]!r}")
    return problems


def check_ap_floor(test_ap: float, floor: float) -> list[str]:
    if not test_ap >= floor:
        return [f"test AP {test_ap!r} below the floor {floor}"]
    return []


def check_same(first, other, what: str) -> list[str]:
    """Bitwise equality of two records of floats (lists, dicts or scalars)."""
    def flat(x):
        if isinstance(x, dict):
            return [(k, v) for k in sorted(x) for v in flat(x[k])]
        if isinstance(x, (list, tuple)):
            return [v for item in x for v in flat(item)]
        return [float(x).hex() if isinstance(x, float) else x]

    a, b = flat(first), flat(other)
    if a != b:
        diff = next((i for i, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))
        return [f"{what} differs between two runs of the same seed at item {diff}"]
    return []


# ---------------------------------------------------------------- features


def reference_mte(delta, alpha, beta, d_t, divisor, r_segments, coarse: bool) -> np.ndarray:
    """cos(omega * dt) + floor(dt / divisor) / R, omega_j = alpha**(-j/beta)."""
    omega = np.array([alpha ** (-j / beta) for j in range(d_t)])
    out = np.cos(delta[..., None] * omega)
    if coarse:
        out = out + (np.floor(delta / divisor) / r_segments)[..., None]
    return out


def reference_ste(ids, num_nodes, window) -> tuple[np.ndarray, np.ndarray]:
    """Replicate-padded moving average of ids/num_nodes (PAD = 0) and its remainder."""
    signal = np.where(ids == PAD, 0.0, ids / float(num_nodes))
    half = window // 2
    trend = np.empty_like(signal)
    n = signal.shape[-1]
    for k in range(n):
        idx = np.clip(np.arange(k - half, k + half + 1), 0, n - 1)
        trend[..., k] = signal[..., idx].mean(axis=-1)
    return signal - trend, trend


def check_features(windows, batch, feats, arch) -> list[str]:
    """Recompute the edge-feature, MTE and STE columns of a featurized batch.

    ``windows`` are the batch's rows in order (sources, then targets), and
    ``feats`` is the store's edge-feature matrix. BIE is left out: its
    dictionaries can hold windows sampled at a later pair's time.
    """
    problems = []
    ids = np.stack([w.ids for w in windows])
    if not np.array_equal(ids, batch.token_ids) or not np.array_equal(ids != PAD, batch.mask):
        problems.append("token ids or mask differ from the sampled windows")
    eids = np.stack([w.event_ids for w in windows])
    h = np.where((eids >= 0)[..., None], feats[np.maximum(eids, 0)], 0.0)
    if h.shape != batch.h.shape or not np.allclose(batch.h, h, rtol=0, atol=FEATURE_ATOL):
        problems.append("edge-feature columns differ from the store")
    if arch["time"] != "none":
        delta = np.stack([w.query_time - w.times for w in windows])
        ref = reference_mte(
            delta, arch["alpha"], arch["beta"], arch["d_t"], arch["divisor"],
            arch["r_segments"], coarse=arch["time"] == "mix",
        )
        err = np.max(np.abs(batch.tmix - ref)) if batch.tmix.shape == ref.shape else np.inf
        if not err <= FEATURE_ATOL:
            problems.append(f"MTE columns differ from cos(w dt) + floor(dt/divisor)/R by {err:.3e}")
    if arch["ste"]:
        season, trend = reference_ste(ids, arch["num_nodes"], arch["ste_window"])
        for name, got, ref in (("season", batch.season, season), ("trend", batch.trend, trend)):
            err = np.max(np.abs(got[..., 0] - ref)) if got.shape[:-1] == ref.shape else np.inf
            if not err <= FEATURE_ATOL:
                problems.append(f"STE {name} column differs from the moving average by {err:.3e}")
    return problems


# ----------------------------------------------------------------- forward


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _encode(x, mask, v, layers, heads):
    """Input projection, then post-LN blocks of masked MSA and a 4h FFN."""
    x = x @ v["input.w"] + v["input.b"]
    for l in range(layers):
        p = f"layers.{l}."
        outs = []
        for j in range(heads):
            q, k, val = x @ v[p + "wq"][j], x @ v[p + "wk"][j], x @ v[p + "wv"][j]
            s = q @ k.T / sqrt(q.shape[1])
            w = np.zeros_like(s)
            if mask.any():
                e = np.exp(s[:, mask] - s[:, mask].max(axis=1, keepdims=True))
                w[:, mask] = e / e.sum(axis=1, keepdims=True)
            outs.append(w @ val)
        x = _layer_norm(x + np.hstack(outs) @ v[p + "wo"] + v[p + "bo"], v[p + "ln1_g"], v[p + "ln1_b"])
        f = np.maximum(x @ v[p + "ffn_w1"] + v[p + "ffn_b1"], 0.0) @ v[p + "ffn_w2"] + v[p + "ffn_b2"]
        x = _layer_norm(x + f, v[p + "ln2_g"], v[p + "ln2_b"])
    return x


def _mean_valid(x, mask):
    return x[mask].mean(axis=0) if mask.any() else np.zeros(x.shape[1])


def _tokens(batch, r, v):
    """Token block of one window: features, time, BIE lift, season, trend."""
    blocks = [batch.h[r]]
    if batch.tmix is not None:
        blocks.append(batch.tmix[r])
    if batch.counts is not None:
        hid = np.maximum(batch.counts[r] @ v["bie.w1"] + v["bie.b1"], 0.0)
        blocks.append(hid @ v["bie.w2"] + v["bie.b2"])
    if batch.season is not None:
        blocks.append(batch.season[r] @ v["ste.ws"] + v["ste.bs"])
        blocks.append(batch.trend[r] @ v["ste.wt"] + v["ste.bt"])
    return np.hstack(blocks)


def reference_probs(batch, values, arch, pairs) -> np.ndarray:
    """Link probabilities of the chosen pairs, one window at a time."""
    p = batch.num_pairs
    out = []
    for i in pairs:
        xs, xt = _tokens(batch, i, values), _tokens(batch, p + i, values)
        ms, mt = batch.mask[i], batch.mask[p + i]
        if arch["layout"] == "ml":
            n = len(ms)
            y = _encode(np.vstack([xs, xt]), np.r_[ms, mt], values, arch["layers"], arch["heads"])
            es, et = _mean_valid(y[:n], ms), _mean_valid(y[n:], mt)
        else:
            es = _mean_valid(_encode(xs, ms, values, arch["layers"], arch["heads"]), ms)
            et = _mean_valid(_encode(xt, mt, values, arch["layers"], arch["heads"]), mt)
        hid = np.maximum(np.r_[es, et] @ values["link.w1"] + values["link.b1"], 0.0)
        logit = float((hid @ values["link.w2"] + values["link.b2"])[0])
        out.append(1.0 / (1.0 + np.exp(-logit)))
    return np.array(out)


def check_forward(batch, values, arch, probs, pairs) -> list[str]:
    """The program's probabilities match the reference on the chosen pairs."""
    ref = reference_probs(batch, values, arch, pairs)
    got = np.asarray(probs, dtype=np.float64)[list(pairs)]
    bad = np.abs(got - ref) > PROB_ATOL + PROB_RTOL * np.abs(ref)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{int(bad.sum())} of {len(ref)} probabilities differ from the reference, "
                f"e.g. pair {pairs[i]}: {float(got[i])!r} vs {float(ref[i])!r}"]
    return []
