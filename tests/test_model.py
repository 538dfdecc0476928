"""End-to-end model: widths, gradients, determinism, capacity, checkpoints."""

import dataclasses
import json

import numpy as np
import pytest

import tidegraph.model
from tidegraph.cli import main
from tidegraph.config import RunConfig, TraceSpec, TrainConfig
from tidegraph.encoders import MteConfig
from tidegraph.errors import CheckFailure, ConfigError
from tidegraph.harness import (
    attention_mass_snapshot,
    build_scoring_batch,
    gradcheck_fixture,
    sample_pair_windows,
    train,
    variant_config,
)
from tidegraph.model import (
    ModelConfig,
    ModelParameters,
    attention_weights,
    batch_loss,
    featurize_pairs,
    forward_batch,
    grad_check,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
from tidegraph.optim import AdamState, adam_step
from tidegraph.sampling import PAD_ID, NegativeSampler, NegativeSamplingStrategy, NeighborSampler
from tidegraph.synth import generate_cycle_corpus


def small_cfg(**kw):
    defaults = dict(
        n_neighbors=4, hidden=8, layers=1, heads=2, dropout=0.0,
        d_b=3, d_s=2, d_tr=2, ste_window=3,
        mte=MteConfig(d_t=6, alpha=26.0, beta=10.0, granularity="weekly", r_segments=4),
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_batch(cfg, corpus_seed=0, pairs=3):
    store, _ = generate_cycle_corpus(num_sources=5, num_targets=15, num_events=150, seed=corpus_seed, d_e=2)
    sampler = NeighborSampler(store)
    pos = [(int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i]))
           for i in range(store.num_events - pairs, store.num_events)]
    neg, _ = NegativeSampler(store, NegativeSamplingStrategy("random", seed=1)).sample(pos)
    batch, labels = build_scoring_batch(sampler, store, cfg, pos, neg, np.random.default_rng(0))
    return store, batch, labels


class TestConfig:
    def test_token_width_sum_mode(self):
        cfg = small_cfg()
        assert cfg.token_width(0, 2) == 2 + 6 + 3 + 2 + 2

    def test_token_width_concat_mode(self):
        cfg = small_cfg(mte=MteConfig(d_t=6, alpha=26.0, beta=10.0, combine="concat"))
        assert cfg.token_width(0, 2) == 2 + 12 + 3 + 2 + 2

    def test_token_width_ablations(self):
        assert small_cfg(time_mode="none").token_width(0, 2) == 2 + 3 + 2 + 2
        assert small_cfg(use_bie=False).token_width(0, 2) == 2 + 6 + 2 + 2
        assert small_cfg(use_ste=False).token_width(0, 2) == 2 + 6 + 3
        assert small_cfg(layout="sl").token_width(0, 2) == 2 + 6
        assert small_cfg(layout="ml").token_width(0, 2) == 2 + 6

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            small_cfg(hidden=9, heads=2)
        with pytest.raises(ConfigError):
            small_cfg(dropout=1.0)
        with pytest.raises(ConfigError):
            small_cfg(layout="both")

    def test_neighbor_strategy_checked(self):
        with pytest.raises(ConfigError, match="neighbor_strategy must be recent/uniform, got 'recnt'"):
            small_cfg(neighbor_strategy="recnt")
        assert small_cfg(neighbor_strategy="uniform").neighbor_strategy == "uniform"

    @pytest.mark.parametrize("window", [0, 2, 5, -1])
    def test_ste_window_checked_when_ste_is_on(self, window):
        # n_neighbors is 4: the window must be odd and at most 4
        with pytest.raises(ConfigError, match="ste_window"):
            small_cfg(ste_window=window)
        with pytest.raises(ConfigError, match="ste_window"):
            dataclasses.replace(small_cfg(layout="sl"), layout="il", ste_window=window)
        # a window that STE never uses is not checked
        for changes in ({"use_ste": False}, {"layout": "sl"}, {"layout": "ml"}):
            assert small_cfg(ste_window=window, **changes).ste_window == window
        assert small_cfg(ste_window=3).ste_window == 3


class TestForward:
    def test_probabilities_in_range_all_layouts(self):
        for layout in ("il", "sl", "ml"):
            cfg = small_cfg(layout=layout)
            store, batch, labels = tiny_batch(cfg)
            params = ModelParameters(cfg, store.d_n, store.d_e, seed=0)
            probs, cache = forward_batch(params, cfg, batch)
            assert probs.shape == labels.shape
            assert np.all((probs > 0) & (probs < 1))
            assert cache["final_rows"].shape == (batch.mask.sum(), cfg.hidden)
            assert np.all(np.isfinite(cache["final_rows"]))

    def test_cold_start_windows_are_finite(self):
        # anchors with no history at all produce all-PAD windows
        cfg = small_cfg()
        store, _, _ = tiny_batch(cfg)
        sampler = NeighborSampler(store)
        pairs = [(0, 6, 0.5)]  # before any event
        seq_pairs, index = sample_pair_windows(sampler, pairs, cfg)
        assert not seq_pairs[0][0].mask.any()
        batch = featurize_pairs(seq_pairs, index, store, cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=0)
        probs, _ = forward_batch(params, cfg, batch)
        assert np.all(np.isfinite(probs))

    def test_forward_is_deterministic(self):
        cfg = small_cfg()
        store, batch, labels = tiny_batch(cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=3)
        a, _ = forward_batch(params, cfg, batch)
        b, _ = forward_batch(params, cfg, batch)
        np.testing.assert_array_equal(a, b)

    def test_dropout_träining_changes_output_eval_does_not(self):
        cfg = small_cfg(dropout=0.4)
        store, batch, labels = tiny_batch(cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=3)
        t1, _ = forward_batch(params, cfg, batch, training=True, rng=np.random.default_rng(0))
        t2, _ = forward_batch(params, cfg, batch, training=True, rng=np.random.default_rng(1))
        assert not np.array_equal(t1, t2)
        e1, _ = forward_batch(params, cfg, batch)
        e2, _ = forward_batch(params, cfg, batch)
        np.testing.assert_array_equal(e1, e2)


class TestGradients:
    @pytest.mark.parametrize("layout,variant", [
        ("il", "full"), ("sl", "full"), ("ml", "full"),
        ("il", "-bie"), ("il", "-ste"), ("il", "-mte"),
    ])
    def test_every_parameter_is_trained(self, layout, variant):
        # a tensor that no gradient reaches would be allocated, decayed and
        # checkpointed for nothing. The counts are non-negative and bie.b1
        # starts at zero, so a count-lift unit whose two weights are both
        # negative is dead at init (chance 1/4 per unit); d_b = 16 keeps an
        # all-dead lift, which would read as an unreachable tensor, out of reach
        cfg = variant_config(small_cfg(d_b=16), layout, variant)
        store, batch, labels = tiny_batch(cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        loss_and_grads(params, cfg, batch, labels)
        untrained = [k for k, g in params.grads.items() if not np.any(g)]
        assert untrained == []

    def test_gradcheck_small_models_all_layouts(self):
        for layout in ("il", "sl", "ml"):
            cfg = small_cfg(layout=layout)
            store, batch, labels = tiny_batch(cfg)
            params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
            err = grad_check(params, cfg, batch, labels, epsilon=1e-5,
                             num_checks=150, rng=np.random.default_rng(0))
            assert err < 1e-4, f"layout {layout}: {err}"

    def test_gradcheck_checks_a_float64_copy(self):
        # central differences at epsilon 1e-5 need float64; the caller's
        # float32 parameters and gradient buffers are left as they were
        cfg = small_cfg()
        store, batch, labels = tiny_batch(cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        before = params.snapshot()
        err = grad_check(params, cfg, batch, labels, epsilon=1e-5,
                         num_checks=50, rng=np.random.default_rng(0))
        assert err < 1e-4
        assert params.dtype == np.float32
        for k, v in before.items():
            assert params.values[k].dtype == np.float32
            np.testing.assert_array_equal(params.values[k], v)
            assert not params.grads[k].any()

    def test_gradcheck_reference_dimensions(self):
        params, cfg, batch, labels = gradcheck_fixture()
        err = grad_check(params, cfg, batch, labels, epsilon=1e-5,
                         num_checks=250, rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_gradcheck_concat_time_mode(self):
        cfg = small_cfg(mte=MteConfig(d_t=6, alpha=26.0, beta=10.0, combine="concat"))
        store, batch, labels = tiny_batch(cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        err = grad_check(params, cfg, batch, labels, epsilon=1e-5,
                         num_checks=150, rng=np.random.default_rng(0))
        assert err < 1e-4

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-7])
    def test_gradcheck_concat_time_mode_smaller_steps(self, epsilon):
        # roundoff grows as epsilon shrinks; the allowance follows it, so the
        # same bound holds at steps where |a - n| / max(|a|, |n|) alone
        # reads 2e-3 (1e-6) and 1e-2 (1e-7)
        cfg = small_cfg(mte=MteConfig(d_t=6, alpha=26.0, beta=10.0, combine="concat"))
        store, batch, labels = tiny_batch(cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        err = grad_check(params, cfg, batch, labels, epsilon=epsilon,
                         num_checks=150, rng=np.random.default_rng(0))
        assert err < 1e-4

    @pytest.mark.parametrize("name,factor", [("layers.0.wq", 1.001), ("bie.w1", -1.0)])
    def test_gradcheck_flags_corrupted_gradient(self, monkeypatch, name, factor):
        # the roundoff allowance must not hide a real error in the backward pass
        backward = tidegraph.model.backward_batch

        def corrupted(params, cfg, cache, dlogits):
            backward(params, cfg, cache, dlogits)
            params.grads[name] *= factor

        monkeypatch.setattr(tidegraph.model, "backward_batch", corrupted)
        cfg = small_cfg(mte=MteConfig(d_t=6, alpha=26.0, beta=10.0, combine="concat"))
        store, batch, labels = tiny_batch(cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        # every scalar, so that the corrupted tensor is always among them
        err = grad_check(params, cfg, batch, labels, epsilon=1e-5,
                         num_checks=params.num_scalars, rng=np.random.default_rng(0))
        assert err > 1e-4

    def test_gradcheck_rejects_nan_gradient(self, monkeypatch):
        # a nan error would vanish inside max() and read as a pass
        backward = tidegraph.model.backward_batch

        def poisoned(params, cfg, cache, dlogits):
            backward(params, cfg, cache, dlogits)
            params.grads["layers.0.wq"][:] = np.nan

        monkeypatch.setattr(tidegraph.model, "backward_batch", poisoned)
        cfg = small_cfg()
        store, batch, labels = tiny_batch(cfg)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        with pytest.raises(CheckFailure, match="layers.0.wq"):
            grad_check(params, cfg, batch, labels, epsilon=1e-5,
                       num_checks=150, rng=np.random.default_rng(0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradcheck_zero_gradients_report_zero(self):
        # with the head's output weights at zero, every upstream scalar has
        # a = n = 0 exactly; 0/0 counts as agreement and is never divided
        # (a nan would vanish inside max(), so the warning is the signal)
        params, cfg, batch, labels = gradcheck_fixture()
        params.values["link.w2"][:] = 0.0
        err = grad_check(params, cfg, batch, labels, epsilon=1e-5,
                         num_checks=250, rng=np.random.default_rng(0))
        assert np.isfinite(err) and err < 1e-4

    def test_cli_gradcheck_defaults_pass(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "beyond the roundoff allowance" in capsys.readouterr().out

    def test_zero_epsilon_rejected(self):
        params, cfg, batch, labels = gradcheck_fixture()
        with pytest.raises(ValueError):
            grad_check(params, cfg, batch, labels, epsilon=0.0)

    def test_linear_only_path_is_exact(self):
        # loss is quadratic in the link head's second layer: finite
        # differences are exact there up to roundoff
        params, cfg, batch, labels = gradcheck_fixture()
        loss_and_grads(params, cfg, batch, labels)
        analytic = params.grads["link.b2"].copy()
        eps = 1e-6
        t = params.values["link.b2"]
        t[0] += eps
        up = batch_loss(params, cfg, batch, labels)
        t[0] -= 2 * eps
        down = batch_loss(params, cfg, batch, labels)
        t[0] += eps
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - analytic[0]) < 1e-9


class TestTrainingDynamics:
    def test_single_batch_overfit(self):
        cfg = small_cfg(hidden=16, layers=2)
        store, batch, labels = tiny_batch(cfg, pairs=4)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=0)
        state = AdamState.for_params(params.values)
        losses = []
        for step in range(200):
            loss, _ = loss_and_grads(params, cfg, batch, labels)
            adam_step(params.values, params.grads, state, lr=3e-3)
            losses.append(loss)
            if loss < 0.05:
                break
        assert min(losses) < 0.05, f"final loss {losses[-1]}"
        tail = losses[3:]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:])), "loss not monotone after step 3"

    def test_fixed_seed_replays_bitwise(self):
        cfg = small_cfg(dropout=0.2)
        store, batch, labels = tiny_batch(cfg)

        def run():
            params = ModelParameters(cfg, store.d_n, store.d_e, seed=5)
            state = AdamState.for_params(params.values)
            rng = np.random.default_rng(7)
            trajectory = []
            for _ in range(5):
                loss, _ = loss_and_grads(params, cfg, batch, labels, training=True, rng=rng)
                adam_step(params.values, params.grads, state, lr=1e-3)
                trajectory.append(loss)
            return trajectory

        assert run() == run()

    def test_train_artifacts_replay_bitwise(self, tmp_path):
        # the run log and the checkpoint are deterministic functions of
        # (data, config, seed), which is what lets a refactor be checked
        # against the parent commit byte for byte
        store, _ = generate_cycle_corpus(num_sources=5, num_targets=15, num_events=150, seed=0, d_e=2)
        run_cfg = RunConfig(
            model=small_cfg(dropout=0.2, mte=MteConfig(d_t=100, alpha=26.0, beta=10.0)),
            train=TrainConfig(lr=1e-3, epochs=2, batch_size=40, seed=3),
            nss="historical",
        )
        for out in ("a", "b"):
            train(store, run_cfg, out_dir=tmp_path / out)
        log_a = (tmp_path / "a" / "run.jsonl").read_bytes()
        assert log_a == (tmp_path / "b" / "run.jsonl").read_bytes()
        assert len(log_a.splitlines()) == 3
        with np.load(tmp_path / "a" / "checkpoint.npz") as a, np.load(tmp_path / "b" / "checkpoint.npz") as b:
            assert sorted(a.files) == sorted(b.files)
            for k in a.files:
                assert a[k].tobytes() == b[k].tobytes(), k


    def test_trace_file_written_without_key_nodes(self, tmp_path):
        # a trace whose threshold no node exceeds still leaves its (empty) file
        store, _ = generate_cycle_corpus(num_sources=5, num_targets=15, num_events=150, seed=0, d_e=2)
        run_cfg = RunConfig(
            model=small_cfg(mte=MteConfig(d_t=100, alpha=26.0, beta=10.0)), train=TrainConfig(epochs=0),
            trace=TraceSpec(threshold=1e6, epochs=[0, -1]),
        )
        result = train(store, run_cfg, out_dir=tmp_path)
        assert result.trace_records == []
        assert (tmp_path / "traces.csv").read_text().splitlines() == [
            "epoch,node,frequency,mean_mass,appearances"
        ]

    def test_trace_with_uniform_windows(self):
        # uniform windows need an rng; each snapshot gets a fresh one, so
        # snapshots of the same parameters probe the same windows
        store, _ = generate_cycle_corpus(num_sources=5, num_targets=15, num_events=150, seed=0, d_e=2)
        run_cfg = RunConfig(
            model=small_cfg(neighbor_strategy="uniform", mte=MteConfig(d_t=100, alpha=26.0, beta=10.0)),
            train=TrainConfig(epochs=0), trace=TraceSpec(threshold=5, epochs=[0, -1]),
        )
        records = train(store, run_cfg).trace_records
        start = [(r.node, r.mean_mass, r.appearances) for r in records if r.epoch == 0]
        end = [(r.node, r.mean_mass, r.appearances) for r in records if r.epoch == -1]
        assert start and start == end

@pytest.mark.parametrize("layout", ["il", "ml"])
class TestAttentionMassSnapshot:
    """The traced mass against sums written out from the attention weights.

    The tests stack an ml pair's two windows themselves, so they check the
    layout handling of the snapshot as well as its arithmetic. They run on
    float64 parameters, where the identities hold to roundoff; the float32
    case bounds the same identity by float32 rounding.
    """

    def _setup(self, layout, dtype=np.float64):
        cfg = small_cfg(layout=layout, time_mode="mix" if layout == "il" else "fine")
        store, _ = generate_cycle_corpus(num_sources=5, num_targets=15, num_events=150, seed=0, d_e=2)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=2).astype(dtype)
        # the first events meet empty windows, so some sequences have no valid token
        pairs = [(int(store.src[i]), int(store.tgt[i]), float(store.timestamps[i])) for i in range(40)]
        return cfg, store, params, NeighborSampler(store), pairs

    def _sequences(self, batch, layout):
        p = batch.num_pairs
        if layout == "ml":
            return [np.concatenate([batch.token_ids[i], batch.token_ids[p + i]]) for i in range(p)]
        return list(batch.token_ids)

    def _mass_total(self, layout, dtype):
        """(sum of mean mass x appearances over all nodes, sequences with a token, cfg)."""
        cfg, store, params, sampler, pairs = self._setup(layout, dtype)
        masses = attention_mass_snapshot(
            params, cfg, store, sampler, pairs, range(store.num_nodes), batch_size=16
        )
        with_token = 0
        for start in range(0, len(pairs), 16):
            batch = featurize_pairs(*sample_pair_windows(sampler, pairs[start:start + 16], cfg), store, cfg)
            with_token += sum(bool((ids != PAD_ID).any()) for ids in self._sequences(batch, layout))
        assert 0 < with_token < len(pairs) * (1 if layout == "ml" else 2)
        return sum(mean * seen for mean, seen in masses.values()), with_token, cfg

    def test_masses_of_all_nodes_count_the_sequences(self, layout):
        total, with_token, _ = self._mass_total(layout, np.float64)
        assert total == pytest.approx(with_token, abs=1e-9)

    def test_masses_of_all_nodes_count_the_sequences_float32(self, layout):
        # per sequence of L slots, float32 rounding enters through a softmax
        # row (L terms), the sum over heads x queries (J * L terms) and the
        # sum over a node's slots (L terms): at most (J + 2) * L * eps each
        total, with_token, cfg = self._mass_total(layout, np.float32)
        seq_len = cfg.n_neighbors * (2 if layout == "ml" else 1)
        bound = with_token * (cfg.heads + 2) * seq_len * np.finfo(np.float32).eps
        assert total == pytest.approx(with_token, abs=bound)

    def test_one_node_by_hand(self, layout):
        cfg, store, params, sampler, pairs = self._setup(layout)
        batch = featurize_pairs(*sample_pair_windows(sampler, pairs, cfg), store, cfg)
        _, cache = forward_batch(params, cfg, batch)
        attn = attention_weights(cache)
        heads = attn.shape[0]
        seqs = self._sequences(batch, layout)
        node = int(np.bincount(np.concatenate(seqs)[np.concatenate(seqs) != PAD_ID]).argmax())
        per_seq = []
        for s, ids in enumerate(seqs):
            keys = np.flatnonzero(ids == node)
            if len(keys) == 0:
                continue
            queries = np.flatnonzero(ids != PAD_ID)
            mass = sum(attn[j, s, a, b] for j in range(heads) for a in queries for b in keys)
            per_seq.append(mass / (heads * len(queries)))
        mean, seen = attention_mass_snapshot(params, cfg, store, sampler, pairs, [node])[node]
        assert seen == len(per_seq) > 1
        assert mean == pytest.approx(np.mean(per_seq), rel=1e-12)


def _float_arrays(obj, path):
    """(path, array) of every floating-point array reachable through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        if np.issubdtype(obj.dtype, np.floating):
            yield path, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _float_arrays(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _float_arrays(v, f"{path}[{i}]")


def _float32_representable(batch):
    """The batch with every float column rounded to float32, still stored as float64."""
    rounded = {
        name: getattr(batch, name).astype(np.float32).astype(np.float64)
        for name in ("h", "tmix", "counts", "season", "trend") if getattr(batch, name) is not None
    }
    return dataclasses.replace(batch, **rounded)


@pytest.mark.parametrize("layout", ["il", "sl", "ml"])
class TestComputeDtype:
    """float32 parameters run the transformer in float32 end to end, and agree
    with float64 on the same values to float32 rounding."""

    def _setup(self, layout):
        cfg = small_cfg(layout=layout, dropout=0.2)
        store, batch, labels = tiny_batch(cfg)
        return cfg, store, batch, labels

    def test_no_silent_upcast(self, layout, monkeypatch):
        cfg, store, batch, labels = self._setup(layout)
        params = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        assert params.dtype == np.float32
        caches, grads = [], []
        forward = tidegraph.model.forward_batch
        add_grads = ModelParameters.add_grads

        def recording_forward(*args, **kwargs):
            probs, cache = forward(*args, **kwargs)
            caches.append(cache)
            return probs, cache

        def recording_add_grads(self, prefix, block):
            grads.extend((f"{prefix}.{k}", g) for k, g in block.items())
            add_grads(self, prefix, block)

        monkeypatch.setattr(tidegraph.model, "forward_batch", recording_forward)
        monkeypatch.setattr(ModelParameters, "add_grads", recording_add_grads)
        _, probs = loss_and_grads(params, cfg, batch, labels, training=True, rng=np.random.default_rng(0))
        assert probs.dtype == np.float64
        assert batch.h.dtype == np.float64  # featurization stays float64
        arrays = list(_float_arrays(caches[0], "cache"))
        # dropout was active, so its masks are among the cached arrays
        assert any("drop_scale" in path for path, _ in arrays)
        assert len(grads) == len(params.grads)
        wrong = [(path, a.dtype) for path, a in [*arrays, *grads, *params.grads.items()]
                 if a.dtype != np.float32]
        assert wrong == []

    def test_float32_matches_float64(self, layout):
        cfg, store, batch, labels = self._setup(layout)
        batch = _float32_representable(batch)
        p32 = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        p64 = p32.astype(np.float64)
        for name, v in p32.values.items():
            np.testing.assert_array_equal(p64.values[name], v)
        _, probs32 = loss_and_grads(p32, cfg, batch, labels, training=True, rng=np.random.default_rng(3))
        _, probs64 = loss_and_grads(p64, cfg, batch, labels, training=True, rng=np.random.default_rng(3))
        np.testing.assert_allclose(probs32, probs64, rtol=0, atol=1e-5)
        for name, g64 in p64.grads.items():
            err = np.max(np.abs(p32.grads[name] - g64))
            assert err <= 1e-4 * np.max(np.abs(g64)), name


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params, cfg, batch, labels = gradcheck_fixture()
        state = AdamState.for_params(params.values)
        loss_and_grads(params, cfg, batch, labels)
        adam_step(params.values, params.grads, state, lr=1e-3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, state, config_hash="abc123", extra={"best_epoch": 7})
        loaded = load_checkpoint(path)
        assert loaded["meta"]["config_hash"] == "abc123"
        assert loaded["meta"]["best_epoch"] == 7
        assert loaded["adam"]["t"] == 1
        for k, v in params.values.items():
            np.testing.assert_array_equal(loaded["values"][k], v)
        for k, v in state.m.items():
            np.testing.assert_array_equal(loaded["adam"]["m"][k], v)

    def test_arrays_keep_the_compute_dtype(self, tmp_path):
        # float32 parameters and Adam moments are stored as float32; a float64
        # checkpoint restores into a float32 model by a cast
        cfg = small_cfg()
        store, batch, labels = tiny_batch(cfg)
        p32 = ModelParameters(cfg, store.d_n, store.d_e, seed=1)
        state = AdamState.for_params(p32.values)
        loss_and_grads(p32, cfg, batch, labels)
        adam_step(p32.values, p32.grads, state, lr=1e-3)
        save_checkpoint(tmp_path / "f32.npz", p32, state)
        loaded = load_checkpoint(tmp_path / "f32.npz")
        for group in (loaded["values"], loaded["adam"]["m"], loaded["adam"]["v"]):
            assert {a.dtype for a in group.values()} == {np.dtype(np.float32)}

        p64 = ModelParameters(cfg, store.d_n, store.d_e, seed=2).astype(np.float64)
        save_checkpoint(tmp_path / "f64.npz", p64)
        p32.restore(load_checkpoint(tmp_path / "f64.npz")["values"])
        for k, v in p64.values.items():
            assert p32.values[k].dtype == np.float32
            np.testing.assert_array_equal(p32.values[k], v.astype(np.float32))

    @pytest.mark.parametrize("with_adam", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_format_3_round_trip(self, tmp_path, dtype, with_adam):
        # one array per kind plus the table: every tensor comes back with its
        # dtype, shape and bytes, as a view of one flat array
        params, cfg, batch, labels = gradcheck_fixture()
        params = params.astype(dtype)
        state = AdamState.for_params(params.values)
        loss_and_grads(params, cfg, batch, labels)
        adam_step(params.values, params.grads, state, lr=1e-3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, state if with_adam else None)
        with np.load(path) as raw:
            kinds = ["param", "adam_m", "adam_v"] if with_adam else ["param"]
            assert sorted(raw.files) == sorted(kinds + ["meta"])
            assert all(raw[k].shape == (params.num_scalars,) for k in kinds)
        loaded = load_checkpoint(path)
        assert loaded["meta"]["format_version"] == 3
        assert loaded["meta"]["table"] == [[n, list(s), o] for n, s, o in params.values.table]
        assert ("adam" in loaded) == with_adam
        groups = [(loaded["values"], params.values)]
        if with_adam:
            groups += [(loaded["adam"]["m"], state.m), (loaded["adam"]["v"], state.v)]
            assert loaded["adam"]["t"] == 1
        for got, want in groups:
            assert list(got) == list(want)
            for name, a in want.items():
                b = got[name]
                assert b.dtype == a.dtype and b.shape == a.shape and b.tobytes() == a.tobytes(), name
                assert np.shares_memory(b, got.flat)

    def test_version_2_rejected(self, tmp_path):
        # version 2 stored one member per tensor; it is refused by its version
        params, _, _, _ = gradcheck_fixture()
        payload = {f"param.{k}": v for k, v in params.values.items()}
        payload["meta"] = np.array(json.dumps({"format_version": 2, "config_hash": ""}))
        path = tmp_path / "v2.npz"
        np.savez(path, **payload)
        with pytest.raises(ConfigError, match="version 2"):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        # version 1 also stored tensors that version 2 no longer allocates;
        # such a file is refused by its version, not by a later KeyError
        params, _, _, _ = gradcheck_fixture()
        payload = {f"param.{k}": v for k, v in params.values.items()}
        payload["meta"] = np.array(json.dumps({"format_version": 1, "config_hash": ""}))
        path = tmp_path / "v1.npz"
        np.savez(path, **payload)
        with pytest.raises(ConfigError, match="version 1"):
            load_checkpoint(path)
