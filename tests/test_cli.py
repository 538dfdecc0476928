"""Command line: bad input exits 2 with one line on stderr; eval, trace and option aliases."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import tidegraph.cli
import tidegraph.harness
from tidegraph.cli import main
from tidegraph.config import RunConfig, config_hash, fit_time_encoder, load_config, run_config_from_dict
from tidegraph.errors import ConfigError
from tidegraph.events import ingest_events
from tidegraph.harness import ABLATION_VARIANTS, variant_config
from tidegraph.synth import generate_cycle_corpus


def _error_line(capsys):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


def test_gradcheck_zero_epsilon(capsys):
    assert main(["gradcheck", "--epsilon", "0"]) == 2
    assert "epsilon must be positive" in _error_line(capsys)


def test_gradcheck_zero_checks(capsys):
    assert main(["gradcheck", "--checks", "0"]) == 2
    assert "num_checks must be positive" in _error_line(capsys)


@pytest.mark.parametrize("batch", ["0", "241", "500"])
def test_gradcheck_batch_beyond_fixture_corpus(capsys, batch):
    assert main(["gradcheck", "--batch", batch]) == 2
    assert f"batch_pairs must lie in [1, 240] (the fixture corpus has 240 events), got {batch}" in _error_line(capsys)


@pytest.mark.parametrize("mode, events, sources", [("cycle", "0", 50), ("hotnode", "1", 20), ("cycle", "-3", 50)])
def test_gen_synth_rejects_an_empty_corpus(tmp_path, capsys, mode, events, sources):
    out = tmp_path / "events.csv"
    assert main(["gen-synth", "--mode", mode, "--events", events, "--out", str(out)]) == 2
    assert f"at least num_sources ({sources}), got {events}" in _error_line(capsys)
    assert not out.exists()


def test_train_default_config_on_synthetic_corpus(tmp_path, capsys):
    # the default model on a bundled corpus: with alpha unset, the time
    # encoder is fitted to the stream (alpha from its duration, granularity
    # and segments from its manifest), so train and eval both run
    data = tmp_path / "c.csv"
    assert main(["gen-synth", "--events", "2000", "--out", str(data)]) == 0
    cfg = tmp_path / "run.yaml"
    cfg.write_text("train: {epochs: 1}\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["epochs_run"] == 1
    assert main(["eval", "--data", str(data), "--config", str(cfg), "--checkpoint", str(out / "checkpoint.npz")]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert evaluated["config_hash"] == report["config_hash"]
    assert evaluated["test"] == report["test"]


def test_time_encoder_fitted_only_when_alpha_unset(tmp_path, capsys):
    store, manifest = generate_cycle_corpus(num_events=400, seed=0)
    run_cfg = RunConfig()
    fitted = fit_time_encoder(run_cfg, store.duration_seconds, manifest)
    mte = fitted.model.mte
    assert (mte.granularity, mte.r_segments) == (manifest.granularity, manifest.r_segments)
    mte.validate_decay(store.duration_seconds)
    with pytest.raises(ConfigError, match="raise alpha above"):
        replace(mte, alpha=mte.alpha - 0.01).validate_decay(store.duration_seconds)
    # a segment count the config gives is kept
    kept = fit_time_encoder(run_cfg, store.duration_seconds, manifest, given={"r_segments"})
    assert kept.model.mte.r_segments == run_cfg.model.mte.r_segments
    # a config that sets alpha is used as written, hash included
    data = tmp_path / "c.csv"
    assert main(["gen-synth", "--events", "400", "--out", str(data)]) == 0
    cfg = tmp_path / "run.yaml"
    cfg.write_text("model: {mte: {alpha: 10.0}}\n")
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--config", str(cfg)]) == 2
    assert "raise alpha above" in _error_line(capsys)


def test_eval_rejects_version_1_checkpoint(tmp_path, capsys):
    data = tmp_path / "c.csv"
    assert main(["gen-synth", "--events", "200", "--out", str(data)]) == 0
    ckpt = tmp_path / "old.npz"
    meta = {"format_version": 1, "config_hash": ""}
    np.savez(ckpt, meta=np.array(json.dumps(meta)))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
    assert "checkpoint format version 1" in _error_line(capsys)


def test_eval_rejects_version_2_checkpoint(tmp_path, capsys):
    data = tmp_path / "c.csv"
    assert main(["gen-synth", "--events", "200", "--out", str(data)]) == 0
    ckpt = tmp_path / "old.npz"
    meta = {"format_version": 2, "config_hash": ""}
    np.savez(ckpt, **{"param.input.w": np.zeros((2, 2), np.float32)}, meta=np.array(json.dumps(meta)))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
    assert "checkpoint format version 2" in _error_line(capsys)


def test_malformed_event_file(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("src,tgt,ts\n0,1,5\n0,2,x\n")
    assert main(["train", "--data", str(data)]) == 2
    assert "line 2" in _error_line(capsys)


def test_non_finite_timestamp_rejected(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    data.write_text("src,tgt,ts\n0,4,1.0\n1,4,nan\n")
    assert main(["train", "--data", str(data)]) == 2
    assert "line 2: non-finite timestamp" in _error_line(capsys)


@pytest.mark.parametrize("text, message", [
    ("src,tgt,ts,f0\n0,1,5,0.5\n0,2,6\n", "line 2: expected 4 columns, got 3"),
    ("src,tgt,ts\n0,1,5\n\n0,2,1\n", "line 3: timestamp 1.0 precedes previous row"),
])
def test_bad_row_names_its_line(tmp_path, capsys, text, message):
    # a wrong column count, and an out-of-order row after a blank line
    data = tmp_path / "bad.csv"
    data.write_text(text)
    assert main(["train", "--data", str(data)]) == 2
    assert message in _error_line(capsys)


@pytest.mark.parametrize("option, text, message", [
    ("--data", None, "No such file or directory"),
    ("--manifest", None, "No such file or directory"),
    ("--config", None, "No such file or directory"),
    ("--checkpoint", None, "No such file or directory"),
    ("--config", "model: {layout: il\n", "is not valid YAML: while parsing a flow mapping"),
    ("--config", "model: 5\n", "bad config field: 'int' object is not iterable"),
    ("--manifest", "[200]", "must be a mapping, not list"),
    ("--manifest", '{"d_e": 0}', "missing 1 required positional argument: 'num_nodes'"),
    ("--manifest", '{"num_nodes": 200, "nodes": 200}', "unexpected keyword argument 'nodes'"),
    ("--manifest", '{"num_nodes": 200,', "input: not valid JSON: Expecting property name"),
    ("--manifest", '{"num_nodes": "abc"}', "input: num_nodes must be an integer, got 'abc'"),
    ("--manifest", '{"num_nodes": 200, "bipartite": 1}', "input: bipartite must be true or false, got 1"),
    ("--manifest", '{"num_nodes": 200, "d_e": true}', "input: d_e must be an integer, got True"),
    ("--manifest", '{"num_nodes": 200, "duration_seconds": "1d"}', "input: duration_seconds must be a number"),
])
def test_bad_input_file(tmp_path, capsys, option, text, message):
    # a missing input file (text None) or a malformed one
    data, cfg = _small_run(tmp_path)
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    args = {"--data": data, "--config": cfg, option: str(path)}
    command = "eval" if option == "--checkpoint" else "train"
    capsys.readouterr()
    assert main([command, *(part for item in args.items() for part in item)]) == 2
    line = _error_line(capsys)
    assert line.startswith(f"tidegraph {command}: error: ") and message in line


SMALL_MODEL = """
model:
  n_neighbors: 4
  hidden: 8
  layers: 1
  heads: 2
  d_b: 4
  d_s: 4
  d_tr: 4
  mte: {d_t: 8, alpha: 60.0, beta: 1.0}
"""


def _small_run(tmp_path, model="", extra=""):
    """A 400-event corpus and a config small enough to train in a second.

    alpha is given explicitly: the corpus spans 1.6e6 s, and 60**7 > 1.6e12
    satisfies the time encoder's decay condition at d_t = 8, beta = 1.
    ``model`` adds lines to the model block, ``extra`` top-level lines.
    """
    data = tmp_path / "c.csv"
    if not data.exists():
        assert main(["gen-synth", "--events", "400", "--out", str(data)]) == 0
    cfg = tmp_path / f"run{len(list(tmp_path.glob('run*.yaml')))}.yaml"
    cfg.write_text(SMALL_MODEL + model + "train: {epochs: 1, batch_size: 100}\n" + extra)
    return str(data), str(cfg)


@pytest.fixture(scope="module")
def il_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("il")
    data, cfg = _small_run(tmp)
    assert main(["train", "--data", data, "--config", cfg, "--out", str(tmp / "out")]) == 0
    return tmp, data, str(tmp / "out" / "checkpoint.npz")


def test_eval_matching_config(il_checkpoint, capsys):
    tmp, data, ckpt = il_checkpoint
    _, cfg = _small_run(tmp)
    capsys.readouterr()
    assert main(["eval", "--data", data, "--config", cfg, "--checkpoint", ckpt]) == 0
    assert json.loads(capsys.readouterr().out)["test"]["num_positives"] > 0


def test_eval_reproduces_train_test_metrics(il_checkpoint, capsys):
    # eval re-scores the test split with the negatives and windows train drew
    tmp, data, ckpt = il_checkpoint
    _, cfg = _small_run(tmp)
    with open(tmp / "out" / "run.jsonl") as fh:
        trained = json.loads(fh.readlines()[-1])["report"]["test"]
    capsys.readouterr()
    assert main(["eval", "--data", data, "--config", cfg, "--checkpoint", ckpt]) == 0
    assert json.loads(capsys.readouterr().out)["test"] == trained


@pytest.mark.parametrize("model, message", [
    # il tokens are 20 wide (8 time + 4 counts + 4 season + 4 trend), ml tokens 8
    ("  layout: ml\n", "tensor 'input.w' has shape (20, 8) in the checkpoint and (8, 8) under the config"),
    ("  use_bie: false\n", "tensor 'input.w' has shape (20, 8) in the checkpoint and (16, 8) under the config"),
    ("  layers: 2\n", "tensor 'layers.1.wq' has shape absent in the checkpoint and (2, 8, 4) under the config"),
])
def test_eval_rejects_checkpoint_of_another_config(il_checkpoint, capsys, model, message):
    tmp, data, ckpt = il_checkpoint
    _, cfg = _small_run(tmp, model=model)
    capsys.readouterr()
    assert main(["eval", "--data", data, "--config", cfg, "--checkpoint", ckpt]) == 2
    assert message in _error_line(capsys)


def _retabled(table):
    table[0][1] = [table[0][1][0] + 1, *table[0][1][1:]]  # one more row: the sizes overrun the array
    return table


@pytest.mark.parametrize("make, message", [
    (lambda ckpt, path: path.write_text("not a checkpoint\n"), "not a readable checkpoint: File is not a zip file"),
    (lambda ckpt, path: path.write_bytes(open(ckpt, "rb").read()[:3000]), "not a readable checkpoint"),
    (lambda ckpt, path: np.savez(path, meta=np.array(json.dumps({"format_version": 3, "table": []}))),
     "a checkpoint holds param, or param, adam_m and adam_v; found []"),
    (lambda ckpt, path: _rewrite_meta(ckpt, path, table=_retabled), "the tensor table does not pack its arrays"),
    (lambda ckpt, path: _rewrite_meta(ckpt, path, format_version=lambda _: 2), "checkpoint format version 2"),
])
def test_bad_checkpoint_file(il_checkpoint, capsys, make, message):
    # not a zip, truncated, no param member, a table that does not fit, format 2
    tmp, data, ckpt = il_checkpoint
    _, cfg = _small_run(tmp)
    path = tmp / "bad.npz"
    make(ckpt, path)
    capsys.readouterr()
    assert main(["eval", "--data", data, "--config", cfg, "--checkpoint", str(path)]) == 2
    line = _error_line(capsys)
    assert line.startswith("tidegraph eval: error: ") and message in line


def _rewrite_meta(ckpt, path, **edits):
    """A copy of checkpoint ``ckpt`` at ``path`` with meta fields replaced by ``edit(old)``."""
    with np.load(ckpt) as raw:
        arrays = {k: raw[k] for k in raw.files}
    meta = json.loads(str(arrays["meta"]))
    for key, edit in edits.items():
        meta[key] = edit(meta[key])
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def test_nss_alias_is_stored_canonically(tmp_path, capsys):
    data, cfg = _small_run(tmp_path)
    _, hist_cfg = _small_run(tmp_path, extra="nss: historical\n")
    capsys.readouterr()
    assert main(["train", "--data", data, "--config", cfg, "--nss", "hist"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["nss"] == "historical"
    assert report["config_hash"] == config_hash(load_config(hist_cfg))


def test_nss_typo_rejected_before_training(tmp_path, capsys, monkeypatch):
    data, cfg = _small_run(tmp_path, extra="nss: histrical\n")
    monkeypatch.setattr(tidegraph.cli, "train", lambda *a, **k: pytest.fail("training started"))
    capsys.readouterr()
    assert main(["train", "--data", data, "--config", cfg]) == 2
    assert "'histrical'" in _error_line(capsys)


@pytest.mark.parametrize("probe_batches", [0, -1])
def test_trace_probe_batches_checked_on_load(probe_batches):
    with pytest.raises(ConfigError, match=f"probe_batches must be positive, got {probe_batches}"):
        run_config_from_dict({"trace": {"probe_batches": probe_batches}})


def test_run_config_normalizes_nss():
    assert RunConfig(nss="rnd").nss == "random"
    assert replace(RunConfig(), nss="ind").nss == "inductive"
    assert config_hash(RunConfig(nss="hist")) == config_hash(RunConfig(nss="historical"))
    with pytest.raises(ConfigError, match="negative sampling"):
        RunConfig(nss="histrical")


def test_trace_layer_out_of_range_rejected_before_training(tmp_path, capsys, monkeypatch):
    data, cfg = _small_run(tmp_path)
    monkeypatch.setattr(tidegraph.cli, "train", lambda *a, **k: pytest.fail("training started"))
    capsys.readouterr()
    assert main(["trace", "--data", data, "--config", cfg, "--layer", "1"]) == 2
    assert "trace layer 1 outside [-1, 1)" in _error_line(capsys)


@pytest.mark.parametrize("at_epochs, bad", [("5,-2", "[5, -2]"), ("0,2,-1", "[2]")])
def test_trace_epochs_out_of_range_rejected_before_training(tmp_path, capsys, monkeypatch, at_epochs, bad):
    # a 1-epoch run snapshots at 0, 1 and -1 only; any other tag would trace nothing
    data, cfg = _small_run(tmp_path)
    monkeypatch.setattr(tidegraph.cli, "train", lambda *a, **k: pytest.fail("training started"))
    capsys.readouterr()
    assert main(["trace", "--data", data, "--config", cfg, "--at-epochs", at_epochs]) == 2
    assert f"trace epochs {bad} outside -1 (end), 0 (start) and 1..1 for a 1-epoch run" in _error_line(capsys)


def test_trace_at_every_epoch_tag(tmp_path):
    data, cfg = _small_run(tmp_path)
    out = tmp_path / "out"
    assert main(["trace", "--data", data, "--config", cfg, "--threshold", "5",
                 "--at-epochs", "0,1,-1", "--out", str(out)]) == 0
    with open(out / "traces.csv") as fh:
        assert {row["epoch"] for row in csv.DictReader(fh)} == {"0", "1", "-1"}


def test_trace_epoch_after_early_stop_is_named(tmp_path, capsys, monkeypatch):
    # a constant val AP never improves after epoch 1, so patience 1 stops a
    # 3-epoch run after epoch 2 and epoch 3 is never snapshot
    data, _ = _small_run(tmp_path)
    cfg = tmp_path / "early.yaml"
    cfg.write_text(SMALL_MODEL + "train: {epochs: 3, patience: 1, batch_size: 100}\n")
    evaluate = tidegraph.harness.evaluate_link_prediction
    monkeypatch.setattr(tidegraph.harness, "evaluate_link_prediction",
                        lambda *a, **k: {**evaluate(*a, **k), "ap": 0.5})
    capsys.readouterr()
    assert main(["trace", "--data", data, "--config", str(cfg), "--threshold", "5",
                 "--at-epochs", "3", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "training stopped after epoch 2; no snapshot at epochs [3]" in out
    assert "no node exceeded" not in out


def test_trace_writes_csv(tmp_path):
    data, cfg = _small_run(tmp_path)
    out = tmp_path / "out"
    assert main(["trace", "--data", data, "--config", cfg, "--threshold", "5", "--out", str(out)]) == 0
    with open(out / "traces.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "node", "frequency", "mean_mass", "appearances"]
    assert len(rows) > 1


def test_ablate_trains_each_distinct_cell_once(tmp_path, monkeypatch, capsys):
    # on the sl and ml layouts, -bie, -ste and fine-only configure the same
    # model as full: 15 cells, 9 distinct configs; on this featureless corpus
    # the -mte cells of sl and ml have tokens with no columns and are not
    # trained, so 7 train
    data, cfg = _small_run(tmp_path)
    train = tidegraph.harness.train
    trained = []
    monkeypatch.setattr(tidegraph.harness, "train", lambda store, run_cfg: trained.append(run_cfg) or train(store, run_cfg))
    out = tmp_path / "out"
    assert main(["ablate", "--data", data, "--config", cfg, "--epochs", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("width=0     test_ap=n/a") == 2
    with open(out / "ablation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15 and len(trained) == 7
    assert len({config_hash(c) for c in trained}) == 7
    # every row is what training its cell on its own gives
    store, run_cfg = ingest_events(data), load_config(cfg)
    cells = [(layout, variant) for layout in ("sl", "ml", "il") for variant in ABLATION_VARIANTS]
    for row, (layout, variant) in zip(rows, cells):
        model = variant_config(run_cfg.model, layout, variant)
        assert (row["layout"], row["variant"]) == (layout, variant)
        assert row["token_width"] == str(model.token_width(store.d_n, store.d_e))
        if layout != "il" and variant == "-mte":
            assert (row["token_width"], row["test_ap"], row["test_auc"]) == ("0", "", "")
            continue
        test = train(store, replace(run_cfg, model=model, train=replace(run_cfg.train, epochs=1))).report["test"]
        assert (row["test_ap"], row["test_auc"]) == (repr(test["ap"]), repr(test["auc"]))


def test_train_rejects_tokens_with_no_columns(tmp_path, capsys):
    data, cfg = _small_run(tmp_path, model="  layout: sl\n  time_mode: none\n")
    capsys.readouterr()
    assert main(["train", "--data", data, "--config", cfg]) == 2
    assert "layout 'sl', time_mode 'none': no token columns without features" in _error_line(capsys)


def test_ablate_rejects_a_bad_ste_window_before_training(tmp_path, capsys, monkeypatch):
    # the sl base config never uses STE; its il cells would, with an even window
    data, cfg = _small_run(tmp_path, model="  layout: sl\n  ste_window: 2\n")
    monkeypatch.setattr(tidegraph.harness, "train", lambda *a, **k: pytest.fail("training started"))
    capsys.readouterr()
    assert main(["ablate", "--data", data, "--config", cfg, "--epochs", "1"]) == 2
    assert "ste_window must be an odd integer in [1, n_neighbors=4], got 2" in _error_line(capsys)
