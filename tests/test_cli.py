"""Command-line error handling: bad input exits 2 with one line on stderr."""

import json

import numpy as np

from tidegraph.cli import main


def _error_line(capsys):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


def test_gradcheck_zero_epsilon(capsys):
    assert main(["gradcheck", "--epsilon", "0"]) == 2
    assert "epsilon must be positive" in _error_line(capsys)


def test_train_default_config_on_synthetic_corpus(tmp_path, capsys):
    # the default time encoder cannot resolve this corpus's span; the user
    # gets the decay condition and the alpha that would satisfy it
    data = tmp_path / "c.csv"
    assert main(["gen-synth", "--events", "2000", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["train", "--data", str(data)]) == 2
    line = _error_line(capsys)
    assert line.startswith("tidegraph train: error:")
    assert "raise alpha above" in line


def test_eval_rejects_version_1_checkpoint(tmp_path, capsys):
    data = tmp_path / "c.csv"
    assert main(["gen-synth", "--events", "200", "--out", str(data)]) == 0
    ckpt = tmp_path / "old.npz"
    meta = {"format_version": 1, "config_hash": ""}
    np.savez(ckpt, meta=np.array(json.dumps(meta)))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
    assert "checkpoint format version 1" in _error_line(capsys)


def test_malformed_event_file(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("src,tgt,ts\n0,1,5\n0,2,x\n")
    assert main(["train", "--data", str(data)]) == 2
    assert "line 2" in _error_line(capsys)
