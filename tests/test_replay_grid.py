"""tools/replay_grid.py compares checkpoints of format 2 and format 3 tensor by tensor."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from tidegraph.model import ModelConfig, ModelParameters, save_checkpoint
from tidegraph.optim import AdamState

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_grid.py"
TEXT = {
    "run.jsonl": '{"epoch": 1, "train_loss": 0.5, "val_ap": 0.75}\n',
    "metrics.csv": "ap,auc\n0.75,0.8\n",
    "traces.csv": "node,mean_mass\n3,0.25\n",
}


@pytest.fixture
def replay_grid(monkeypatch):
    # the tool pins the BLAS thread variables as it loads; restore them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("replay_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _model():
    cfg = ModelConfig(n_neighbors=2, hidden=4, layers=1, heads=1, d_b=2, d_s=2, d_tr=2, ste_window=1)
    params = ModelParameters(cfg, 0, 2, seed=3)
    state = AdamState.for_params(params.values)
    rng = np.random.default_rng(0)
    state.m.flat[:] = rng.normal(size=params.num_scalars)
    state.v.flat[:] = rng.random(params.num_scalars)
    state.t = 4
    return params, state


def _save_format_2(path, params, state, meta):
    payload = {f"param.{k}": v for k, v in params.values.items()}
    payload.update({f"adam_m.{k}": v for k, v in state.m.items()})
    payload.update({f"adam_v.{k}": v for k, v in state.v.items()})
    payload["meta"] = np.array(json.dumps(dict(meta, format_version=2, adam_t=state.t), sort_keys=True))
    np.savez(path, **payload)


def _grid(root, names, save):
    for name in names:
        run = root / name
        run.mkdir(parents=True)
        for artifact, text in TEXT.items():
            (run / artifact).write_text(text)
        save(name, run / "checkpoint.npz")


def test_format_2_and_format_3_grids_compare_bitwise(replay_grid, tmp_path, capsys):
    params, state = _model()
    flipped = params.astype(params.dtype)
    flipped.values.flat.view(np.uint32)[7] ^= 1
    names = replay_grid._run_names()
    _grid(tmp_path / "a", names, lambda _, path: _save_format_2(path, params, state, {"config_hash": "h", "best_epoch": 2}))
    _grid(tmp_path / "b", names, lambda _, path: save_checkpoint(path, params, state, "h", extra={"best_epoch": 2}))
    _grid(tmp_path / "c", names, lambda name, path: save_checkpoint(
        path, flipped if name == names[0] else params, state, "h", extra={"best_epoch": 2}))

    meta, arrays = replay_grid.read_checkpoint(tmp_path / "b" / names[0] / "checkpoint.npz")
    assert meta == {"adam_t": 4, "best_epoch": 2, "config_hash": "h"}
    assert len(arrays) == 3 * len(params.values)

    capsys.readouterr()
    assert replay_grid.compare(tmp_path / "a", tmp_path / "b") == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(", 0 differ")
    assert replay_grid.compare(tmp_path / "a", tmp_path / "c") == 1
    assert replay_grid.compare_within(tmp_path / "a", tmp_path / "b", 0.0, 0.0) == 0
    assert replay_grid.compare_within(tmp_path / "a", tmp_path / "c", 0.0, 0.0) == 1
    name = flipped.values.table[0][0]  # offset 7 lies in the first tensor
    assert f"differs: {names[0]}/checkpoint.npz:param.{name}" in capsys.readouterr().out
