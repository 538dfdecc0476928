"""The flat parameter store: views, whole-store copies, and Adam's single pass."""

import tracemalloc

import numpy as np
import pytest

from tidegraph.model import ModelConfig, ModelParameters
from tidegraph.optim import AdamState, FlatTensors, adam_step


def _params(dtype=np.float32, seed=0):
    # the default sizes: 40 tensors, as in the benchmark's models
    return ModelParameters(ModelConfig(), 0, 16, seed=seed).astype(dtype)


def reference_adam_step(params, grads, m, v, t, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam tensor by tensor, as the update was written before the flat store."""
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    for key, p in params.items():
        g = grads[key]
        m[key] *= beta1
        m[key] += (1.0 - beta1) * g
        v[key] *= beta2
        v[key] += (1.0 - beta2) * g * g
        update = (m[key] / bias1) / (np.sqrt(v[key] / bias2) + eps)
        if weight_decay:
            p -= lr * weight_decay * p
        p -= lr * update


class TestViews:
    def test_views_tile_the_flat_array_in_table_order(self):
        params = _params()
        for store in (params.values, params.grads):
            names = [name for name, _, _ in store.table]
            assert names == list(store)
            offset = 0
            for name, shape, off in store.table:
                view = store[name]
                assert view.shape == shape and off == offset
                assert np.shares_memory(view, store.flat)
                assert view.__array_interface__["data"][0] == store.flat[off:].__array_interface__["data"][0]
                offset += view.size
            assert offset == store.flat.size == params.num_scalars
        # every scalar in exactly one view
        hits = np.zeros(params.num_scalars, dtype=np.int64)
        marks = FlatTensors(params.values.table, np.arange(params.num_scalars))
        for view in marks.values():
            hits[view.ravel()] += 1
        assert np.all(hits == 1)
        assert params.values.table is params.grads.table

    def test_pack_casts_each_tensor(self):
        rng = np.random.default_rng(0)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5), "c": np.zeros((2, 0, 3))}
        store = FlatTensors.pack(arrays, np.float32)
        assert store.flat.shape == (17,) and store.flat.dtype == np.float32
        for name, a in arrays.items():
            np.testing.assert_array_equal(store[name], a.astype(np.float32))


class TestWholeStoreCopies:
    def test_zero_grads(self):
        params = _params()
        params.grads.flat[:] = 1.0
        params.zero_grads()
        assert not params.grads.flat.any()
        assert all(not g.any() for g in params.grads.values())

    def test_snapshot_and_restore_are_independent_copies(self):
        params = _params()
        before = params.snapshot()
        assert not np.shares_memory(before.flat, params.values.flat)
        np.testing.assert_array_equal(before.flat, params.values.flat)
        first = params.values.table[0][0]
        params.values[first][...] = 7.0
        assert not np.any(before[first] == 7.0)
        params.restore(before)
        np.testing.assert_array_equal(params.values.flat, before.flat)
        before.flat[:] = 0.0
        assert params.values.flat.any()

    def test_restore_rejects_another_table(self):
        params = _params()
        other = ModelParameters(ModelConfig(layers=1), 0, 16)
        with pytest.raises(ValueError, match="table"):
            params.restore(other.snapshot())

    def test_astype_float64(self):
        p32 = _params()
        p32.grads.flat[:] = 1.0
        p64 = p32.astype(np.float64)
        assert p64.values.flat.dtype == p64.grads.flat.dtype == np.float64
        assert not np.shares_memory(p64.values.flat, p32.values.flat)
        assert not p64.grads.flat.any()
        for name, v in p32.values.items():
            assert p64.values[name].dtype == np.float64 and np.shares_memory(p64.values[name], p64.values.flat)
            np.testing.assert_array_equal(p64.values[name], v)
        p64.values.flat[:] = 0.0
        assert p32.values.flat.any()


class TestFlatAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bitwise_equal_to_the_per_tensor_loop(self, dtype, weight_decay):
        params = _params(dtype)
        ref = {k: p.copy() for k, p in params.values.items()}
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        state = AdamState.for_params(params.values)
        rng = np.random.default_rng(1)
        for t in range(1, 21):
            params.grads.flat[:] = rng.normal(size=params.num_scalars) * 10.0 ** rng.integers(-6, 1)
            adam_step(params.values, params.grads, state, lr=1e-3, weight_decay=weight_decay)
            reference_adam_step(ref, params.grads, m, v, t, lr=1e-3, weight_decay=weight_decay)
        assert state.t == 20
        assert state._scratch.shape == (2, params.num_scalars), "the single pass did not run"
        for name, p in params.values.items():
            assert p.tobytes() == ref[name].tobytes(), name
            assert state.m[name].tobytes() == m[name].tobytes(), name
            assert state.v[name].tobytes() == v[name].tobytes(), name

    def test_warm_step_allocates_no_array(self):
        params = _params()
        params.grads.flat[:] = np.random.default_rng(0).normal(size=params.num_scalars)
        state = AdamState.for_params(params.values)
        step = lambda: adam_step(params.values, params.grads, state, lr=1e-3, weight_decay=0.01)
        step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert params.values.flat.nbytes > 4 * 64 * 1024  # one flat temporary would break the bound
        assert peak < 64 * 1024, f"a warm step allocated {peak} bytes"
