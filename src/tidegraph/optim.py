"""The flat tensor store, and Adam with bias correction and optional
decoupled weight decay over it.

:class:`FlatTensors` holds named tensors as views into one contiguous 1-D
array, so an operation on every tensor is one operation on that array.
:func:`adam_step` is one elementwise pass over the flat arrays of the
parameters, their gradients and the two moments, in this order::

    m = beta1 * m;  m += (1 - beta1) * g
    v = beta2 * v;  v += ((1 - beta2) * g) * g
    u = (m / bias1) / (sqrt(v / bias2) + eps)
    p -= (lr * weight_decay) * p        (when weight_decay is non-zero)
    p -= lr * u

which is the order of a per-tensor loop, so the result is bitwise that
loop's. Its temporaries live in two buffers the state keeps, so a warm step
allocates no array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FlatTensors", "AdamState", "adam_step"]


class FlatTensors(dict):
    """Named tensors as views into one contiguous 1-D array ``flat``.

    ``table`` places them, in order, as (name, shape, offset) triples; the
    views follow table order and cover every scalar of ``flat`` exactly once.
    Write a tensor in place (``t[name][...] = x``): binding a new array to a
    name would detach it from ``flat``.
    """

    def __init__(self, table, flat: np.ndarray):
        super().__init__((name, flat[off : off + math.prod(shape)].reshape(shape)) for name, shape, off in table)
        self.table = tuple(table)
        self.flat = flat

    @staticmethod
    def layout(shapes) -> tuple:
        """The table of tensors of these (name, shape) pairs, packed in order."""
        table, off = [], 0
        for name, shape in shapes:
            table.append((name, tuple(shape), off))
            off += math.prod(shape)
        return tuple(table)

    @classmethod
    def pack(cls, arrays: dict, dtype) -> "FlatTensors":
        """A store holding a copy of each named array, cast to ``dtype``."""
        out = cls.zeros(cls.layout((name, a.shape) for name, a in arrays.items()), dtype)
        for name, a in arrays.items():
            out[name][...] = a
        return out

    @classmethod
    def zeros(cls, table, dtype) -> "FlatTensors":
        return cls(table, np.zeros(sum(math.prod(shape) for _, shape, _ in table), dtype))

    def astype(self, dtype) -> "FlatTensors":
        """A copy over the same table, cast to ``dtype``."""
        return FlatTensors(self.table, self.flat.astype(dtype))


@dataclass
class AdamState:
    """First/second moment accumulators over the parameters' table."""

    m: FlatTensors
    v: FlatTensors
    t: int = 0
    # the pass's two temporaries, (2, size) in the moments' dtype
    _scratch: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_params(cls, params: FlatTensors) -> "AdamState":
        """Zero moments over the table and dtype of the store ``params``."""
        table, dtype = params.table, params.flat.dtype
        return cls(m=FlatTensors.zeros(table, dtype), v=FlatTensors.zeros(table, dtype))

    def scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        s = self._scratch
        if s is None or s.shape[1] < size:
            s = self._scratch = np.empty((2, size), self.m.flat.dtype)
        return s[0, :size], s[1, :size]


def adam_step(
    params: FlatTensors,
    grads: FlatTensors,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """In-place parameter update; weight decay is decoupled from the moments.

    ``params`` and ``grads`` are stores over the moments' table, in their
    dtype; the update is one pass over the flat arrays.
    """
    state.t += 1
    t = state.t
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    a, b = state.scratch(p.size)
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=a)
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, bias1, out=a)
    np.sqrt(np.divide(v, bias2, out=b), out=b)
    b += eps
    a /= b
    if weight_decay:
        p -= np.multiply(p, lr * weight_decay, out=b)
    p -= np.multiply(a, lr, out=a)
    return state
