"""The 2x2 / stride-2 convolution layer over quadtree-ordered feature stacks.

Feature stacks are ``(n, P, channel)`` arrays: a batch axis, then the
P = s*s positions of an s x s map in quadtree (Morton) order, where
position (r, c) ranks by the number whose bits interleave those of r and c,
each bit of r just above the same bit of c. Kernels are ``(2, 2, cin,
cout)``. In this order the 2x2 patch under output position (i, j), inputs
(2i + a, 2j + b), is four consecutive rows in the kernel's (a, b) order, and
the outputs come out in quadtree order again: a layer is a reshape to rows
of patches and one stacked matrix product with the flattened kernel, with
no copy. numpy runs that product once per batch row, so each row's result
is bit-identical to that row computed alone. Patches never overlap, so the
input gradient is a plain reshape of the patch gradient.

A layer returns only its relu output ``act``: the relu runs in place on the
freshly computed product, and the backward pass masks on ``act > 0``, which
is the same mask as ``pre > 0``, so no pre-activation is kept.

Operands are float64 arrays whose shapes ``ModelSpec`` has already checked;
the kernels do not check them again, and never mutate their arguments.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np


@cache
def quadtree_order(s: int) -> np.ndarray:
    """Row-major indices of the positions of an s x s map, in quadtree order."""
    r, c = np.divmod(np.arange(s * s), s)
    code = np.zeros(s * s, dtype=np.int64)
    for bit in range(s.bit_length()):
        code |= ((r >> bit) & 1) << (2 * bit + 1) | ((c >> bit) & 1) << (2 * bit)
    order = np.argsort(code)
    order.flags.writeable = False  # cached: every caller shares this array
    return order


def to_quadtree(x: np.ndarray) -> np.ndarray:
    """Row-major ``(n, s, s, C)`` stack -> ``(n, s*s, C)`` in quadtree order."""
    n, s, _, c = x.shape
    return np.take(x.reshape(n, s * s, c), quadtree_order(s), axis=1)


def from_quadtree(x: np.ndarray) -> np.ndarray:
    """Inverse of to_quadtree."""
    n, p, c = x.shape
    s = math.isqrt(p)
    out = np.empty((n, s, s, c))
    out.reshape(n, p, c)[:, quadtree_order(s)] = x
    return out


def conv2x2s2_forward(inp, kernel, bias):
    """One layer with a single scalar bias; returns ``act``, ``(n, P/4,
    cout)``, with ``act = max(bias + sum_{a,b,d} inp[2i+a, 2j+b, d] *
    kernel[a, b, d, :], 0)`` at output (i, j)."""
    n, p, cin = inp.shape
    act = inp.reshape(n, p // 4, 4 * cin) @ kernel.reshape(4 * cin, -1)
    act += bias
    return np.maximum(act, 0.0, out=act)


def conv2x2s2_backward(inp, kernel, act, d_act):
    """Adjoint of conv2x2s2_forward, per batch row: ``(d_input, d_kernel,
    d_bias)`` with shapes ``inp.shape``, ``(n,) + kernel.shape`` and ``(n,)``.
    ``act`` is the forward's output; the relu subgradient at exactly 0 is 0."""
    n, p, cin = inp.shape
    d_pre = np.where(act > 0, d_act, 0.0)
    d_kernel = inp.reshape(n, p // 4, 4 * cin).transpose(0, 2, 1) @ d_pre
    d_inp = d_pre @ kernel.reshape(4 * cin, -1).T
    return d_inp.reshape(inp.shape), d_kernel.reshape((n,) + kernel.shape), d_pre.sum(axis=(1, 2))
