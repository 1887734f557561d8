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
is bit-identical to that row computed alone, whatever rows share the call.
Patches never overlap, so the input gradient is a plain reshape of the
patch gradient.

Every wide array a layer produces goes into a C-contiguous buffer the
caller passes and owns: the forward's relu output ``act``, the backward's
relu cotangent ``d_pre`` and input cotangent ``d_inp``. A caller that keeps
its buffers between calls (``model.ConvWork``) allocates nothing of a
layer's size per call, so no call's speed depends on what malloc did
before it: a K=64 C=32 layer 1 is 256 KiB per row, above glibc's default
mmap threshold, and a fresh mmap of it is paid again in page faults. The
kernels run whatever rows they are given: scoring hands the pool blocks of
rows, its unit of work, and inside a block runs layer 1 in chunks whose
activations stay in cache, the cache's unit (``model.TOWER_CHUNK_BYTES``).

The forward runs the relu in place on the product in ``act``, and the
backward masks on ``act > 0``, which is the same mask as ``pre > 0``, so no
pre-activation is kept. The mask is ``relu_backward``, which the MLP head's
backward shares.

Operands are float64 arrays whose shapes ``ModelSpec`` has already checked;
the kernels do not check them again, and write only into their buffers.
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


def to_quadtree(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-major ``(n, s, s, C)`` stack -> ``(n, s*s, C)`` in quadtree order,
    into ``out`` when given. The indices are in range, so ``take`` runs
    unchecked ("clip"), which writes straight into ``out``."""
    n, s, _, c = x.shape
    return x.reshape(n, s * s, c).take(quadtree_order(s), axis=1, out=out, mode="clip")


@cache
def _row_major_order(s: int) -> np.ndarray:
    """Quadtree ranks of the positions of an s x s map, in row-major order:
    the inverse permutation of quadtree_order(s)."""
    inverse = np.argsort(quadtree_order(s))
    inverse.flags.writeable = False
    return inverse


def from_quadtree(x: np.ndarray) -> np.ndarray:
    """Inverse of to_quadtree."""
    n, p, c = x.shape
    s = math.isqrt(p)
    return x.take(_row_major_order(s), axis=1).reshape(n, s, s, c)


def conv2x2s2_forward(inp, kernel, bias, act):
    """One layer with a single scalar bias, into ``act``, ``(n, P/4, cout)``,
    which it returns: ``act = max(bias + sum_{a,b,d} inp[2i+a, 2j+b, d] *
    kernel[a, b, d, :], 0)`` at output (i, j)."""
    n, p, cin = inp.shape
    np.matmul(inp.reshape(n, p // 4, 4 * cin), kernel.reshape(4 * cin, -1), act)
    act += bias
    return np.maximum(act, 0.0, out=act)


def relu_backward(act, d, out):
    """``d`` where ``act > 0`` and +0.0 elsewhere, into ``out`` (which may
    be ``d``) and returned, bit for bit as ``np.where(act > 0, d, 0.0)``:
    the relu subgradient at exactly 0 is 0. The mask is a bitwise AND of
    d's bits with ``act > 0`` sign-extended to all ones, so -0.0 and NaN
    entries keep their bits and no entry takes a branch: on a 2-CPU Xeon a
    random (2, 1024, 32) mask took ~41 us against ~250 us for np.where,
    whose per-entry branch mispredicts."""
    live = (act > 0).view(np.int8)
    np.negative(live, live)  # 0 or -1, all bits set
    np.bitwise_and(d.view(np.int64), live, out.view(np.int64))
    return out


def conv2x2s2_backward(inp, kernel, act, d_act, d_pre, d_inp):
    """Adjoint of conv2x2s2_forward, per batch row: the relu cotangent into
    ``d_pre`` (shaped as ``act``, the forward's output) and the input
    cotangent into ``d_inp`` (shaped as ``inp``); returns ``(d_inp,
    d_kernel, d_bias)`` with shapes ``inp.shape``, ``(n,) + kernel.shape``
    and ``(n,)``."""
    n, p, cin = inp.shape
    relu_backward(act, d_act, d_pre)
    d_kernel = inp.reshape(n, p // 4, 4 * cin).transpose(0, 2, 1) @ d_pre
    np.matmul(d_pre, kernel.reshape(4 * cin, -1).T, d_inp.reshape(n, p // 4, 4 * cin))
    return d_inp, d_kernel.reshape((n,) + kernel.shape), d_pre.sum(axis=(1, 2))
