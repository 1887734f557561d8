"""The 2x2 / stride-2 convolution layer over quadtree-ordered feature stacks.

Feature stacks are ``(n, P, channel)`` arrays: a batch axis, then the
P = s*s positions of an s x s map in quadtree (Morton) order, where
position (r, c) ranks by the number whose bits interleave those of r and c,
each bit of r just above the same bit of c. Kernels are ``(2, 2, cin,
cout)``. In this order the 2x2 patch under output position (i, j), inputs
(2i + a, 2j + b), is four consecutive rows in the kernel's (a, b) order, and
the outputs come out in quadtree order again: a layer is a reshape to rows
of patches and one stacked matrix product with the flattened kernel, with
no copy. numpy runs that product once per slice of a batch row (the whole
row, unless ``model.ConvWork`` cuts its patch rows into equal slices to keep
each call within ``model.SMALL_PRODUCT_MACS``), so each row's result is
bit-identical to that row computed alone, whatever rows share the call.
Patches never overlap, so the input gradient is a plain reshape of the
patch gradient.

Every array a layer reads or writes is a view, which the caller passes,
of C-contiguous buffers it owns (the input's ``patch_rows``, ``act``, the
cotangents, masks and kernel gradients). A caller that keeps its buffers
and builds the views once (``model.ConvWork``) allocates nothing of a
layer's size per call, so no call's speed depends on what malloc did
before it (a K=64 C=32 layer 1 is 256 KiB per row, above glibc's default
mmap threshold), and pays no view per call, much of a desk step. The
kernels run whatever rows they are given: scoring hands the pool blocks of
rows, its unit of work, and inside a block runs layer 1 in chunks whose
activations stay in cache, the cache's unit (``model.TOWER_CHUNK_BYTES``).

The forward runs the relu in place on the product in ``act``, and the
backward masks the cotangent in place on ``act > 0``, which is the same
mask as ``pre > 0``, so no pre-activation is kept. The mask is
``relu_backward``, which the MLP head's backward shares.

Operands are float64 arrays whose shapes ``ModelSpec`` has already checked;
the kernels do not check them again, and write only into their buffers.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np


@cache
def _orders(s: int) -> tuple[np.ndarray, np.ndarray]:
    """(quadtree order, its inverse: the quadtree rank of each row-major
    position) of an s x s map, private to the gathers below and writeable:
    ``take`` copies a read-only index array on every call (32 KiB at s =
    64)."""
    r, c = np.divmod(np.arange(s * s), s)
    code = np.zeros(s * s, dtype=np.int64)
    for bit in range(s.bit_length()):
        code |= ((r >> bit) & 1) << (2 * bit + 1) | ((c >> bit) & 1) << (2 * bit)
    order = np.argsort(code)
    return order, np.argsort(order)


def to_quadtree(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-major ``(n, s, s, C)`` stack -> ``(n, s*s, C)`` in quadtree order,
    into ``out`` when given. The indices are in range, so ``take`` runs
    unchecked ("clip"), which writes straight into ``out``."""
    n, s, _, c = x.shape
    return x.reshape(n, s * s, c).take(_orders(s)[0], axis=1, out=out, mode="clip")


def from_quadtree(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of to_quadtree, the row-major ``(n, s*s, C)`` gather into
    ``out`` when given."""
    n, p, c = x.shape
    s = math.isqrt(p)
    return x.take(_orders(s)[1], axis=1, out=out, mode="clip").reshape(n, s, s, c)


def patch_rows(x: np.ndarray) -> np.ndarray:
    """A ``(n, P, c)`` stack viewed as the rows of its 2x2 patches, ``(n,
    P/4, 4c)``: the operand the layers multiply."""
    n, p, c = x.shape
    return x.reshape(n, p // 4, 4 * c)


def conv2x2s2_forward(patches, kernel, bias, act):
    """One layer with a single scalar bias over its input's ``patch_rows``,
    into ``act``, ``(n, P/4, cout)``, which it returns: ``act = max(bias +
    sum_{a,b,d} inp[2i+a, 2j+b, d] * kernel[a, b, d, :], 0)`` at output (i, j)."""
    np.matmul(patches, kernel.reshape(patches.shape[2], -1), act)
    np.add(act, bias, act)
    return np.maximum(act, 0.0, out=act)


def relu_backward(act, bits, live, signs, mask):
    """Mask a float64 cotangent d in place, given its int64 view ``bits``,
    to ``np.where(act > 0, d, 0.0)`` bit for bit (the subgradient at 0 is 0)
    through buffers shaped as ``act``: ``live`` (bool; ``signs``, its int8
    view) and ``mask`` (int64, so the AND casts no int8 through numpy's
    64 KiB buffer). d's bits AND ``act > 0`` sign-extended to all ones keep
    -0.0 and NaN and branch on no entry: on a 2-CPU Xeon, pinned, a random
    (2, 1024, 32) mask took 50-70 us against 360-460 us for np.where, whose
    branch mispredicts, and (2, 4, 8) 2.0-3.4 against 2.2-3.4 us."""
    np.greater(act, 0.0, live)
    np.negative(signs, mask)  # 0 or -1, all bits set
    np.bitwise_and(bits, mask, bits)


def conv2x2s2_backward(columns, kernel, act, d_act, bits, live, signs, mask, d_kernel, d_patches):
    """Adjoint of conv2x2s2_forward, per batch row, over views its caller
    builds once: ``columns``, the input's ``patch_rows`` transposed to ``(n,
    4 cin, P/4)``; ``act``, the forward's output; ``d_act``, its cotangent,
    which becomes the relu cotangent in place (``bits`` its int64 view,
    ``live``, ``signs`` and ``mask`` relu_backward's). Writes the per-row
    kernel gradients into ``d_kernel``, ``(n, 4 cin, cout)``, and the input
    cotangent into ``d_patches``, its ``patch_rows``; returns the per-row
    bias gradients, ``(n,)``."""
    relu_backward(act, bits, live, signs, mask)
    np.matmul(columns, d_act, d_kernel)
    np.matmul(d_act, kernel.reshape(columns.shape[1], -1).T, d_patches)
    return np.add.reduce(d_act, axis=(1, 2))
