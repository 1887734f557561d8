"""The 2x2 / stride-2 convolution layer and its hand-derived backward pass.

Shapes carry a leading batch axis ``n``:

* feature stacks are 4-D ``(n, row, col, channel)`` arrays,
* convolution kernels are 4-D ``(kh, kw, cin, cout)`` arrays with
  ``kh == kw == 2``.

The only convolution supported is the 2x2 kernel with stride 2 and no
padding, so input patches never overlap and the input gradient is a plain
reshape of the patch gradient. Operands are float64 arrays whose shapes
``ModelSpec`` has already checked; the kernels do not check them again.
All functions are pure: they never mutate their arguments, and each batch
row's result is bit-identical to that row computed alone.
"""

from __future__ import annotations

import numpy as np


def _patches(inp: np.ndarray) -> np.ndarray:
    n, h, _, cin = inp.shape
    return inp.reshape(n, h // 2, 2, h // 2, 2, cin)


def conv2x2s2_forward(inp, kernel, bias):
    """One 2x2 / stride-2 convolution layer with a single scalar bias.

    Returns ``(pre, act)`` where ``pre[n, i, j, c]`` is
    ``bias + sum_{a,b,d} inp[n, 2i+a, 2j+b, d] * kernel[a, b, d, c]`` and
    ``act = max(pre, 0)``. The pre-activation is kept because the backward
    pass needs its sign pattern.
    """
    pre = np.einsum("niajbd,abdc->nijc", _patches(inp), kernel) + bias
    return pre, np.maximum(pre, 0.0)


def conv2x2s2_backward(inp, kernel, pre, d_act):
    """Adjoint of conv2x2s2_forward, per batch row.

    Given the cotangent ``d_act`` of the activated output, returns
    ``(d_input, d_kernel, d_bias)`` with shapes ``inp.shape``,
    ``(n,) + kernel.shape`` and ``(n,)``. The relu mask comes from the
    stored pre-activation (the subgradient at exactly 0 is 0); because
    patches do not overlap, the input gradient is an exact reshape of the
    per-patch gradient.
    """
    n = inp.shape[0]
    d_pre = np.where(pre > 0, d_act, 0.0)
    d_bias = d_pre.reshape(n, -1).sum(axis=1)
    d_kernel = np.einsum("niajbd,nijc->nabdc", _patches(inp), d_pre)
    d_patches = np.einsum("abdc,nijc->niajbd", kernel, d_pre)
    return d_patches.reshape(inp.shape), d_kernel, d_bias
